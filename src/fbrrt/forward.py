"""Forward pass: RRT branch-sampled growth of the path tree.

Growth mixes RRT node selection (sample a target uniformly in the region of
interest, expand the nearest particle) with uniform node selection, and
mixes exploiting the current policy with uniformly drawn exploration
controls.  Each edge is an Euler-Maruyama step of the drifted SDE with a
feasible drift k = f(t, x, u), recorded on the edge so the backward pass can
compensate for the sampling measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import backward
from .basis import ValueCoefficients
from .problem import ControlProblem, TimeGrid
from .tree import BranchTree, default_metric_weights


@dataclass
class ForwardConfig:
    target_width: int  # M
    eps_rrt: float = 0.7
    eps_opt: float = 0.7

    def __post_init__(self):
        if self.target_width < 1:
            raise ValueError("target_width must be >= 1")
        if not (0 <= self.eps_rrt <= 1 and 0 <= self.eps_opt <= 1):
            raise ValueError("mixing probabilities must lie in [0, 1]")


def sampling_step(problem: ControlProblem, grid: TimeGrid, i: int, X, pick, coeffs, noise):
    """One Euler-Maruyama step of the sampling SDE from the states X (B, n)
    at t_i: returns each row's (control, drift k, running cost, next state).

    `pick` holds each row's exploration control index, or -1 for a row
    that follows the target policy of `coeffs` (alpha_{i+1}, row i of
    `alphas`).  Policy rows read drift and cost off the candidate grid that
    scored them, all of whose drifts and running costs must be finite; an
    exploring row takes its own (state, control) pair, rounding as on a
    grid (`fbrrt.problem`), whose drift must be finite, as must the next
    states (ValueError).
    `noise` (B, n) enters as `problem.apply_diffusion`.
    """
    t = i * grid.dt
    controls, K, ells = np.empty((len(X), problem.control_dim)), np.empty(X.shape), np.empty(len(X))
    rows = np.flatnonzero(pick < 0)
    if len(rows):
        choice, cands, grid_ells, F = backward._candidate_scores(
            problem, t, X[rows], coeffs.alphas[i], coeffs.lower, coeffs.upper
        )
        fault = backward._grid_fault(grid_ells, F)
        if fault is not None:
            raise ValueError(fault)
        k = np.arange(len(rows))
        controls[rows], K[rows], ells[rows] = cands[choice], F[k, choice], grid_ells[k, choice]
    rows = np.flatnonzero(pick >= 0)
    if len(rows):
        U, X_rows = np.asarray(problem.random_controls, dtype=float)[pick[rows]], X[rows]
        F = problem.drift(t, X_rows, U)
        if not np.isfinite(F).all():
            raise ValueError("drift must be finite")
        controls[rows], K[rows], ells[rows] = U, F, problem.running_cost(t, X_rows, U)
    X_next = X + K * grid.dt + problem.apply_diffusion(noise)
    if not np.isfinite(X_next).all():
        raise ValueError(f"non-finite state in layer {i + 1}")
    return controls, K, ells, X_next


def expansion_schedule(sizes, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The layer each expansion picks a node from, in pass order, and that
    layer's width at its turn, for a tree of layer sizes `sizes`.

    Pass p expands layer i into layer i+1 while layer i+1 is short of M.
    By then layer i has grown by one node in each of passes 0..p, up to
    its own shortfall; the roots never grow.
    """
    sizes = np.asarray(sizes)
    grows = np.maximum(M - sizes, 0)
    grows[0] = 0
    passes, layer = np.nonzero(np.arange(M)[:, None] < grows[1:])
    return layer, sizes[layer] + np.minimum(passes + 1, grows[layer])


def _draw_expansions(rng: np.random.Generator, problem: ControlProblem, width, eps_rrt, eps_opt, dt):
    """The random numbers of the expansions at layer widths `width`, one
    Generator call per variable over all of them, in this order: the RRT
    coins, the ROI targets, the uniformly drawn positions (-1 where the coin
    chose RRT), the exploration controls, the coins that set a control to
    -1 to follow the policy (only when `eps_opt` is not None, that is with
    coefficients) and the noise.  Returns (pos, target, control, noise)."""
    E = len(width)
    rrt = eps_rrt > rng.random(E)
    target = problem.sample_roi(rng, E)
    pos = rng.integers(width)
    pos[rrt] = -1
    control = rng.integers(len(problem.random_controls), size=E)
    if eps_opt is not None:
        control[eps_opt > rng.random(E)] = -1
    noise = rng.normal(0.0, np.sqrt(dt), (E, problem.state_dim))
    return pos, target, control, noise


def forward_expand(
    tree: BranchTree,
    coeffs: Optional[ValueCoefficients],
    config: ForwardConfig,
    rng: np.random.Generator,
) -> BranchTree:
    """Grow every layer 1..N to exactly `target_width` nodes in place.

    The schedule is pass-major: each pass adds one particle to every layer
    that is not yet full, walking time steps in order, so nodes added at
    layer i are immediately candidates for expansion into layer i+1 and in
    later passes over layer i.

    The schedule alone fixes each expansion's layer and that layer's width
    at its turn (`expansion_schedule`), so the pass first takes every
    expansion's random numbers in bulk (`_draw_expansions`), then grows the
    tree a layer at a time: an expansion of layer i sees the prefix of
    layer i that existed at its turn, so one batch per layer (nearest
    neighbours over those prefixes, then one `sampling_step`) grows the
    tree that expanding one node at a time on the same numbers grows.  This
    is why `fbrrt.problem` asks drifts and costs to round each row alike in
    any batch, and why the noise enters through `problem.apply_diffusion`.
    Raises ValueError on a non-finite drift or state.
    """
    problem, grid = tree.problem, tree.grid
    if not tree.layer_size(0):
        raise ValueError("tree has no root layer")
    M, N, dt = config.target_width, grid.steps, grid.dt
    weights = default_metric_weights(problem)
    count = len(tree.nodes)
    layer, width = expansion_schedule(tree.layer_sizes, M)
    eps_opt = config.eps_opt if coeffs is not None else None
    pos, target, control, noise = _draw_expansions(rng, problem, width, config.eps_rrt, eps_opt, dt)

    # Sweep: the expansions of each layer, in pass order, as one batch.
    order = np.argsort(layer, kind="stable")
    bounds = np.searchsorted(layer[order], np.arange(N + 1))
    for i in range(N):
        ev = order[bounds[i] : bounds[i + 1]]
        if len(ev):
            parents = pos[ev]
            rrt = parents < 0
            parents[rrt] = tree.nearest_positions(i, target[ev[rrt]], width[ev[rrt]], weights)
            X = tree.layer_states(i)[parents]
            controls, K, ells, X_next = sampling_step(problem, grid, i, X, control[ev], coeffs, noise[ev])
            # ids count the expansions in pass order, as node-by-node growth numbers them
            tree.append_layer(i, parents, controls, K, X_next, ells * dt, count + ev)
    return tree


def parallel_forward_baseline(
    problem: ControlProblem,
    grid: TimeGrid,
    M: int,
    coeffs: Optional[ValueCoefficients],
    config: ForwardConfig,
    rng: np.random.Generator,
) -> BranchTree:
    """M independent Euler-Maruyama chains from x0 (no branching).

    Each time step samples every chain's exploration control (`integers`),
    then, with coefficients and eps_opt > 0, which chains follow the policy
    instead (`uniform`), then the noise (`normal`), and takes the RRT
    expansion's `sampling_step`, so both passes choose controls, record
    drifts and costs and add noise alike.  The chains are appended node by
    node through `add_edge` (about 3 µs per node on a 2-vCPU x86-64 host),
    not a layer at a time: whole-layer appends make a chains solve faster
    than a tree solve, and the equal-runtime tree-vs-chains acceptance test
    then passes only now and then (README; ROADMAP item 3).  Raises
    ValueError on a non-finite drift or state.
    """
    tree = BranchTree(problem, grid)
    X = np.tile(problem.initial_state, (M, 1))
    frontier = tree.add_roots(X)
    sqrt_dt = np.sqrt(grid.dt)
    for i in range(grid.steps):
        pick = rng.integers(len(problem.random_controls), size=M)
        if coeffs is not None and config.eps_opt > 0:
            pick[config.eps_opt > rng.uniform(size=M)] = -1
        W = rng.normal(size=(M, problem.state_dim)) * sqrt_dt
        U, K, ells, X_next = sampling_step(problem, grid, i, X, pick, coeffs, W)
        costs = (ells * grid.dt).tolist()
        frontier = [tree.add_edge(frontier[j], U[j], K[j], X_next[j], cost_increment=costs[j]) for j in range(M)]
        X = X_next
    return tree
