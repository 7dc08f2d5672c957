"""Forward pass: RRT branch-sampled growth of the path tree.

Growth mixes RRT node selection (sample a target uniformly in the region of
interest, expand the nearest particle) with uniform node selection, and
mixes exploiting the current policy with uniformly drawn exploration
controls.  Each edge is an Euler-Maruyama step of the drifted SDE with a
feasible drift k = f(t, x, u), recorded on the edge so the backward pass can
compensate for the sampling measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    metric_weights: Optional[np.ndarray] = None  # default 1/roi_width^2

    def __post_init__(self):
        if self.target_width < 1:
            raise ValueError("target_width must be >= 1")
        if not (0 <= self.eps_rrt <= 1 and 0 <= self.eps_opt <= 1):
            raise ValueError("mixing probabilities must lie in [0, 1]")


class _ControlTables:
    """Drifts and running costs of the expandable nodes under every control.

    Row k belongs to node k: `explore_*` cover the exploration controls,
    `exploit_*` the policy candidates (the same tables when the two control
    sets coincide), `choice` the policy's pick and `exploit_step` the drift
    part x + k dt of its Euler step.  All of it depends only on the node
    while the coefficients are fixed, so rows are filled lazily, the
    exploration rows and the policy rows each on their own: the first time a
    node without exploration (policy) rows is drawn, the nodes appended
    since the last such fill get them in batches of up to `batch` ids,
    whatever their layer, until the drawn node has its rows.  Each table is
    one block, allocated and freed once per pass.
    """

    def __init__(self, tree: BranchTree, coeffs: Optional[ValueCoefficients], capacity: int, batch: int):
        problem = tree.problem
        self.tree, self.problem, self.coeffs, self.dt, self.steps = tree, problem, coeffs, tree.grid.dt, tree.grid.steps
        self.batch = batch
        n = problem.state_dim
        self.explore_controls = np.asarray(problem.random_controls, dtype=float)
        candidates = np.asarray(problem.control_candidates, dtype=float)
        self.shared = np.array_equal(self.explore_controls, candidates)
        # one row view per control, shared by every node that applies it
        self.explore_rows, self.candidate_rows = list(self.explore_controls), list(candidates)
        self.explored = self.scored = 0  # nodes with lower ids have their rows
        self.explore_drift = np.empty((capacity, len(self.explore_controls), n))
        self.explore_cost = np.empty((capacity, len(self.explore_controls)))
        self.exploit_drift, self.exploit_cost = self.explore_drift, self.explore_cost
        self.choice = self.exploit_step = None
        if coeffs is not None:
            self.choice = np.empty(capacity, dtype=np.intp)
            self.exploit_step = np.empty((capacity, n))
            if not self.shared:
                self.exploit_drift = np.empty((capacity, len(candidates), n))
                self.exploit_cost = np.empty((capacity, len(candidates)))

    def _pending(self, start: int):
        """Ids, states and layers of the non-terminal nodes among the next
        `batch` ids from `start` on, and the id after those."""
        end = min(start + self.batch, len(self.tree.nodes))
        layer, pos = self.tree.locate(slice(start, end))
        rows = np.flatnonzero(layer < self.steps)
        layer, pos = layer[rows], pos[rows]
        return rows + start, self.tree.state_at(layer, pos), layer, end

    def explore(self):
        ids, X, layer, self.explored = self._pending(self.explored)
        if len(ids):
            ells, F = backward._drifts_and_costs(self.problem, layer * self.dt, X, self.explore_controls)
            self.explore_drift[ids] = _finite_drift(F)
            self.explore_cost[ids] = ells

    def score(self):
        ids, X, layer, self.scored = self._pending(self.scored)
        if len(ids):
            c = self.coeffs
            # a node of layer i expands with alpha_{i+1}, row i of `alphas`
            choice, _, ells, F = backward._candidate_scores(
                self.problem, layer * self.dt, X, c.alphas[layer], c.lower, c.upper
            )
            self.choice[ids] = choice
            self.exploit_drift[ids] = _finite_drift(F)
            self.exploit_cost[ids] = ells
            self.exploit_step[ids] = X + F[np.arange(len(ids)), choice] * self.dt
        if self.shared:  # rows of lower ids came from earlier fills of the same tables
            self.explored = max(self.explored, self.scored)


def _finite_drift(drift: np.ndarray) -> np.ndarray:
    if not np.isfinite(drift).all():
        raise ValueError("drift must be finite")
    return drift


def forward_expand(
    tree: BranchTree,
    coeffs: Optional[ValueCoefficients],
    config: ForwardConfig,
    rng: np.random.Generator,
) -> BranchTree:
    """Grow every layer 1..N to exactly `target_width` nodes in place.

    Outer loop adds one particle per layer per pass, inner loop walks time
    steps in order, so nodes added at layer i are immediately candidates for
    expansion into layer i+1 and in later passes over layer i.

    Draws the same random numbers in the same order as selecting a node,
    a control and an Euler-Maruyama step one node at a time, and grows the
    same tree; controls, drifts and costs come from batches over many nodes
    (`_ControlTables`), which is why `fbrrt.problem` asks drifts and costs
    to round each row alike in any batch.  Raises ValueError on a
    non-finite drift or state.
    """
    problem, grid = tree.problem, tree.grid
    if not tree.layer_size(0):
        raise ValueError("tree has no root layer")
    M, N, n = config.target_width, grid.steps, problem.state_dim
    dt = grid.dt
    sqrt_dt = np.sqrt(dt)
    weights = config.metric_weights if config.metric_weights is not None else default_metric_weights(problem)
    sigma = problem.diffusion(0.0, np.asarray(problem.initial_state, dtype=float))
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(), draw for draw
    roi_lower = np.asarray(problem.roi_lower, dtype=float)
    roi_width = np.asarray(problem.roi_upper, dtype=float) - roi_lower
    # fills of at most M nodes keep their temporaries those of a one-layer batch
    tables = _ControlTables(tree, coeffs, len(tree.nodes) + sum(max(M - size, 0) for size in tree.layer_sizes[1:]), M)
    exploit = coeffs is not None
    eps_rrt, eps_opt = config.eps_rrt, config.eps_opt
    uniform, integers, normal = rng.random, rng.integers, rng.normal
    choice, exploit_step = tables.choice, tables.exploit_step
    for _ in range(M):
        for i in range(N):
            if tree.layer_size(i + 1) >= M:
                continue
            if eps_rrt > uniform():
                j = tree.nearest_position(i, roi_lower + roi_width * uniform(n), weights)
            else:
                j = integers(tree.layer_size(i))
            node_id = tree.id_at(i, j)
            if exploit and eps_opt > uniform():
                while node_id >= tables.scored:
                    tables.score()
                c = choice[node_id]
                u, k, ell = tables.candidate_rows[c], tables.exploit_drift[node_id, c], tables.exploit_cost[node_id, c]
                drifted = exploit_step[node_id]
            else:
                while node_id >= tables.explored:
                    tables.explore()
                c = integers(len(tables.explore_rows))
                u = tables.explore_rows[c]
                k, ell = tables.explore_drift[node_id, c], tables.explore_cost[node_id, c]
                drifted = tree.state_at(i, j) + k * dt
            w = normal(0.0, sqrt_dt, size=n)  # loc + scale * z: the same doubles as normal(size=n) * sqrt_dt
            # np.dot: the same BLAS product as `@`, less dispatch
            tree.append_child(i, j, u, k, drifted + np.dot(sigma, w), float(ell) * dt)
    for i in range(1, N + 1):
        if not np.all(np.isfinite(tree.layer_states(i))):
            raise ValueError(f"non-finite state in layer {i}")
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

    Control selection uses the same eps_opt exploit/explore mixing as the
    RRT expansion.  The chains are stepped as a batch but appended node by
    node through `add_edge`, which checks every drift.  A whole-layer append
    makes a chains solve about four times faster than a tree solve, and the
    equal-runtime tree-vs-chains acceptance test fails against chains that
    fast; the per-node append stays until the RRT pass is faster (ROADMAP
    item 2).  Raises ValueError on a non-finite drift or state.
    """
    tree = BranchTree(problem, grid)
    X = np.tile(problem.initial_state, (M, 1))
    frontier = tree.add_roots(X)
    n = problem.state_dim
    cands = np.asarray(problem.random_controls)
    sqrt_dt = np.sqrt(grid.dt)
    for i in range(grid.steps):
        t = i * grid.dt
        U = cands[rng.integers(len(cands), size=M)]
        if coeffs is not None and config.eps_opt > 0:
            exploit = config.eps_opt > rng.uniform(size=M)
            if np.any(exploit):
                U[exploit] = backward.target_policy_batch(
                    problem, t, X[exploit], coeffs.alpha(i + 1), coeffs.lower, coeffs.upper
                )
        K = problem.drift(t, X, U)
        W = rng.normal(size=(M, n)) * sqrt_dt
        X_next = X + K * grid.dt + W @ problem.diffusion(t, X[0]).T
        costs = problem.running_cost(t, X, U) * grid.dt
        frontier = [
            tree.add_edge(frontier[j], U[j], K[j], X_next[j], cost_increment=float(costs[j]))
            for j in range(M)
        ]
        if not np.isfinite(X_next).all():
            raise ValueError(f"non-finite state in layer {i + 1}")
        X = X_next
    return tree
