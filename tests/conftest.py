import dataclasses

import numpy as np

from fbrrt.backward import _best_candidates, _drifts_and_costs, _policy_scores
from fbrrt.basis import value_grad
from fbrrt.problem import (
    ControlProblem,
    make_double_integrator_l1,
    make_lq_problem,
    make_pendulum_l1,
    make_uncontrolled_heat,
)
from fbrrt.tree import BranchTree


def scalar_problem(fuel_weight=0.5, noise=1.0, roi=(-1.0, 1.0), x0=0.0, horizon=1.0):
    """1D dX = u dt + noise dW with an L1 running cost; shared test fixture."""
    a, s = float(fuel_weight), float(noise)
    bang = np.array([[-1.0], [0.0], [1.0]])
    return ControlProblem(
        name="scalar",
        state_dim=1,
        control_dim=1,
        horizon=horizon,
        drift=lambda t, x, u: np.broadcast_arrays(np.asarray(x, float)[..., :1] * 0.0 + np.asarray(u, float)[..., :1])[0],
        sigma=np.array([[s]]),
        running_cost=lambda t, x, u: a * np.abs(np.asarray(u, float)[..., 0]) + 0.0 * np.asarray(x, float)[..., 0],
        terminal_cost=lambda x: np.asarray(x, float)[..., 0] ** 2,
        control_candidates=bang,
        random_controls=bang,
        roi_lower=np.array([roi[0]]),
        roi_upper=np.array([roi[1]]),
        initial_state=np.array([float(x0)]),
    )


def policy_problems():
    """Problems whose target policy the scoring tests check pair by pair.

    The LQ problems have a general (non-diagonal) A and a 3-dimensional
    state; without a running cost the scalar problem ties every score and
    every cost wherever the value gradient vanishes.
    """
    rng = np.random.default_rng(11)
    Q3 = rng.normal(size=(3, 3))
    return {
        "double_integrator": make_double_integrator_l1(),
        "pendulum": make_pendulum_l1(),
        "heat": make_uncontrolled_heat(),
        "lq_general_A": make_lq_problem(
            A=[[0.3, 1.0], [-0.7, -0.2]], B=[[0.5], [1.0]], Qr=[[0.2, 0.05], [0.05, 0.1]], R=[[1.0]], Qf=np.eye(2), noise=0.3
        ),
        "lq_3d": make_lq_problem(
            A=rng.normal(size=(3, 3)),
            B=rng.normal(size=(3, 2)),
            Qr=Q3 @ Q3.T,
            R=np.diag([1.0, 0.5]),
            Qf=np.eye(3),
            noise=0.4,
            grid_points=5,
        ),
        "scalar_no_fuel": scalar_problem(fuel_weight=0.0),
    }


def best_candidates(ells, F, grad):
    """The kernel's pick on a grid: `_best_candidates` of `_policy_scores`."""
    return _best_candidates(_policy_scores(ells, F, grad), ells)


def policy_grid(problem, t, X, alpha_next, lower, upper):
    """The target policy at the states X (B, n) with its whole candidate
    grid, as `_candidate_scores` gave it before it took the gradient as an
    argument and gathered the chosen rows: (choice, cands, ells, F) with
    the (B, C) running costs and the (B, C, n) drifts, unchecked."""
    cands = problem.control_candidates
    ells, F = _drifts_and_costs(problem, t, X, cands)
    return best_candidates(ells, F, value_grad(X, alpha_next, lower, upper)), cands, ells, F


def nan_under_plus_one(problem, field, t=None):
    """`problem` whose `field`, "drift" or "running_cost", is NaN under the
    control u = +1, at every time or at time `t` alone."""
    base = getattr(problem, field)

    def values(time, x, u):
        out = base(time, x, u)
        if t is not None and time != t:
            return out
        nan = np.asarray(u, dtype=float)[..., 0] == 1.0
        return np.where(nan[..., None] if field == "drift" else nan, np.nan, out)

    return dataclasses.replace(problem, **{field: values})


def nan_exploration_cost_problem():
    """The double integrator with a NaN running cost under u = +1, which
    only the exploration set holds: the policy's candidates are {-1, 0}."""
    p = nan_under_plus_one(make_double_integrator_l1(), "running_cost")
    return dataclasses.replace(p, control_candidates=np.array([[-1.0], [0.0]]))


def correlated_noise_lq_problem():
    """A 2-D LQ problem whose sigma has off-diagonal entries, so a BLAS
    product with it rounds a batch of rows unlike one row."""
    return make_lq_problem(
        np.array([[0.3, 1.0], [-0.5, -0.2]]), np.array([[0.1], [1.0]]), 0.1 * np.eye(2), np.eye(1), np.eye(2),
        noise=np.array([[0.3, 0.07], [-0.11, 0.25]]), grid_points=5,
    )


def same_bits(got, want) -> bool:
    """Equal shape, dtype and bytes: NaN payloads and signed zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def reference_prune(tree, scores, keep_fraction):
    """`BranchTree.prune` as it ranked each layer with its own stable
    argsort and rebuilt the pruned tree a layer at a time, on valid input."""
    keep = [np.ones(tree._size[0], dtype=bool)]
    for i, size in enumerate(tree._size[1:], 1):
        keep.append(np.zeros(size, dtype=bool))
        if size:
            n_keep = int(np.ceil(keep_fraction * size))
            keep[i][np.argsort(np.asarray(scores[i]), kind="stable")[:n_keep]] = True
    for i in range(len(keep) - 1, 0, -1):
        keep[i - 1][tree._parent[i, : len(keep[i])][keep[i]]] = True
    out = BranchTree(tree.problem, tree.grid)
    out._reserve(max(int(k.sum()) for k in keep))
    for i, k in enumerate(keep):
        pos = np.flatnonzero(k)
        out._size[i] = len(pos)
        for name in ("_state", "_control", "_drift", "_run_cost"):
            getattr(out, name)[i, : len(pos)] = getattr(tree, name)[i, pos]
        out._parent[i, : len(pos)] = np.cumsum(keep[i - 1])[tree._parent[i, pos]] - 1 if i else -1
    order = np.argsort(np.concatenate([tree._id[i, : len(k)][k] for i, k in enumerate(keep)]))
    layer = np.repeat(np.arange(len(keep)), out._size)[order]
    position = np.concatenate([np.arange(size) for size in out._size])[order]
    out._count = len(order)
    out._id[layer, position] = np.arange(out._count)
    return out


def same_tree(got, want) -> bool:
    """Equal layer sizes, node count and every layer's fields bit for bit;
    equal ids per layer put every node id at the same layer and position."""
    return (
        got.layer_sizes == want.layer_sizes
        and len(got.nodes) == len(want.nodes)
        and all(same_bits(a, b) for i in range(len(want.layer_sizes)) for a, b in zip(got.layer(i), want.layer(i)))
    )


def add_edge(tree, i, j, control, drift, child_state):
    """`tree.add_edge` under position j of layer i, with the running cost
    increment l(t_i, x_j, u) * dt of the tree's problem."""
    control, dt = np.asarray(control, dtype=float), tree.grid.dt
    cost = float(tree.problem.running_cost(i * dt, tree.layer_states(i)[j], control)) * dt
    return tree.add_edge(i, j, control, drift, child_state, cost)
