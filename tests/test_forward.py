import dataclasses
import re

import numpy as np
import pytest

from fbrrt.backward import _drifts_and_costs
from fbrrt.basis import ValueCoefficients, feature_count, quadratic_to_coefficients
from fbrrt.forward import ForwardConfig, forward_expand, parallel_forward_baseline, sampling_step
from fbrrt.problem import (
    TimeGrid,
    make_double_integrator_l1,
    make_lq_problem,
    make_pendulum_l1,
    make_uncontrolled_heat,
)
from fbrrt.tree import BranchTree, default_metric_weights

from conftest import (
    add_edge,
    correlated_noise_lq_problem,
    nan_exploration_cost_problem,
    nan_under_plus_one,
    policy_grid,
    policy_problems,
    same_bits,
    same_tree,
    scalar_problem,
)


# Node-by-node reference of the forward pass: one node selection, control
# and Euler-Maruyama step at a time.  forward_expand must grow the tree
# these grow (test_forward_expand_matches_node_by_node_growth), and
# parallel_forward_baseline the chains they step
# (test_baseline_matches_chain_by_chain_stepping).


def euler_maruyama_step(problem, dt, t, x, k, w):
    """x + k dt + sigma w, with w ~ N(0, dt I) supplied by the caller;
    sigma w is summed as both forward passes sum it for a layer."""
    x = np.asarray(x, dtype=float)
    noise = problem.apply_diffusion(np.asarray(w, dtype=float))
    return x + np.asarray(k, dtype=float) * dt + noise


def policy_control(problem, t, x, alpha_next, lower, upper):
    """The target policy's control at the one state x."""
    choice, cands, _, _ = policy_grid(problem, t, np.asarray(x, dtype=float)[None, :], alpha_next, lower, upper)
    return cands[choice[0]]


def test_euler_step_values():
    p = scalar_problem(noise=0.5)
    assert euler_maruyama_step(p, 0.1, 0.0, np.array([0.7]), np.zeros(1), np.zeros(1)) == pytest.approx(0.7)
    assert euler_maruyama_step(p, 0.1, 0.0, np.zeros(1), np.array([2.0]), np.zeros(1)) == pytest.approx(0.2)
    # pure diffusion: sigma * w = 0.5 * 0.3
    assert euler_maruyama_step(p, 0.1, 0.0, np.zeros(1), np.zeros(1), np.array([0.3])) == pytest.approx(0.15)


def test_forward_expand_single_chain():
    p = scalar_problem()
    grid = TimeGrid.from_horizon(p.horizon, 8)
    tree = BranchTree(p, grid)
    tree.add_root()
    forward_expand(tree, None, ForwardConfig(target_width=1), np.random.default_rng(6))
    assert tree.layer_sizes == [1] * 9
    assert len(tree.nodes) == 9


def test_forward_expand_widths_and_telescoping():
    p = make_double_integrator_l1()
    grid = TimeGrid.from_horizon(p.horizon, 10)
    tree = BranchTree(p, grid)
    tree.add_root()
    forward_expand(tree, None, ForwardConfig(target_width=64), np.random.default_rng(7))
    assert tree.layer_sizes == [1] + [64] * 10
    for i in range(1, grid.steps + 1):
        layer, above = tree.layer(i), tree.layer(i - 1)
        for j, parent in enumerate(layer.parents):
            inc = float(p.running_cost((i - 1) * grid.dt, above.states[parent], layer.controls[j])) * grid.dt
            assert abs(layer.run_costs[j] - above.run_costs[parent] - inc) < 1e-10


def test_forward_expand_resumes_partial_tree():
    p = scalar_problem()
    grid = TimeGrid.from_horizon(p.horizon, 4)
    tree = BranchTree(p, grid)
    tree.add_root()
    forward_expand(tree, None, ForwardConfig(target_width=3), np.random.default_rng(8))
    forward_expand(tree, None, ForwardConfig(target_width=8), np.random.default_rng(9))
    assert tree.layer_sizes == [1] + [8] * 4


def test_forward_expand_deterministic():
    p = make_double_integrator_l1()
    grid = TimeGrid.from_horizon(p.horizon, 6)
    trees = []
    for _ in range(2):
        tree = BranchTree(p, grid)
        tree.add_root()
        forward_expand(tree, None, ForwardConfig(target_width=32), np.random.default_rng(10))
        trees.append(tree)
    assert same_tree(*trees)


def grow_node_by_node(tree, coeffs, config, rng):
    """forward_expand's schedule spelled out with the per-node helpers.

    Every expansion's random numbers are drawn up front, one Generator call
    per variable over all of them, in forward_expand's order; then each
    expansion, in pass order, selects its node (the nearest to its ROI
    target, or its uniformly drawn position), its control and its
    Euler-Maruyama step on its own."""
    problem, grid = tree.problem, tree.grid
    M = config.target_width
    # each expansion's layer, and that layer's width at its turn
    sizes, turns = list(tree.layer_sizes), []
    for _ in range(M):
        for i in range(grid.steps):
            if sizes[i + 1] < M:
                turns.append((i, sizes[i]))
                sizes[i + 1] += 1
    E = len(turns)
    explore = np.asarray(problem.random_controls, dtype=float)
    rrt = config.eps_rrt > rng.random(E)
    target = problem.sample_roi(rng, E)
    pos = rng.integers(np.array([width for _, width in turns], dtype=int))
    pick = rng.integers(len(explore), size=E)
    exploit = np.zeros(E, dtype=bool)
    if coeffs is not None:
        exploit = config.eps_opt > rng.random(E)
    W = rng.normal(0.0, np.sqrt(grid.dt), (E, problem.state_dim))
    for e, (i, _) in enumerate(turns):
        t = i * grid.dt
        if rrt[e]:
            j = tree.nearest(i, target[e][None], [tree.layer_size(i)], default_metric_weights(problem))[0]
        else:
            j = pos[e]
        x = tree.layer_states(i)[j]
        if exploit[e]:
            u = policy_control(problem, t, x, coeffs.alpha(i + 1), coeffs.lower, coeffs.upper)
        else:
            u = explore[pick[e]]
        k = problem.drift(t, x, u)
        add_edge(tree, i, j, u, k, euler_maruyama_step(problem, grid.dt, t, x, k, W[e]))
    return tree


def quadratic_value(problem, steps):
    alpha = quadratic_to_coefficients(
        np.diag(np.linspace(1.0, 4.0, problem.state_dim)), np.zeros(problem.state_dim), 0.0,
        problem.roi_lower, problem.roi_upper,
    )
    return ValueCoefficients(alphas=np.tile(alpha, (steps, 1)), lower=problem.roi_lower, upper=problem.roi_upper)


def small_lq_problem():
    return make_lq_problem(
        np.array([[0.3, 1.0], [-0.5, -0.2]]), np.array([[0.1], [1.0]]), 0.1 * np.eye(2), np.eye(1), np.eye(2),
        noise=0.3, grid_points=5,
    )


# drifts that could round differently for a batch of rows than for one row
# (the pendulum's sine, the LQ matrix products, a non-diagonal sigma), and
# heat, whose exploration set differs from its policy candidates
GROWTH_PROBLEMS = [
    make_double_integrator_l1,
    make_pendulum_l1,
    small_lq_problem,
    make_uncontrolled_heat,
    correlated_noise_lq_problem,
]


@pytest.mark.parametrize("make_problem", GROWTH_PROBLEMS)
@pytest.mark.parametrize("with_coeffs", [False, True])
def test_forward_expand_matches_node_by_node_growth(make_problem, with_coeffs):
    # the batched pass must draw the same numbers in the same order and
    # grow exactly the tree the per-node helpers grow.  Each case starts
    # from one root and from three roots, so that layer 0 is wider than 1.
    p = make_problem()
    grid = TimeGrid.from_horizon(p.horizon, 8)
    coeffs = quadratic_value(p, grid.steps) if with_coeffs else None
    for roots in (1, 3):
        trees, rng_states = [], []
        for grow in (forward_expand, grow_node_by_node):
            tree = BranchTree(p, grid)
            tree.add_roots(p.initial_state + 0.1 * np.arange(roots)[:, None])
            rng = np.random.default_rng(21)
            grow(tree, coeffs, ForwardConfig(target_width=16, eps_rrt=0.5, eps_opt=0.6), rng)
            grow(tree, coeffs, ForwardConfig(target_width=40), rng)
            trees.append(tree)
            rng_states.append(rng.bit_generator.state)
        fast, slow = trees
        assert fast.layer_sizes == [roots] + [40] * 8
        assert same_tree(fast, slow)
        assert rng_states[0] == rng_states[1]

        # regrow pruned trees of unequal widths whose widest layers are
        # already full: their turns in the schedule must draw nothing
        trees, rng_states = [], []
        for tree, grow in ((fast, forward_expand), (slow, grow_node_by_node)):
            tree = tree.prune([None] + [tree.layer(i).states[:, 0] for i in range(1, grid.steps + 1)], 0.3)
            M = max(tree.layer_sizes[1:])
            assert min(tree.layer_sizes[1:]) < M
            rng = np.random.default_rng(22)
            grow(tree, coeffs, ForwardConfig(target_width=M, eps_rrt=0.5, eps_opt=0.6), rng)
            trees.append(tree)
            rng_states.append(rng.bit_generator.state)
        assert trees[0].layer_sizes == [roots] + [M] * 8
        assert same_tree(*trees)
        assert rng_states[0] == rng_states[1]


def test_forward_expand_grows_from_any_bit_generator():
    # the draws are plain Generator calls, so an MT19937 stream drives the
    # batched pass and the per-node helpers alike
    p = make_double_integrator_l1()
    grid = TimeGrid.from_horizon(p.horizon, 6)
    coeffs = quadratic_value(p, grid.steps)
    trees, after = [], []
    for grow in (forward_expand, grow_node_by_node):
        tree = BranchTree(p, grid)
        tree.add_root()
        rng = np.random.Generator(np.random.MT19937(0))
        trees.append(grow(tree, coeffs, ForwardConfig(target_width=24, eps_rrt=0.5, eps_opt=0.6), rng))
        after.append(rng.random(4))
    assert trees[0].layer_sizes == [1] + [24] * 6
    assert same_tree(*trees)
    assert np.array_equal(*after)


@pytest.mark.parametrize("with_coeffs, eps_opt", [(False, 1.0), (True, 1.0), (True, 0.0)])
def test_forward_expand_rejects_nonfinite_drift(with_coeffs, eps_opt):
    # the batch check holds whether the first draw exploits or explores
    p = scalar_problem()
    p = dataclasses.replace(p, drift=lambda t, x, u: np.full(np.broadcast_shapes(np.shape(x), np.shape(u)), np.nan))
    grid = TimeGrid.from_horizon(p.horizon, 4)
    coeffs = quadratic_value(p, grid.steps) if with_coeffs else None
    tree = BranchTree(p, grid)
    tree.add_root()
    with pytest.raises(ValueError, match="drift must be finite"):
        forward_expand(tree, coeffs, ForwardConfig(target_width=4, eps_opt=eps_opt), np.random.default_rng(0))


def test_forward_expand_rejects_nonfinite_state():
    p = dataclasses.replace(scalar_problem(), sigma=np.array([[np.inf]]))
    tree = BranchTree(p, TimeGrid.from_horizon(p.horizon, 1))
    tree.add_root()
    with pytest.raises(ValueError, match="non-finite state in layer 1"):
        forward_expand(tree, None, ForwardConfig(target_width=4), np.random.default_rng(0))


def test_forward_expand_refuses_a_tree_without_roots():
    p = scalar_problem()
    tree = BranchTree(p, TimeGrid.from_horizon(p.horizon, 2))
    with pytest.raises(ValueError, match="^tree has no root layer$"):
        forward_expand(tree, None, ForwardConfig(target_width=4), np.random.default_rng(0))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(target_width=0), "target_width must be >= 1"),
        (dict(target_width=4, eps_rrt=1.5), "mixing probabilities must lie in [0, 1]"),
        (dict(target_width=4, eps_opt=-0.1), "mixing probabilities must lie in [0, 1]"),
        (dict(target_width=4, eps_rrt=float("nan")), "mixing probabilities must lie in [0, 1]"),
    ],
)
def test_forward_config_refusals(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ForwardConfig(**kwargs)


def step_chain_by_chain(problem, grid, coeffs, config, rng):
    """Reference for parallel_forward_baseline: each time step takes the
    same bulk draws, then steps every chain on its own: its control, the
    drift and running cost of that one (state, control) pair, and
    euler_maruyama_step."""
    M = config.target_width
    tree = BranchTree(problem, grid)
    pos = list(tree.add_roots(np.tile(problem.initial_state, (M, 1))))
    explore = np.asarray(problem.random_controls, dtype=float)
    for i in range(grid.steps):
        t = i * grid.dt
        pick = rng.integers(len(explore), size=M)
        exploit = np.zeros(M, dtype=bool)
        if coeffs is not None and config.eps_opt > 0:
            exploit = config.eps_opt > rng.uniform(size=M)
        W = rng.normal(size=(M, problem.state_dim)) * np.sqrt(grid.dt)
        for j in range(M):
            x = tree.layer_states(i)[pos[j]]
            if exploit[j]:
                u = policy_control(problem, t, x, coeffs.alpha(i + 1), coeffs.lower, coeffs.upper)
            else:
                u = explore[pick[j]]
            k = problem.drift(t, x, u)
            cost = float(problem.running_cost(t, x, u)) * grid.dt
            x_next = euler_maruyama_step(problem, grid.dt, t, x, k, W[j])
            pos[j] = tree.add_edge(i, pos[j], u, k, x_next, cost)
    return tree


@pytest.mark.parametrize("make_problem", GROWTH_PROBLEMS)
@pytest.mark.parametrize("with_coeffs", [False, True])
def test_baseline_matches_chain_by_chain_stepping(make_problem, with_coeffs):
    # the chains take the tree's sampling step: one batch per time step
    # steps every chain as it steps alone, a non-diagonal sigma included
    p = make_problem()
    grid = TimeGrid.from_horizon(p.horizon, 8)
    coeffs = quadratic_value(p, grid.steps) if with_coeffs else None
    config = ForwardConfig(target_width=24, eps_opt=0.6)
    trees, rng_states = [], []
    for run in (parallel_forward_baseline, step_chain_by_chain):
        rng = np.random.default_rng(23)
        trees.append(run(p, grid, coeffs, config, rng))
        rng_states.append(rng.bit_generator.state)
    assert trees[0].layer_sizes == [24] * 9
    assert same_tree(*trees)
    assert rng_states[0] == rng_states[1]


@pytest.mark.parametrize("with_coeffs", [False, True])
def test_baseline_rejects_nonfinite_drift(with_coeffs):
    # the chains reject a NaN drift, exploiting or not
    p = scalar_problem()
    p = dataclasses.replace(p, drift=lambda t, x, u: np.full(np.broadcast_shapes(np.shape(x), np.shape(u)), np.nan))
    grid = TimeGrid.from_horizon(p.horizon, 4)
    coeffs = quadratic_value(p, grid.steps) if with_coeffs else None
    with pytest.raises(ValueError, match="drift must be finite"):
        parallel_forward_baseline(p, grid, coeffs, ForwardConfig(target_width=8, eps_opt=0.5), np.random.default_rng(0))


def test_baseline_rejects_nonfinite_state():
    p = dataclasses.replace(scalar_problem(), sigma=np.array([[np.inf]]))
    grid = TimeGrid.from_horizon(p.horizon, 3)
    with pytest.raises(ValueError, match="non-finite state in layer 1"):
        parallel_forward_baseline(p, grid, None, ForwardConfig(target_width=8), np.random.default_rng(0))


def test_baseline_paths_disjoint():
    p = make_double_integrator_l1()
    grid = TimeGrid.from_horizon(p.horizon, 5)
    tree = parallel_forward_baseline(p, grid, None, ForwardConfig(target_width=64), np.random.default_rng(11))
    assert tree.layer_sizes == [64] * 6
    # every non-terminal node has exactly one child
    for i in range(1, 6):
        assert np.array_equal(np.bincount(tree.layer(i).parents, minlength=64), np.ones(64))


def test_baseline_zero_noise_matches_deterministic_rollout():
    # single exploration control makes the drift deterministic
    p = dataclasses.replace(scalar_problem(), random_controls=np.array([[1.0]]), sigma=np.zeros((1, 1)))
    grid = TimeGrid.from_horizon(p.horizon, 10)
    tree = parallel_forward_baseline(p, grid, None, ForwardConfig(target_width=16), np.random.default_rng(12))
    terminal = tree.layer_states(10)
    # dx = u dt with u = 1 from x0 = 0 reaches exactly 1.0
    assert np.allclose(terminal, 1.0)


def test_rrt_spreads_at_least_as_wide_as_baseline():
    p = scalar_problem(roi=(-8.0, 8.0), horizon=2.0)
    grid = TimeGrid.from_horizon(p.horizon, 10)
    wins = 0
    for seed in range(5):
        tree = BranchTree(p, grid)
        tree.add_root()
        forward_expand(tree, None, ForwardConfig(target_width=256, eps_rrt=1.0, eps_opt=0.0), np.random.default_rng(seed))
        rrt_std = np.std(tree.layer_states(10))
        base = parallel_forward_baseline(p, grid, None, ForwardConfig(target_width=256), np.random.default_rng(seed))
        base_std = np.std(base.layer_states(10))
        wins += rrt_std >= base_std
    assert wins == 5


def sampling_step_reference(problem, grid, i, X, pick, coeffs, noise):
    """`sampling_step` reading every row's drift and cost off a grid: the
    candidate grid for policy rows, the grid of every exploration control
    for exploring rows."""
    t = i * grid.dt
    controls, K, ells = np.empty((len(X), problem.control_dim)), np.empty(X.shape), np.empty(len(X))
    for rows in (np.flatnonzero(pick < 0), np.flatnonzero(pick >= 0)):
        if not len(rows):
            continue
        if pick[rows[0]] < 0:
            choice, cands, grid_ells, F = policy_grid(problem, t, X[rows], coeffs.alphas[i], coeffs.lower, coeffs.upper)
        else:
            cands, choice = np.asarray(problem.random_controls, dtype=float), pick[rows]
            grid_ells, F = _drifts_and_costs(problem, t, X[rows], cands)
        k = np.arange(len(rows))
        controls[rows], K[rows], ells[rows] = cands[choice], F[k, choice], grid_ells[k, choice]
    return controls, K, ells, X + K * grid.dt + problem.apply_diffusion(noise)


@pytest.mark.parametrize("name", list(policy_problems()) + ["correlated_lq"])
@pytest.mark.parametrize("explore", [0.0, 0.4, 1.0])
def test_sampling_step_rounds_like_the_grids(name, explore):
    # an exploring row's (state, control) pair rounds as its grid entry
    p = correlated_noise_lq_problem() if name == "correlated_lq" else policy_problems()[name]
    grid = TimeGrid.from_horizon(p.horizon, 6)
    rng = np.random.default_rng(9)
    X = rng.uniform(p.roi_lower - 0.5, p.roi_upper + 0.5, size=(70, p.state_dim))
    coeffs = ValueCoefficients(rng.normal(size=(6, feature_count(p.state_dim))), p.roi_lower, p.roi_upper)
    pick = rng.integers(len(p.random_controls), size=70)
    pick[explore <= rng.uniform(size=70)] = -1
    noise = rng.normal(size=X.shape) * np.sqrt(grid.dt)
    got = sampling_step(p, grid, 2, X, pick, coeffs, noise)
    want = sampling_step_reference(p, grid, 2, X, pick, coeffs, noise)
    assert all(same_bits(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("field, message", [("drift", "drift"), ("running_cost", "running cost")])
def test_sampling_step_refuses_a_nonfinite_policy_grid(field, message):
    # policy rows score every candidate: a NaN under u = +1 would send their
    # scores to the tie path of `_best_candidates`, which picks the wrong one
    p = nan_under_plus_one(scalar_problem(), field)
    grid = TimeGrid.from_horizon(p.horizon, 2)
    X = np.zeros((4, 1))
    with pytest.raises(ValueError, match=f"{message} must be finite"):
        sampling_step(p, grid, 0, X, np.full(4, -1), quadratic_value(p, grid.steps), np.zeros((4, 1)))


def test_sampling_step_checks_only_the_chosen_exploration_drifts():
    # a NaN drift under u = +1 stops only a step where an exploring row chose it
    base = scalar_problem()
    p = dataclasses.replace(base, drift=lambda t, x, u: base.drift(t, x, u) / (np.asarray(u)[..., :1] != 1.0))
    grid = TimeGrid.from_horizon(p.horizon, 2)
    X = np.zeros((4, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        *_, X_next = sampling_step(p, grid, 0, X, np.array([0, 1, 0, 1]), None, np.zeros((4, 1)))
        assert np.array_equal(X_next, [[-grid.dt], [0.0], [-grid.dt], [0.0]])
        with pytest.raises(ValueError, match="drift must be finite"):
            sampling_step(p, grid, 0, X, np.array([0, 2, 1, 0]), None, np.zeros((4, 1)))


def test_sampling_step_checks_the_chosen_exploration_costs():
    # a NaN running cost under u = +1, which only the exploration set holds,
    # stops only a step where an exploring row chose it
    p = nan_exploration_cost_problem()
    grid = TimeGrid.from_horizon(p.horizon, 2)
    X, noise, coeffs = np.zeros((4, 2)), np.zeros((4, 2)), quadratic_value(p, grid.steps)
    _, _, ells, _ = sampling_step(p, grid, 0, X, np.array([-1, 0, 1, -1]), coeffs, noise)
    assert np.isfinite(ells).all()
    with pytest.raises(ValueError, match="running cost must be finite"):
        sampling_step(p, grid, 0, X, np.array([-1, 0, 2, -1]), coeffs, noise)


@pytest.mark.parametrize("chains", [False, True])
def test_forward_passes_refuse_a_nonfinite_exploration_cost(chains):
    # before exploring rows' costs were checked, both passes grew every
    # layer with NaN run costs
    p = nan_exploration_cost_problem()
    grid = TimeGrid.from_horizon(p.horizon, 30)
    config, rng = ForwardConfig(target_width=64), np.random.default_rng(0)
    with pytest.raises(ValueError, match="running cost must be finite"):
        if chains:
            parallel_forward_baseline(p, grid, None, config, rng)
        else:
            tree = BranchTree(p, grid)
            tree.add_root()
            forward_expand(tree, None, config, rng)
