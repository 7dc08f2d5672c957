"""Acceptance gates for the solver library.

Each test is one release criterion with pinned tolerances:

1. Value recovery: a backward pass over a tree grown with arbitrary bang
   drifts recovers the known uncontrolled quadratic value function.
2. Drift invariance: initial-value estimates agree between a zero-drift
   baseline tree and a bang-drift tree within bootstrap noise.
3. LQ equivalence: the fitted coefficients track a Riccati recursion at
   every timestep and the fitted policy matches the oracle rollout cost.
4. Fast property suite for the weighting and regression primitives.
5. Convergence-per-runtime comparison against the parallel-chain baseline
   on the double integrator (half the particle budget).
6. Pendulum swing-up quality gates.
7. Byte-identical reports per seed.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from fbrrt.backward import (
    _layer_edge_arrays,
    _Targets,
    backward_pass,
    softmin_weights,
)
from fbrrt.basis import (
    FeatureBox,
    feature_count,
    features,
    value_grad,
    weighted_least_squares,
)
from fbrrt.forward import ForwardConfig, forward_expand, parallel_forward_baseline
from fbrrt.problem import (
    TimeGrid,
    make_lq_problem,
    make_pendulum_l1,
    make_uncontrolled_heat,
)
from fbrrt.solver import (
    SolverConfig,
    analytic_heat_value,
    comparison_report,
    fbrrt_solve,
    riccati_oracle,
    rollout_policy,
)
from fbrrt.tree import BranchTree

HEAT_GRID = TimeGrid.from_horizon(1.0, 20)
# effectively uniform weights; the uncontrolled problem has no running cost
# to rank paths by, so weighting must not concentrate on near-zero states
FLAT_LAM = 1e6


def grow_bang_tree(seed: int) -> BranchTree:
    """Width-512 tree whose sampling drifts are random bang controls."""
    problem = make_uncontrolled_heat()
    tree = BranchTree(problem, HEAT_GRID)
    tree.add_root()
    forward_expand(
        tree,
        None,
        ForwardConfig(target_width=512, eps_rrt=1.0, eps_opt=0.0),
        np.random.default_rng(seed),
    )
    return tree


def grow_zero_drift_tree(seed: int) -> BranchTree:
    """512 independent chains with the drift pinned to zero."""
    problem = dataclasses.replace(
        make_uncontrolled_heat(), random_controls=np.array([[0.0]])
    )
    return parallel_forward_baseline(
        problem,
        HEAT_GRID,
        None,
        ForwardConfig(target_width=512),
        np.random.default_rng(seed),
    )


def refit_initial_value(tree: BranchTree, rng=None) -> float:
    """V(0, x0) from an uniform-weight backward refit of the whole tree.

    With `rng` supplied, every layer's edges are resampled with replacement
    before its fit, so repeated calls bootstrap the full regression pipeline
    (coefficient noise included) rather than only the final averaging.
    """
    problem, N = tree.problem, tree.grid.steps
    lo, hi = problem.roi_lower, problem.roi_upper
    box = FeatureBox(lo, hi)
    targets = _Targets(problem, tree.grid.dt, box)
    ridge = 0.0
    X_N = tree.layer_states(N)
    idx = rng.integers(len(X_N), size=len(X_N)) if rng is not None else slice(None)
    phi = features(X_N[idx], lo, hi)
    alpha = weighted_least_squares(
        phi, problem.terminal_cost(X_N[idx]), np.ones(phi.shape[0]), ridge
    )
    for i in range(N - 1, -1, -1):
        X, parents, _ = _layer_edge_arrays(tree, i + 1)
        idx = rng.integers(len(parents), size=len(parents)) if rng is not None else slice(None)
        X_prev = X[parents[idx]]
        y_hat = targets(i, X_prev, box.feature_rows(X_prev)[1 : 1 + box.n], alpha[None])[0]
        if i == 0:
            return float(np.mean(y_hat))
        phi = features(X_prev, lo, hi)
        alpha = weighted_least_squares(phi, y_hat, np.ones(phi.shape[0]), ridge)
    raise AssertionError("unreachable")


def test_uncontrolled_value_recovery_from_drifted_tree():
    # dX = K dt + dW with bang sampling drifts, no running cost, g(x) = x^2:
    # the compensated backward pass must recover V(t, x) = x^2 + (T - t),
    # despite never sampling the zero-drift target dynamics.
    t_start = time.perf_counter()
    problem = make_uncontrolled_heat()
    oracle = analytic_heat_value(
        np.array([[1.0]]),
        0.0,
        problem.sigma,
        HEAT_GRID,
        problem.roi_lower,
        problem.roi_upper,
    )
    quads, consts = [], []
    for seed in range(5):
        alpha_1 = backward_pass(grow_bang_tree(seed), lam=FLAT_LAM).coefficients.alpha(1)
        consts.append(alpha_1[0])
        quads.append(alpha_1[2])
    target = oracle.alpha(1)
    quad_rel = abs(np.median(quads) - target[2]) / abs(target[2])
    const_rel = abs(np.median(consts) - target[0]) / abs(target[0])
    assert quad_rel < 0.10 and const_rel < 0.10
    assert time.perf_counter() - t_start < 30.0


def test_initial_value_invariant_to_sampling_drift():
    # The compensated estimator is unbiased under a change of sampling
    # drift, so two trees grown with very different exploration schemes must
    # agree on V(0, x0) within bootstrap noise.  The bootstrap resamples
    # edges per layer and refits every coefficient (500 resamples per tree)
    # because the per-edge targets share fitted coefficients and a plain
    # resample of the final averages would understate the variance.
    bang_tree = grow_bang_tree(2)
    zero_tree = grow_zero_drift_tree(102)
    v_bang = refit_initial_value(bang_tree)
    v_zero = refit_initial_value(zero_tree)
    rng_a = np.random.default_rng(2)
    rng_b = np.random.default_rng(3)
    se_bang = np.std([refit_initial_value(bang_tree, rng_a) for _ in range(500)])
    se_zero = np.std([refit_initial_value(zero_tree, rng_b) for _ in range(500)])
    pooled = float(np.sqrt(se_bang**2 + se_zero**2))
    assert abs(v_bang - v_zero) < 3.0 * pooled


def test_lq_matches_riccati_recursion():
    t_start = time.perf_counter()
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    Qr, R, Qf = 0.1 * np.eye(2), np.eye(1), np.eye(2)
    sigma = 0.3 * np.eye(2)
    lower, upper = np.array([-1.2, -1.0]), np.array([1.2, 1.0])
    horizon, steps = 1.5, 30
    problem = make_lq_problem(
        A, B, Qr, R, Qf,
        noise=sigma,
        horizon=horizon,
        initial_state=(0.0, 0.0),
        roi_lower=lower,
        roi_upper=upper,
    )
    grid = TimeGrid.from_horizon(horizon, steps)
    report = fbrrt_solve(
        SolverConfig(problem="lq", steps=steps, M=512, iterations=5, lam=1e9, seed=11),
        problem=problem,
    )
    oracle = riccati_oracle(A, B, Qr, R, Qf, sigma, grid).to_coefficients(lower, upper)
    coeff_errors = np.array(
        [
            np.linalg.norm(report.coefficients.alpha(i) - oracle.alpha(i))
            / np.linalg.norm(oracle.alpha(i))
            for i in range(1, steps + 1)
        ]
    )
    fitted_roll = rollout_policy(
        problem, grid, report.coefficients, problem.initial_state, 512, np.random.default_rng(12345)
    )
    oracle_roll = rollout_policy(
        problem, grid, oracle, problem.initial_state, 512, np.random.default_rng(12345)
    )
    cost_rel = abs(fitted_roll.mean_cost - oracle_roll.mean_cost) / oracle_roll.mean_cost
    assert coeff_errors.max() < 0.15 and cost_rel < 0.15
    assert time.perf_counter() - t_start < 120.0


def test_weighting_and_regression_property_suite():
    t_start = time.perf_counter()
    rng = np.random.default_rng(77)

    # softmin weights: unit mean, shift invariance
    for _ in range(50):
        rho = rng.normal(size=rng.integers(2, 200))
        lam = float(np.exp(rng.uniform(-3, 3)))
        theta = softmin_weights(rho, lam)
        assert abs(theta.mean() - 1.0) < 1e-10
        shifted = softmin_weights(rho + rng.normal(), lam)
        assert np.max(np.abs(theta - shifted)) < 1e-10

    # weighted least squares: scaling all weights leaves the fit unchanged
    # (ridge 0 so the objective scale cancels exactly)
    for _ in range(20):
        phi = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        w = rng.uniform(0.1, 2.0, size=40)
        a1 = weighted_least_squares(phi, y, w, ridge=0.0)
        a2 = weighted_least_squares(phi, y, 7.5 * w, ridge=0.0)
        assert np.max(np.abs(a1 - a2)) < 1e-8

    # feature and value gradients against central differences
    lower, upper = np.array([-2.0, -1.0, 0.5]), np.array([1.0, 3.0, 4.0])
    h = 1e-6
    for _ in range(20):
        x = rng.uniform(lower, upper)
        alpha = rng.normal(size=feature_count(3))
        num_feat = np.empty((feature_count(3), 3))
        num_val = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            num_feat[:, k] = (features(x + e, lower, upper) - features(x - e, lower, upper)) / (2 * h)
            num_val[k] = (
                features(x + e, lower, upper) @ alpha - features(x - e, lower, upper) @ alpha
            ) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(num_feat))))
        jacobian = value_grad(x, np.eye(feature_count(3)), lower, upper)
        assert np.max(np.abs(jacobian - num_feat)) / scale < 1e-5
        vscale = max(1.0, float(np.max(np.abs(num_val))))
        assert np.max(np.abs(value_grad(x, alpha, lower, upper) - num_val)) / vscale < 1e-5

    # run-cost telescoping on a grown tree
    tree = grow_bang_tree(5)
    dt = tree.grid.dt
    for i in (1, 7, 20):
        for node in [tree.nodes[k] for k in tree.layers[i]]:
            parent = tree.nodes[node.parent]
            step = float(
                tree.problem.running_cost((i - 1) * dt, parent.state, node.control)
            ) * dt
            assert abs(node.run_cost - (parent.run_cost + step)) < 1e-10

    # nearest neighbour equals the brute-force scan
    for _ in range(100):
        layer = rng.integers(1, tree.grid.steps + 1)
        query = rng.uniform(-4.0, 4.0, size=1)
        weights = rng.uniform(0.1, 2.0, size=1)
        found = tree.layers[layer][tree.nearest(layer, query[None], [tree.layer_size(layer)], weights)[0]]
        states = tree.layer_states(layer)
        dists = ((states - query) ** 2) @ weights
        assert found == tree.layers[layer][int(np.argmin(dists))]

    assert time.perf_counter() - t_start < 10.0


def test_double_integrator_outperforms_parallel_baseline():
    # Branch sampling with half the particle budget should reach an equal or
    # better accumulated-min rollout cost than independent chains at the
    # final shared-runtime bucket for most initial states.
    t_start = time.perf_counter()
    base_problem = SolverConfig(problem="double_integrator").build_problem()
    states = base_problem.sample_roi(np.random.default_rng(2024), size=10)
    runs_tree, runs_chains = {}, {}
    for s_idx, x0 in enumerate(states):
        overrides = {"initial_state": tuple(float(v) for v in x0)}
        runs_tree[s_idx] = [
            fbrrt_solve(
                SolverConfig(
                    problem="double_integrator",
                    problem_overrides=overrides,
                    M=256,
                    iterations=10,
                    seed=trial,
                    mode="fbrrt",
                )
            )
            for trial in range(5)
        ]
        runs_chains[s_idx] = [
            fbrrt_solve(
                SolverConfig(
                    problem="double_integrator",
                    problem_overrides=overrides,
                    M=512,
                    iterations=10,
                    seed=trial,
                    mode="parallel-baseline",
                )
            )
            for trial in range(5)
        ]
    medians = comparison_report(runs_tree, runs_chains).final_bucket_medians()
    wins = sum(1 for s in medians if medians[s]["fbrrt"] <= medians[s]["baseline"])
    assert wins >= 7
    assert time.perf_counter() - t_start < 900.0


def test_pendulum_swing_up_gates():
    # Gate A: the policy after one iteration already completes a swing
    # (mean |angle(T)| < 1 rad).  Gate B: the best policy over ten
    # iterations cuts the mean rollout terminal cost to <= 30% of the
    # iteration-1 policy's.
    t_start = time.perf_counter()
    problem = make_pendulum_l1()
    grid = TimeGrid.from_horizon(problem.horizon, 60)

    def terminal_cost_after(iterations: int) -> tuple[float, np.ndarray]:
        report = fbrrt_solve(SolverConfig(problem="pendulum", iterations=iterations, seed=0))
        roll = rollout_policy(
            problem,
            grid,
            report.coefficients,
            problem.initial_state,
            256,
            np.random.default_rng([0, iterations, 99]),
        )
        return float(np.mean(problem.terminal_cost(roll.terminal_states))), roll.terminal_states

    first_cost, first_terminals = terminal_cost_after(1)
    best_cost = min(terminal_cost_after(k)[0] for k in range(2, 11))
    best_cost = min(best_cost, first_cost)
    mean_abs_angle = float(np.mean(np.abs(first_terminals[:, 0])))
    assert time.perf_counter() - t_start < 300.0
    assert mean_abs_angle < 1.0 and best_cost <= 0.30 * first_cost


def test_reports_are_byte_identical_per_seed():
    for mode in ("fbrrt", "parallel-baseline"):
        cfg = dict(
            problem="double_integrator", M=64, iterations=2, rollout_count=64, seed=9, mode=mode
        )
        first = fbrrt_solve(SolverConfig(**cfg)).to_json().encode()
        second = fbrrt_solve(SolverConfig(**cfg)).to_json().encode()
        assert first == second
