import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbrrt.backward import (
    BackwardArtifacts,
    BackwardPassError,
    _candidate_scores,
    _distinct_parents,
    _drifts_and_costs,
    _layer_edge_arrays,
    _matvecs,
    _own_rows,
    _policy_scores,
    _Targets,
    backward_pass,
    default_lambda_grid,
    lambda_search,
    path_heuristic,
    rollout_policies,
    softmin_weights,
)
from fbrrt.basis import (
    FeatureBox,
    ValueCoefficients,
    feature_count,
    features,
    noise_feature_shift,
    quadratic_to_coefficients,
    value_grad,
    weighted_least_squares,
)
from fbrrt.forward import ForwardConfig, forward_expand, parallel_forward_baseline
from fbrrt.problem import TimeGrid, make_double_integrator_l1, make_lq_problem, make_uncontrolled_heat
from fbrrt.solver import rollout_policy
from fbrrt.tree import BranchTree
import fbrrt.backward

from conftest import (
    add_edge,
    best_candidates,
    nan_under_plus_one,
    policy_grid,
    policy_problems,
    same_bits,
    scalar_problem,
)


# ---------------------------------------------------------------------------
# target policy


def policy_controls(problem, t, X, alpha_next, lower, upper):
    """The target policy's control at every state of X (B, n)."""
    choice, cands, _, _ = policy_grid(problem, t, X, alpha_next, lower, upper)
    return cands[choice]


def target_policy(problem, t, x, alpha_next, lower, upper):
    """The target policy at one state."""
    return policy_controls(problem, t, np.asarray(x, dtype=float)[None, :], alpha_next, lower, upper)[0]


def constant_alpha(n, c=1.0):
    alpha = np.zeros(feature_count(n))
    alpha[0] = c
    return alpha


def test_policy_zero_gradient_picks_cheapest_control():
    p = make_double_integrator_l1()
    u = target_policy(p, 0.0, p.initial_state, constant_alpha(2), p.roi_lower, p.roi_upper)
    assert u[0] == 0.0


def test_policy_hand_scored_bang():
    # fuel weight 0.5, dV/dvelocity = 2: candidate scores 0.5-2, 0, 0.5+2
    p = make_double_integrator_l1(fuel_weight=0.5, roi_lower=(-4.0, -3.0), roi_upper=(4.0, 3.0))
    alpha = np.zeros(feature_count(2))
    alpha[2] = 6.0  # linear velocity term; chain factor 2/width = 1/3
    x = np.array([0.0, 0.0])
    grad = value_grad(x, alpha, p.roi_lower, p.roi_upper)
    assert grad[1] == pytest.approx(2.0)
    u = target_policy(p, 0.0, x, alpha, p.roi_lower, p.roi_upper)
    assert u[0] == -1.0


def test_policy_matches_brute_force_scan():
    p = make_double_integrator_l1()
    rng = np.random.default_rng(0)
    cands = np.asarray(p.control_candidates)
    for _ in range(200):
        x = p.sample_roi(rng)
        alpha = rng.normal(size=feature_count(2))
        u = target_policy(p, 0.0, x, alpha, p.roi_lower, p.roi_upper)
        grad = value_grad(x, alpha, p.roi_lower, p.roi_upper)
        scores = np.array([p.running_cost(0.0, x, c) + p.drift(0.0, x, c) @ grad for c in cands])
        ells = np.array([p.running_cost(0.0, x, c) for c in cands])
        tied = np.isclose(scores, scores.min())
        best = np.flatnonzero(tied & np.isclose(ells, ells[tied].min()))[0]
        assert np.array_equal(u, cands[best])


def test_policy_batch_matches_scalar():
    p = make_double_integrator_l1()
    rng = np.random.default_rng(1)
    X = p.sample_roi(rng, size=32)
    alpha = rng.normal(size=feature_count(2))
    batch = policy_controls(p, 0.5, X, alpha, p.roi_lower, p.roi_upper)
    rows = np.array([target_policy(p, 0.5, x, alpha, p.roi_lower, p.roi_upper) for x in X])
    assert np.array_equal(batch, rows)


def test_policy_scale_invariant_without_running_cost():
    p = scalar_problem(fuel_weight=0.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = p.sample_roi(rng)[None]
        alpha = rng.normal(size=3)
        u1 = policy_controls(p, 0.0, x, alpha, p.roi_lower, p.roi_upper)
        u2 = policy_controls(p, 0.0, x, 7.5 * alpha, p.roi_lower, p.roi_upper)
        assert np.array_equal(u1, u2)


def pairwise_scores(problem, t, X, alpha, lower, upper):
    """Reference for the policy grid (`policy_grid`): each (state, control) pair
    evaluated alone, gradient terms summed by np.sum; ties go to the lowest
    running cost, then the lowest candidate index."""
    cands = np.asarray(problem.control_candidates)
    ells = np.array([[problem.running_cost(t, x, u) for u in cands] for x in X], dtype=float)
    F = np.array([[problem.drift(t, x, u) for u in cands] for x in X], dtype=float)
    grad = value_grad(X, alpha, lower, upper)
    scores = ells + np.sum(F * grad[:, None, :], axis=2)
    choice = []
    for s, e in zip(scores, ells):
        tied = np.flatnonzero(s == s.min())
        choice.append(tied[np.argmin(e[tied])])
    return np.array(choice), ells, F


def random_alphas(problem, rng):
    """Random coefficients, plus a constant one whose zero gradient ties scores."""
    p = feature_count(problem.state_dim)
    return [rng.normal(size=p), 0.1 * rng.normal(size=p), constant_alpha(problem.state_dim)]


@pytest.mark.parametrize("name", list(policy_problems()))
def test_candidate_scores_match_pairwise_evaluation(name):
    p = policy_problems()[name]
    rng = np.random.default_rng(5)
    X = rng.uniform(p.roi_lower - 0.5, p.roi_upper + 0.5, size=(40, p.state_dim))
    for alpha in random_alphas(p, rng):
        choice, _, ells, F = policy_grid(p, 0.3, X, alpha, p.roi_lower, p.roi_upper)
        ref_choice, ref_ells, ref_F = pairwise_scores(p, 0.3, X, alpha, p.roi_lower, p.roi_upper)
        assert np.array_equal(ells, ref_ells)
        assert np.array_equal(F, ref_F)
        assert np.array_equal(choice, ref_choice)


@pytest.mark.parametrize("name", list(policy_problems()))
@pytest.mark.parametrize("L", [None, 3])
def test_candidate_scores_gather_the_chosen_grid_entries(name, L):
    # the kernel's running costs and drifts are the grid's entries at each
    # row's choice, for one gradient per state (B) and for a stack (L, B)
    p = policy_problems()[name]
    rng = np.random.default_rng(8)
    X = rng.uniform(p.roi_lower - 0.5, p.roi_upper + 0.5, size=(40, p.state_dim))
    grad = rng.normal(size=(40, p.state_dim) if L is None else (L, 40, p.state_dim))
    choice, cands, ells, F = _candidate_scores(p, 0.3, X, p.control_candidates, grad)
    grid_ells, grid_F = _drifts_and_costs(p, 0.3, X, p.control_candidates)
    k = np.arange(len(X))
    assert same_bits(choice, best_candidates(grid_ells, grid_F, grad))
    assert cands is p.control_candidates
    assert same_bits(ells, grid_ells[k, choice])
    assert same_bits(F, grid_F[k, choice])


def test_candidate_scores_refuse_a_nonfinite_drift_first():
    p = make_double_integrator_l1()
    X, grad = np.zeros((3, 2)), np.ones((3, 2))
    both = nan_under_plus_one(nan_under_plus_one(p, "drift"), "running_cost")
    with pytest.raises(ValueError, match="^drift must be finite$"):
        _candidate_scores(both, 0.0, X, both.control_candidates, grad)
    cost = nan_under_plus_one(p, "running_cost")
    with pytest.raises(ValueError, match="^running cost must be finite$"):
        _candidate_scores(cost, 0.0, X, cost.control_candidates, grad)


def test_candidate_scores_check_the_grid_wherever_a_score_is_not_finite():
    # an infinite drift under a zero gradient scores inf * 0 = NaN, and is
    # refused; scores that overflow on a finite grid pass, as the grid does
    p = make_double_integrator_l1()
    X = np.array([[0.0, 1e308], [1.0, 2.0]])
    grad = np.array([[1e308, 1e308], [1.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^drift must be finite$"):
            _candidate_scores(p, 0.0, X * [1.0, np.inf], p.control_candidates, np.zeros((2, 2)))
        choice, _, _, _ = _candidate_scores(p, 0.0, X, p.control_candidates, grad)
        ells, F = _drifts_and_costs(p, 0.0, X, p.control_candidates)
        assert not np.isfinite(_policy_scores(ells, F, grad)).all()
        assert same_bits(choice, best_candidates(ells, F, grad))


@pytest.mark.parametrize("name", list(policy_problems()))
def test_stacked_best_candidates_match_one_gradient_at_a_time(name):
    # an (L, B, n) gradient stack on the shared grid picks, row for row,
    # what each gradient picks alone, ties included
    p = policy_problems()[name]
    rng = np.random.default_rng(7)
    X = rng.uniform(p.roi_lower - 0.5, p.roi_upper + 0.5, size=(40, p.state_dim))
    ells, F = _drifts_and_costs(p, 0.3, X, np.asarray(p.control_candidates))
    grads = np.array([value_grad(X, alpha, p.roi_lower, p.roi_upper) for alpha in random_alphas(p, rng)])
    stacked = best_candidates(ells, F, grads)
    assert stacked.shape == (len(grads), len(X))
    assert np.array_equal(stacked, np.array([best_candidates(ells, F, grad) for grad in grads]))


def best_candidates_reference(ells, F, grad):
    """`_best_candidates` as it was before its no-tie shortcut: a per-row
    minimum, then the smallest running cost among the tied candidates."""
    dot = F[..., 0] * grad[..., None, 0]
    for k in range(1, F.shape[2]):
        dot += F[..., k] * grad[..., None, k]
    scores = ells + dot
    best = scores.min(axis=-1, keepdims=True)
    return np.argmin(np.where(scores == best, ells, np.inf), axis=-1)


def best_candidate_grids(seed, B=60, C=5, n=2, L=3):
    """(ells, F, grad) grids: float values without ties, small integers
    that tie scores and running costs, and rows holding NaN, +inf and
    -inf, each with a (B, n) and an (L, B, n) gradient."""
    rng = np.random.default_rng(seed)
    floats = (rng.normal(size=(B, C)), rng.normal(size=(B, C, n)))
    ints = (rng.integers(0, 3, size=(B, C)).astype(float), rng.integers(-1, 2, size=(B, C, n)).astype(float))
    special = tuple(a.copy() for a in ints)
    special[0][0] = np.nan  # a NaN row
    special[1][1, 2, 0] = np.nan  # one NaN score
    special[0][2] = np.inf  # every score +inf
    special[0][3, 1] = np.inf  # one +inf score
    special[0][4, :2] = -np.inf  # two -inf scores tie
    special[0][5, 3] = -np.inf  # one -inf score
    special[1][6, 0, 1] = np.inf  # +inf drift: +inf or -inf or NaN after the gradient
    for ells, F in (floats, ints, special):
        for shape in ((B, n), (L, B, n)):
            yield ells, F, rng.integers(-2, 3, size=shape).astype(float)
            yield ells, F, rng.normal(size=shape)
    # a NaN row next to a row whose tie adds the one match the NaN row lacks
    ells, F = (a.copy() for a in floats)
    grad = rng.normal(size=(B, n))
    ells[0, 2] = np.nan
    ells[1], F[1], grad[1] = 5.0, 0.0, (1.0, 0.0)
    ells[1, 1], ells[1, 3], F[1, 3, 0] = 1.0, 0.0, 1.0  # scores 1 + 0 and 0 + 1
    yield ells, F, grad
    # one candidate: index 0 whatever the score
    yield special[0][:, :1], special[1][:, :1], rng.normal(size=(L, B, n))


@pytest.mark.parametrize("seed", range(4))
def test_best_candidates_match_the_reference(seed):
    for ells, F, grad in best_candidate_grids(seed):
        with np.errstate(invalid="ignore"):
            got, ref = best_candidates(ells, F, grad), best_candidates_reference(ells, F, grad)
        assert got.shape == grad.shape[:-1]
        assert np.array_equal(got, ref)


def drifts_and_costs_reference(problem, t, X, controls):
    """`_drifts_and_costs` broadcasting both grids whatever their shape."""
    Xg, Ug = X[:, None, :], controls[None, :, :]
    shape = (X.shape[0], len(controls))
    return np.broadcast_to(problem.running_cost(t, Xg, Ug), shape), np.broadcast_to(
        problem.drift(t, Xg, Ug), shape + (X.shape[1],)
    )


@pytest.mark.parametrize("name", list(policy_problems()))
def test_drifts_and_costs_round_like_broadcast_grids(name):
    p = policy_problems()[name]
    X = p.sample_roi(np.random.default_rng(3), size=33)
    for controls in (p.control_candidates, p.random_controls):
        controls = np.asarray(controls, dtype=float)
        for got, want in zip(_drifts_and_costs(p, 0.3, X, controls), drifts_and_costs_reference(p, 0.3, X, controls)):
            assert same_bits(got, want)


def best_candidates_gather_reference(ells, F, grad):
    """`_best_candidates` with each row's best taken by take_along_axis."""
    dot = F[..., 0] * grad[..., None, 0]
    for k in range(1, F.shape[2]):
        dot += F[..., k] * grad[..., None, k]
    scores = ells + dot
    first = scores.argmin(axis=-1)
    best = np.take_along_axis(scores, first[..., None], axis=-1)
    if not np.isnan(best).any() and np.count_nonzero(scores == best) == first.size:
        return first
    return np.argmin(np.where(scores == best, ells, np.inf), axis=-1)


@settings(deadline=None, max_examples=80)
@given(
    B=st.integers(1, 40),
    C=st.integers(1, 6),
    n=st.integers(1, 4),
    L=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**16),
    nan_rows=st.integers(0, 3),
)
def test_best_candidates_round_like_take_along_axis(B, C, n, L, seed, nan_rows):
    # small integers tie scores and running costs; NaN rows stop argmin
    rng = np.random.default_rng(seed)
    ells = rng.integers(0, 3, size=(B, C)).astype(float)
    F = rng.integers(-1, 2, size=(B, C, n)).astype(float)
    ells[rng.integers(B, size=nan_rows), rng.integers(C, size=nan_rows)] = np.nan
    grad = rng.integers(-2, 3, size=(B, n) if L is None else (L, B, n)).astype(float)
    got = best_candidates(ells, F, grad)
    assert same_bits(got, best_candidates_gather_reference(ells, F, grad))
    assert np.array_equal(got, best_candidates_reference(ells, F, grad))


# ---------------------------------------------------------------------------
# regression targets


def edge_targets(problem, dt, i, X_prev, X_next, alpha_next, lower, upper):
    """`_Targets` of the edges from the parent states X_prev under one
    coefficient vector, and the values at the child states X_next."""
    box, alpha = FeatureBox(lower, upper), np.asarray(alpha_next, dtype=float)
    y_hat = _Targets(problem, dt, box)(i, X_prev, box.feature_rows(X_prev)[1 : 1 + box.n], alpha[None])[0]
    return y_hat, box.features(X_next) @ alpha


def bsde_target(problem, dt, i, x_i, k_i, x_next, alpha_next, lower, upper):
    """Regression target of one edge whose sampled drift was k_i, which the
    target does not read; returns (y_hat_i, y_next)."""
    X_prev, X_next = (np.asarray(v, dtype=float)[None, :] for v in (x_i, x_next))
    y_hat, y_next = edge_targets(problem, dt, i, X_prev, X_next, alpha_next, lower, upper)
    return float(y_hat[0]), float(y_next[0])


def test_bsde_target_on_policy_edge():
    # the target is the mean over the edge's noise of the value at the
    # state the policy's drift reaches: neither the sampled drift nor the
    # child state enters it
    p = make_double_integrator_l1()
    rng = np.random.default_rng(3)
    dt, box = 0.1, (p.roi_lower, p.roi_upper)
    shift = noise_feature_shift(p.sigma @ p.sigma.T * dt, *box)
    for _ in range(20):
        x = p.sample_roi(rng)
        alpha = rng.normal(size=feature_count(2))
        mu = target_policy(p, 3 * dt, x, alpha, *box)
        k = p.drift(3 * dt, x, mu)
        ell = float(p.running_cost(3 * dt, x, mu))
        want = features(x + k * dt, *box) @ alpha + shift @ alpha + ell * dt
        for k_i, x_next in ((k, x + k * dt + p.sigma @ rng.normal(size=2)), (-k, p.sample_roi(rng))):
            y_hat, y_next = bsde_target(p, dt, 3, x, k_i, x_next, alpha, *box)
            assert y_hat == pytest.approx(want, abs=1e-12)
            assert y_next == pytest.approx(features(x_next, *box) @ alpha, abs=1e-12)


def test_bsde_target_constant_value_zero_cost():
    p = make_uncontrolled_heat()
    alpha = constant_alpha(1, c=4.0)
    y_hat, y_next = bsde_target(
        p, 0.05, 2, np.array([0.3]), np.array([1.0]), np.array([0.5]), alpha, p.roi_lower, p.roi_upper
    )
    assert y_next == pytest.approx(4.0)
    assert y_hat == pytest.approx(4.0)  # the noise does not move a constant


def test_bsde_target_correction_arithmetic():
    # V = x^2 under sigma = 2 and the zero policy: the target at x = 0.5 is
    # E[(0.5 + 2 w)^2] = 0.25 + 4 dt = 0.65 at dt = 0.1, whatever drift was
    # sampled and wherever the child landed
    p = make_uncontrolled_heat(noise=2.0)
    alpha = quadratic_to_coefficients(np.eye(1), np.zeros(1), 0.0, p.roi_lower, p.roi_upper)
    y_hat, y_next = bsde_target(
        p, 0.1, 0, np.array([0.5]), np.array([-0.4]), np.array([1.0]), alpha, p.roi_lower, p.roi_upper
    )
    assert y_next == pytest.approx(1.0)
    assert y_hat == pytest.approx(0.65)


def edge_targets_reference(problem, dt, i, X_prev, K, X_next, alpha_next, lower, upper):
    """Reference for `_Targets`: picks mu with the target policy,
    evaluates the drift and running cost again at mu, and adds to the value
    at the mean next state x + f(mu) dt the noise's shift of the feature
    means; K does not enter."""
    t = i * dt
    y_next = features(X_next, lower, upper) @ alpha_next
    mu = policy_controls(problem, t, X_prev, alpha_next, lower, upper)
    f_mu = problem.drift(t, X_prev, mu)
    ell_mu = problem.running_cost(t, X_prev, mu)
    shift = noise_feature_shift(problem.sigma @ problem.sigma.T * dt, lower, upper)
    y_mean = features(X_prev + f_mu * dt, lower, upper) @ alpha_next + shift @ alpha_next
    return y_mean + ell_mu * dt, y_next


@pytest.mark.parametrize("name", list(policy_problems()))
def test_edge_targets_match_reference(name):
    p = policy_problems()[name]
    rng = np.random.default_rng(6)
    X_prev = p.sample_roi(rng, size=50)
    K = p.drift(0.0, X_prev, np.asarray(p.random_controls)[rng.integers(len(p.random_controls), size=50)])
    X_next = p.sample_roi(rng, size=50)
    for alpha in random_alphas(p, rng):
        got = edge_targets(p, 0.05, 3, X_prev, X_next, alpha, p.roi_lower, p.roi_upper)
        want = edge_targets_reference(p, 0.05, 3, X_prev, K, X_next, alpha, p.roi_lower, p.roi_upper)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("name", list(policy_problems()))
def test_stacked_edge_targets_match_one_alpha_at_a_time(name):
    # one pass over an (L, p) stack of coefficients gives, row for row, the
    # targets of each coefficient vector alone
    p = policy_problems()[name]
    rng = np.random.default_rng(8)
    X_prev = p.sample_roi(rng, size=50)
    K = p.drift(0.0, X_prev, np.asarray(p.random_controls)[rng.integers(len(p.random_controls), size=50)])
    X_next = p.sample_roi(rng, size=50)
    box = FeatureBox(p.roi_lower, p.roi_upper)
    alphas = np.array(random_alphas(p, rng) + random_alphas(p, rng))
    y_hat = _Targets(p, 0.05, box)(3, X_prev, box.feature_rows(X_prev)[1 : 1 + box.n], alphas)
    y_next = _matvecs(features(X_next, p.roi_lower, p.roi_upper), alphas)
    assert y_hat.shape == y_next.shape == (len(alphas), 50)
    for alpha, got_hat, got_next in zip(alphas, y_hat, y_next):
        want_hat, want_next = edge_targets_reference(p, 0.05, 3, X_prev, K, X_next, alpha, p.roi_lower, p.roi_upper)
        assert np.array_equal(got_hat, want_hat) and np.array_equal(got_next, want_next)


@pytest.mark.parametrize("name", list(policy_problems()))
def test_targets_on_distinct_parents_match_every_edge(name):
    # the edges of a grown tree share parents (at the root, all of them):
    # scoring each distinct parent once and gathering by the inverse index
    # gives every edge the target the reference scores for it alone
    p = policy_problems()[name]
    tree = grown_tree(p, 4, 32, seed=15)
    dt, box = tree.grid.dt, FeatureBox(p.roi_lower, p.roi_upper)
    rng = np.random.default_rng(16)
    for i in range(tree.grid.steps):
        X, parents, _ = _layer_edge_arrays(tree, i + 1)
        positions, inverse = _distinct_parents(parents, len(X))
        assert inverse is not None and len(positions) < len(parents)
        z_prev = box.feature_rows(X)[1 : 1 + box.n, positions]
        alphas = np.array(random_alphas(p, rng))
        y_hat = _Targets(p, dt, box)(i, X[positions], z_prev, alphas, inverse)
        layer = tree.layer(i + 1)
        edges = X[parents], layer.drifts, layer.states
        for alpha, got_hat in zip(alphas, y_hat):
            want_hat, _ = edge_targets_reference(p, dt, i, *edges, alpha, p.roi_lower, p.roi_upper)
            assert same_bits(got_hat, want_hat)


# ---------------------------------------------------------------------------
# softmin weights and heuristic


def test_softmin_constant_scores():
    assert np.allclose(softmin_weights(np.full(7, 3.2), lam=0.5), 1.0)


def test_softmin_two_point_value():
    lam = 0.8
    theta = softmin_weights(np.array([0.0, lam * np.log(2.0)]), lam)
    assert np.allclose(theta, [4 / 3, 2 / 3])


def test_softmin_sharp_limit():
    theta = softmin_weights(np.array([5.0, 1.0, 9.0, 2.0]), lam=1e-9)
    assert np.allclose(theta, [0.0, 4.0, 0.0, 0.0])


def test_softmin_rejects_bad_inputs():
    with pytest.raises(ValueError):
        softmin_weights(np.array([1.0, 2.0]), lam=0.0)
    with pytest.raises(ValueError):
        softmin_weights(np.array([1.0, 2.0]), lam=float("nan"))
    with pytest.raises(ValueError):
        softmin_weights(np.array([1.0, np.inf]), lam=1.0)


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(0, 2**16),
    lam=st.floats(min_value=1e-3, max_value=1e3),
    shift=st.floats(min_value=-1e3, max_value=1e3),
)
def test_softmin_invariants(seed, lam, shift):
    rng = np.random.default_rng(seed)
    rho = rng.normal(size=16) * 3.0
    theta = softmin_weights(rho, lam)
    assert abs(theta.mean() - 1.0) < 1e-10
    assert np.allclose(theta, softmin_weights(rho + shift, lam), atol=1e-10)
    order = np.argsort(rho)
    assert np.all(np.diff(theta[order]) <= 1e-15)  # lower rho, larger weight


def test_path_heuristic_is_sum():
    assert np.allclose(path_heuristic([0.0, 0.0], [1.5, 2.0]), [1.5, 2.0])
    assert np.allclose(path_heuristic([0.3, 0.1], [0.0, 0.0]), [0.3, 0.1])
    assert path_heuristic(np.array([1.2]), np.array([0.7]))[0] == pytest.approx(1.9)


# ---------------------------------------------------------------------------
# backward pass


def grown_tree(problem, steps, M, seed):
    grid = TimeGrid.from_horizon(problem.horizon, steps)
    tree = BranchTree(problem, grid)
    tree.add_root()
    forward_expand(tree, None, ForwardConfig(target_width=M, eps_rrt=1.0, eps_opt=0.0), np.random.default_rng(seed))
    return tree


def test_backward_pass_single_on_policy_chain():
    # zero cost, policy u=0: every target telescopes to g(x_N)
    p = make_uncontrolled_heat()
    grid = TimeGrid.from_horizon(p.horizon, 5)
    tree = BranchTree(p, grid)
    tree.add_root()
    rng = np.random.default_rng(4)
    j = 0
    for i in range(5):
        x = tree.layer_states(i)[j]
        w = rng.normal(size=1) * np.sqrt(grid.dt)
        j = add_edge(tree, i, j, np.array([0.0]), np.zeros(1), x + p.sigma @ w)
    g = float(p.terminal_cost(tree.layer_states(5)[j]))
    artifacts = backward_pass(tree, lam=1.0)
    for i in range(1, 6):
        x_i = tree.layer_states(i)[0]
        assert features(x_i, p.roi_lower, p.roi_upper) @ artifacts.coefficients.alpha(i) == pytest.approx(g, abs=1e-3)
    assert artifacts.initial_value == pytest.approx(g, abs=1e-3)


def test_backward_pass_weight_and_ess_diagnostics():
    p = make_double_integrator_l1()
    tree = grown_tree(p, 6, 48, seed=5)
    artifacts = backward_pass(tree, lam=2.0)
    N = 6
    # the fit of layer i weights its edges by the softmin of rho[i + 1]
    for i in range(1, N):
        theta = softmin_weights(artifacts.rho[i + 1], artifacts.lam)
        assert abs(np.mean(theta) - 1.0) < 1e-10
        assert len(theta) == 48
        assert artifacts.ess[i - 1] == pytest.approx(np.sum(theta) ** 2 / np.sum(theta**2))
    # terminal fit is uniform, so its effective sample size is exactly M
    assert artifacts.ess[N - 1] == pytest.approx(48.0)
    assert np.all(artifacts.ess >= 1.0)
    assert np.all(artifacts.ess <= 48.0 + 1e-9)
    for i in range(1, N + 1):
        assert len(artifacts.rho[i]) == 48
        assert np.all(np.isfinite(artifacts.rho[i]))
    assert len(artifacts.initial_value_samples) == 48


def test_backward_pass_pure_function():
    p = make_double_integrator_l1()
    tree = grown_tree(p, 5, 32, seed=6)
    a1 = backward_pass(tree, lam=1.5)
    a2 = backward_pass(tree, lam=1.5)
    assert np.array_equal(a1.coefficients.alphas, a2.coefficients.alphas)
    assert np.array_equal(a1.initial_value_samples, a2.initial_value_samples)
    for r1, r2 in zip(a1.rho[1:], a2.rho[1:]):
        assert np.array_equal(r1, r2)


def test_backward_pass_singular_fit_reports_layer():
    p = make_uncontrolled_heat()
    grid = TimeGrid.from_horizon(p.horizon, 3)
    tree = BranchTree(p, grid)
    tree.add_root()
    j = 0
    for i in range(3):
        j = add_edge(tree, i, j, np.array([0.0]), np.zeros(1), tree.layer_states(i)[j] + 0.1)
    with pytest.raises(BackwardPassError) as err:
        backward_pass(tree, lam=1.0, ridge=0.0)  # one sample cannot determine 3 coefficients
    assert err.value.layer == 3


@pytest.mark.parametrize("field, message", [("drift", "drift"), ("running_cost", "running cost")])
def test_backward_pass_refuses_a_nonfinite_policy_grid(field, message):
    # a NaN under u = +1 on the candidate grid of layer 3 alone: its edges'
    # scores would go to the tie path of `_best_candidates` and pick the
    # wrong control, so the pass stops there and names the layer
    p = make_double_integrator_l1()
    tree = grown_tree(p, 6, 32, seed=20)
    tree.problem = nan_under_plus_one(p, field, t=3 * tree.grid.dt)
    with pytest.raises(BackwardPassError, match=f"{message} must be finite") as err:
        backward_pass(tree, lam=1.0)
    assert err.value.layer == 3
    # in lockstep every lambda stops there, and the search has no survivor
    for got in backward_pass(tree, [0.5, 1.0]):
        assert_same_error(got, err.value)
    with pytest.raises(BackwardPassError, match="every lambda candidate failed"):
        lambda_search(tree, [0.5, 1.0], rollout_count=8, seed=0)


@pytest.mark.parametrize("field, message", [("drift", "drift"), ("running_cost", "running cost")])
def test_rollout_refuses_a_nonfinite_policy_grid(field, message):
    p = make_double_integrator_l1()
    grid = TimeGrid.from_horizon(p.horizon, 6)
    coeffs = ValueCoefficients(np.random.default_rng(21).normal(size=(6, 6)), p.roi_lower, p.roi_upper)
    poisoned = nan_under_plus_one(p, field, t=3 * grid.dt)
    with pytest.raises(ValueError, match=f"{message} must be finite .* at step 3"):
        rollout_policies(poisoned, grid, [coeffs, coeffs], p.initial_state, 16, np.random.default_rng(0))


def test_heat_initial_value_is_exact_under_any_sampling_drift():
    # V(t, x) = x^2 + (T - t) lies in the basis, so with ridge 0 every fit
    # of a tree is exact whatever drift sampled it: a bang tree and a
    # zero-drift tree both give V(0, 0) = 1
    p = make_uncontrolled_heat()
    grid = TimeGrid.from_horizon(p.horizon, 10)
    bang = BranchTree(p, grid)
    bang.add_root()
    forward_expand(bang, None, ForwardConfig(target_width=64, eps_rrt=1.0, eps_opt=0.0), np.random.default_rng(2))
    still = dataclasses.replace(p, random_controls=np.array([[0.0]]))
    zero = parallel_forward_baseline(still, grid, None, ForwardConfig(target_width=64), np.random.default_rng(3))
    v_bang, v_zero = (backward_pass(tree, lam=1.0, ridge=0.0).initial_value for tree in (bang, zero))
    assert abs(v_bang - v_zero) < 1e-10
    assert abs(v_bang - 1.0) < 1e-10 and abs(v_zero - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# lambda selection


def test_default_lambda_grid_scales_with_spread():
    p = make_double_integrator_l1()
    tree = grown_tree(p, 5, 64, seed=7)
    grid_vals = default_lambda_grid(tree)
    scores = tree.layer(5).run_costs + p.terminal_cost(tree.layer_states(5))
    iqr = np.percentile(scores, 75) - np.percentile(scores, 25)
    assert np.allclose(grid_vals, np.array([0.1, 0.3, 1.0, 3.0, 10.0]) * iqr)
    assert np.all(grid_vals > 0)


def test_lambda_search_singleton_grid_matches_backward_pass():
    p = make_double_integrator_l1()
    tree = grown_tree(p, 5, 32, seed=8)
    direct = backward_pass(tree, lam=2.5)
    searched = lambda_search(tree, [2.5], rollout_count=16, seed=0)
    assert searched.lam == 2.5
    assert np.array_equal(searched.coefficients.alphas, direct.coefficients.alphas)


def test_lambda_search_picks_cheaper_rollout():
    from fbrrt.solver import rollout_policy

    p = make_double_integrator_l1()
    tree = grown_tree(p, 8, 64, seed=9)
    lam_grid = [float(default_lambda_grid(tree)[1]), 1e6]
    chosen = lambda_search(tree, lam_grid, rollout_count=64, seed=11)
    costs = {}
    for lam in lam_grid:
        art = backward_pass(tree, lam)
        rep = rollout_policy(p, tree.grid, art.coefficients, p.initial_state, 64, np.random.default_rng(11))
        costs[lam] = rep.mean_cost
    assert costs[chosen.lam] == min(costs.values())


def test_lambda_search_deterministic():
    p = make_double_integrator_l1()
    tree = grown_tree(p, 6, 48, seed=10)
    grid_vals = default_lambda_grid(tree)
    a = lambda_search(tree, grid_vals, rollout_count=32, seed=21)
    b = lambda_search(tree, grid_vals, rollout_count=32, seed=21)
    assert a.lam == b.lam
    assert np.array_equal(a.coefficients.alphas, b.coefficients.alphas)


def test_lambda_search_empty_grid_rejected():
    p = make_double_integrator_l1()
    tree = grown_tree(p, 4, 16, seed=11)
    with pytest.raises(ValueError):
        lambda_search(tree, [], rollout_count=8, seed=0)


# ---------------------------------------------------------------------------
# lockstep lambda search against one lambda at a time


def regress_later_targets(problem, dt, i, X_prev, alpha_next, lower, upper):
    """Reference for the targets of `backward_pass`, from the kernels: the
    target policy's drift and running cost off the candidate grid of each
    parent state, and the value at the mean next state plus the noise's
    shift of the feature means."""
    ells, F = _drifts_and_costs(problem, i * dt, X_prev, np.asarray(problem.control_candidates))
    choice = best_candidates(ells, F, value_grad(X_prev, alpha_next, lower, upper))
    k = np.arange(len(X_prev))
    shift = noise_feature_shift(problem.sigma @ problem.sigma.T * dt, lower, upper)
    return features(X_prev + F[k, choice] * dt, lower, upper) @ alpha_next + shift @ alpha_next + ells[k, choice] * dt


def backward_pass_reference(tree, lam, ridge=None):
    """Reference for one lambda of `backward_pass`: every layer recomputes
    its features, targets and drift grid from the tree."""
    problem, N, dt = tree.problem, tree.grid.steps, tree.grid.dt
    lower, upper = problem.roi_lower, problem.roi_upper
    ridge = 1e-8 * tree.layer_size(N) if ridge is None else ridge
    rho = [None] * (N + 1)
    residuals, ess = np.zeros(N), np.zeros(N)

    def fit(layer, phi, targets, weights):
        try:
            alpha = weighted_least_squares(phi, targets, weights, ridge)
        except Exception as exc:
            raise BackwardPassError(str(exc), layer=layer) from exc
        resid = targets - phi @ alpha
        residuals[layer - 1] = np.sqrt(np.sum(weights * resid**2))
        ess[layer - 1] = np.sum(weights) ** 2 / np.sum(weights**2)
        return alpha

    X_N = tree.layer_states(N)
    y_N = problem.terminal_cost(X_N)
    alphas = [fit(N, features(X_N, lower, upper), y_N, np.ones(len(y_N)))]
    for i in range(N - 1, 0, -1):
        layer = tree.layer(i + 1)
        X_prev = tree.layer_states(i)[layer.parents]
        y_hat = regress_later_targets(problem, dt, i, X_prev, alphas[-1], lower, upper)
        rho[i + 1] = path_heuristic(layer.run_costs, features(layer.states, lower, upper) @ alphas[-1])
        alphas.append(fit(i, features(X_prev, lower, upper), y_hat, softmin_weights(rho[i + 1], lam)))
    coeffs = ValueCoefficients(alphas=np.array(alphas[::-1]), lower=lower, upper=upper)
    layer = tree.layer(1)
    X_prev = tree.layer_states(0)[layer.parents]
    y0_hat = regress_later_targets(problem, dt, 0, X_prev, coeffs.alpha(1), lower, upper)
    rho[1] = path_heuristic(layer.run_costs, features(layer.states, lower, upper) @ coeffs.alpha(1))
    return BackwardArtifacts(coeffs, float(lam), rho, residuals, ess, y0_hat)


def pruned_tree(problem, steps, M, seed, regrow):
    """A grown tree pruned to its 30% lowest-rho paths: layers of unequal
    widths, or, grown back to M under the fitted policy, layers whose nodes
    share parents."""
    tree = grown_tree(problem, steps, M, seed)
    artifacts = backward_pass(tree, float(default_lambda_grid(tree)[2]))
    tree = tree.prune(artifacts.rho, 0.3)
    if regrow:
        forward_expand(tree, artifacts.coefficients, ForwardConfig(target_width=M), np.random.default_rng(seed + 1))
    return tree


@pytest.mark.parametrize("kind", ["grown", "pruned", "regrown", "chains"])
def test_backward_pass_matches_the_reference(kind):
    # one lambda, bit for bit, with the reference scoring every edge on its own
    p = make_double_integrator_l1()
    if kind == "grown":
        tree = grown_tree(p, 8, 48, seed=19)
    elif kind == "chains":
        grid = TimeGrid.from_horizon(p.horizon, 8)
        tree = parallel_forward_baseline(p, grid, None, ForwardConfig(target_width=48), np.random.default_rng(19))
    else:
        tree = pruned_tree(p, 8, 48, seed=19, regrow=kind == "regrown")
        widths = tree.layer_sizes[1:]
        assert (min(widths) < max(widths)) if kind == "pruned" else widths == [48] * 8
    lam = float(default_lambda_grid(tree)[2])
    assert_same_artifacts(backward_pass(tree, lam), backward_pass_reference(tree, lam))


def sequential_lambda_search(tree, lambdas, rollout_count, seed, ridge=None):
    """Reference for `lambda_search`: a whole backward pass and a rollout
    per lambda, each rollout from a fresh generator on the shared seed."""
    best, best_cost, failures = None, np.inf, []
    for lam in sorted(float(l) for l in lambdas):
        try:
            artifacts = backward_pass_reference(tree, lam, ridge=ridge)
        except BackwardPassError as exc:
            failures.append((lam, exc))
            continue
        report = rollout_policy(
            tree.problem, tree.grid, artifacts.coefficients, tree.problem.initial_state, rollout_count,
            np.random.default_rng(seed),
        )
        cost = float(np.mean(report.costs))
        if cost < best_cost:
            best, best_cost = artifacts, cost
    if best is None:
        raise BackwardPassError(f"every lambda candidate failed: {failures}", layer=-1)
    return best


def assert_same_artifacts(got, want):
    assert got.lam == want.lam
    assert np.array_equal(got.coefficients.alphas, want.coefficients.alphas)
    for a, b in zip(got.rho, want.rho, strict=True):
        assert (a is None and b is None) or np.array_equal(a, b)
    for name in ("residual_norms", "ess", "initial_value_samples"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def assert_same_error(got, want):
    assert type(got) is type(want) and str(got) == str(want) and got.layer == want.layer


LQ_C21 = make_lq_problem(
    A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]], Qr=0.1 * np.eye(2), R=np.eye(1), Qf=np.eye(2), noise=0.3,
    horizon=1.5, roi_lower=(-1.2, -1.0), roi_upper=(1.2, 1.0),
)


@pytest.mark.parametrize(
    "problem, steps, M",
    [
        (make_double_integrator_l1(), 8, 48),
        (LQ_C21, 10, 64),
        (make_uncontrolled_heat(), 6, 32),
        (policy_problems()["lq_3d"], 6, 48),
    ],
    ids=["double_integrator", "lq_C21", "heat", "lq_3d"],
)
def test_lockstep_lambda_search_matches_sequential(problem, steps, M):
    tree = grown_tree(problem, steps, M, seed=12)
    # the grid and two lambdas large enough that their policies tie
    lambdas = [*default_lambda_grid(tree), 1e9, 1e10]
    for got, lam in zip(backward_pass(tree, lambdas), lambdas, strict=True):
        assert_same_artifacts(got, backward_pass_reference(tree, lam))
    assert_same_artifacts(
        lambda_search(tree, lambdas, rollout_count=32, seed=3),
        sequential_lambda_search(tree, lambdas, rollout_count=32, seed=3),
    )


def test_lockstep_lambda_search_skips_failed_fits():
    # without ridge, lambda = 1e-300 puts all weight on one path and its
    # layer N-1 fit is singular; lambda = 1e6 keeps every path
    tree = grown_tree(make_double_integrator_l1(), 6, 32, seed=13)
    collapsed, survivor = backward_pass(tree, [1e-300, 1e6], ridge=0.0)
    with pytest.raises(BackwardPassError) as want:
        backward_pass_reference(tree, 1e-300, ridge=0.0)
    with pytest.raises(BackwardPassError) as alone:
        backward_pass(tree, 1e-300, ridge=0.0)
    assert_same_error(collapsed, want.value)
    assert_same_error(alone.value, want.value)
    assert collapsed.layer == 5
    assert_same_artifacts(survivor, backward_pass_reference(tree, 1e6, ridge=0.0))
    chosen = lambda_search(tree, [1e6, 1e-300], rollout_count=16, seed=4, ridge=0.0)
    assert chosen.lam == 1e6
    assert_same_artifacts(chosen, sequential_lambda_search(tree, [1e6, 1e-300], 16, seed=4, ridge=0.0))


def test_lockstep_lambda_search_all_failed():
    tree = grown_tree(make_double_integrator_l1(), 6, 32, seed=13)
    lambdas = [1e-300, 3e-300]
    with pytest.raises(BackwardPassError) as want:
        sequential_lambda_search(tree, lambdas, 16, seed=4, ridge=0.0)
    with pytest.raises(BackwardPassError, match="every lambda candidate failed") as got:
        lambda_search(tree, lambdas, rollout_count=16, seed=4, ridge=0.0)
    assert_same_error(got.value, want.value)


def test_backward_pass_raises_a_bad_lambda_in_a_grid():
    tree = grown_tree(make_double_integrator_l1(), 4, 16, seed=13)
    with pytest.raises(ValueError, match="lambda must be positive"):
        backward_pass(tree, [1.0, -1.0])


def test_lockstep_on_chains_scores_each_edge_once():
    # no two chain edges share a parent: the edges' own parent states are
    # the distinct ones, and the lockstep pass still matches each lambda alone
    p = make_double_integrator_l1()
    grid = TimeGrid.from_horizon(p.horizon, 4)
    chains = parallel_forward_baseline(p, grid, None, ForwardConfig(target_width=24), np.random.default_rng(18))
    for i in range(grid.steps):
        parents = chains.layer(i + 1).parents
        positions, inverse = _distinct_parents(parents, chains.layer_size(i))
        assert inverse is None and positions is parents
    lambdas = list(default_lambda_grid(chains))
    for got, lam in zip(backward_pass(chains, lambdas), lambdas, strict=True):
        assert_same_artifacts(got, backward_pass_reference(chains, lam))


def test_backward_pass_raises_a_bad_lambda_between_good_ones():
    tree = grown_tree(make_double_integrator_l1(), 4, 16, seed=13)
    with pytest.raises(ValueError, match="lambda must be positive"):
        backward_pass(tree, [1.0, -1.0, 2.0])
    with pytest.raises(ValueError, match="lambda must be positive"):
        backward_pass(tree, [1.0, float("nan"), 2.0])


def solo_pass(tree, lam, ridge):
    """backward_pass with lam alone, or the BackwardPassError it raises."""
    try:
        return backward_pass(tree, lam, ridge=ridge)
    except BackwardPassError as exc:
        return exc


def test_lockstep_collapse_at_ridge_zero_leaves_the_other_lambdas_alone():
    # lambda = 1e-300 puts all weight on one path, and without a ridge its
    # layer N-1 fit is singular; the lambdas around it in the grid get what
    # a pass with each alone gives
    tree = grown_tree(make_double_integrator_l1(), 6, 32, seed=13)
    grid = list(default_lambda_grid(tree))
    lambdas = [*grid[:2], 1e-300, *grid[2:], 1e6]
    results = backward_pass(tree, lambdas, ridge=0.0)
    for lam, got in zip(lambdas, results, strict=True):
        want = solo_pass(tree, lam, 0.0)
        if isinstance(want, BackwardPassError):
            assert_same_error(got, want)
        else:
            assert_same_artifacts(got, want)
    assert isinstance(results[2], BackwardPassError) and results[2].layer == 5
    assert sum(isinstance(r, BackwardArtifacts) for r in results) >= 3


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_backward_pass_refuses_a_bad_lambda_before_any_fit(monkeypatch, bad):
    # refused once, ahead of the terminal fit: even a one-step tree, whose
    # pass weights no layer, refuses it
    def no_fit(*args):
        raise AssertionError("a fit ran before the lambdas were checked")

    monkeypatch.setattr(fbrrt.backward, "solve_weighted_design", no_fit)
    for steps in (1, 4):
        tree = grown_tree(make_double_integrator_l1(), steps, 16, seed=13)
        for lam in (bad, [1.0, bad]):
            with pytest.raises(ValueError, match="^lambda must be positive$"):
                backward_pass(tree, lam)


def test_lockstep_infinite_lambda_weights_uniformly():
    tree = grown_tree(make_double_integrator_l1(), 5, 24, seed=14)
    lambdas = [np.inf, float(default_lambda_grid(tree)[2])]
    results = backward_pass(tree, lambdas)
    for got, lam in zip(results, lambdas, strict=True):
        assert_same_artifacts(got, backward_pass_reference(tree, lam))
    assert np.all(results[0].ess == 24.0)  # uniform weights: ESS is the layer width


def test_lockstep_keeps_a_failed_lambda_on_zero_coefficients(monkeypatch):
    # the stack keeps all L rows to the root edges: a failed lambda's rows
    # are scored on zero coefficients, and the pass stops once all have failed
    tree = grown_tree(make_double_integrator_l1(), 6, 32, seed=13)
    lambdas = [float(default_lambda_grid(tree)[2]), 1e-300, 1e6]
    scored = []
    call = _Targets.__call__

    def recording(self, i, X_prev, z_prev, alphas, inverse=None):
        scored.append((i, alphas.copy()))
        return call(self, i, X_prev, z_prev, alphas, inverse)

    monkeypatch.setattr(_Targets, "__call__", recording)
    results = backward_pass(tree, lambdas, ridge=0.0)
    assert isinstance(results[1], BackwardPassError) and results[1].layer == 5
    assert [i for i, _ in scored] == [5, 4, 3, 2, 1, 0]
    for i, alphas in scored[1:]:
        assert alphas.shape == (3, feature_count(2)) and not alphas[1].any()
    scored.clear()
    results = backward_pass(tree, [1e-300, 3e-300], ridge=0.0)
    assert [r.layer for r in results] == [5, 5] and [i for i, _ in scored] == [5]


def rollout_coefficients(problem, steps, kind, seed):
    """Coefficient lists for stacked rollouts: "diverging" holds c twice and
    then c * (1 + 1e-3 N(0, 1)), whose chains sit on c's until a choice
    differs; "independent" holds three unrelated vectors; "single" one."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(steps, feature_count(problem.state_dim)))
    alphas = {
        "diverging": [c, c, c * (1 + 1e-3 * rng.normal(size=c.shape))],
        "independent": [c] + [rng.normal(size=c.shape) for _ in range(2)],
        "single": [c],
    }[kind]
    return [ValueCoefficients(a, problem.roi_lower, problem.roi_upper) for a in alphas]


@pytest.mark.parametrize("kind", ["diverging", "independent", "single"])
@pytest.mark.parametrize("problem", [LQ_C21, make_double_integrator_l1()], ids=["lq", "di"])
def test_rollout_policy_is_one_block_of_a_stacked_rollout(monkeypatch, problem, kind):
    # shared rows are scored on policy 0's grid rows, own rows on theirs,
    # and many own rows take the full grid: each block is its solo rollout
    grid = TimeGrid.from_horizon(problem.horizon, 20)
    coefficients = rollout_coefficients(problem, 20, kind, seed=31)
    own_rows = []

    def recorded(X, blocks):
        own = _own_rows(X, blocks)
        own_rows.append(own)
        return own

    monkeypatch.setattr("fbrrt.backward._own_rows", recorded)
    stacked = rollout_policies(problem, grid, coefficients, problem.initial_state, 48, np.random.default_rng(32))
    if kind == "diverging":
        # the copy of c never leaves policy 0's chains; the perturbed policy does
        assert all(own is not None and (own >= 48).all() and (own < 96).sum() == 0 for own in own_rows)
        assert any(len(own) for own in own_rows)
    elif kind == "independent":
        assert any(own is None for own in own_rows)
    else:
        assert own_rows == []
    assert len(stacked) == len(coefficients)
    for coeffs, got in zip(coefficients, stacked):
        want = rollout_policy(problem, grid, coeffs, problem.initial_state, 48, np.random.default_rng(32))
        assert same_bits(got.costs, want.costs)
        assert same_bits(got.terminal_states, want.terminal_states)
        assert same_bits(got.control_counts, want.control_counts)
        assert got.mean_cost == want.mean_cost


def test_own_rows_compare_bits_not_values():
    # -0.0 == 0.0, yet a row holding -0.0 where block 0 holds 0.0 is an own row
    X = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [-0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert same_bits(_own_rows(X, 2), np.array([3]))
    assert same_bits(_own_rows(X[[0, 1, 2, 0, 1, 2]], 2), np.array([], dtype=np.intp))
    # more own rows than shared ones in blocks 1.. means no sharing
    assert _own_rows(X[[0, 1, 2, 3, 0, 0]], 2) is None


def sign_reading_problem():
    """The double integrator whose drift flips sign where the position is
    a negative zero (or negative), so -0.0 and 0.0 score differently."""
    p = make_double_integrator_l1()
    base = p.drift
    return dataclasses.replace(p, drift=lambda t, x, u: base(t, x, u) * np.copysign(1.0, x[..., :1]))


def test_candidate_scores_do_not_share_a_row_of_another_zero_sign():
    p = sign_reading_problem()
    X = np.array([[0.0, 1.0], [2.0, 3.0], [1.0, -1.0], [-0.0, 1.0], [2.0, 3.0], [1.0, -1.0]])
    grad = np.tile([[0.0, 1.0]], (len(X), 1))
    shared = _candidate_scores(p, 0.0, X, p.control_candidates, grad, blocks=2)
    full = _candidate_scores(p, 0.0, X, p.control_candidates, grad)
    assert shared[0][0] != shared[0][3]  # the sign of zero picks another control
    for got, want in zip(shared, full, strict=True):
        assert same_bits(got, want)


def nan_at_problem(drift_at, cost_at):
    """The double integrator with a NaN drift where the position is
    `drift_at` and a NaN running cost where it is `cost_at`."""
    p = make_double_integrator_l1()
    drift, cost = p.drift, p.running_cost
    return dataclasses.replace(
        p,
        drift=lambda t, x, u: np.where(x[..., :1] == drift_at, np.nan, drift(t, x, u)),
        running_cost=lambda t, x, u: np.where(x[..., 0] == cost_at, np.nan, cost(t, x, u)),
    )


@pytest.mark.parametrize("shared_nan, own_nan", [("cost", "drift"), ("drift", "cost")])
def test_shared_grid_refuses_a_drift_before_a_cost(shared_nan, own_nan):
    # row 0 is shared by both blocks, row 1 of block 1 is an own row: the
    # drift is refused first wherever it sits, as on the full grid
    nan_at = {shared_nan: 7.0, own_nan: 5.0}
    p = nan_at_problem(drift_at=nan_at["drift"], cost_at=nan_at["cost"])
    X = np.array([[7.0, 0.0], [1.0, 0.0], [2.0, 0.0], [7.0, 0.0], [5.0, 0.0], [2.0, 0.0]])
    grad = np.ones_like(X)
    assert same_bits(_own_rows(X, 2), np.array([4]))
    for blocks in (2, 1):
        with pytest.raises(ValueError, match="^drift must be finite$"):
            _candidate_scores(p, 0.0, X, p.control_candidates, grad, blocks)
    # with the drift mended, the running cost is refused
    mended = nan_at_problem(drift_at=np.inf, cost_at=nan_at["cost"])
    for blocks in (2, 1):
        with pytest.raises(ValueError, match="^running cost must be finite$"):
            _candidate_scores(mended, 0.0, X, mended.control_candidates, grad, blocks)


@pytest.mark.parametrize(
    "coefficients, x0, count, message",
    [
        ([], (2.0, 0.0), 4, "^coefficients must hold at least one policy$"),
        (None, (2.0, 0.0), 0, "^count must be >= 1, got 0$"),
        (None, np.zeros(12), 4, r"^x0 must have shape \(2,\), got \(12,\)$"),
        (None, [[2.0, 0.0]], 4, r"^x0 must have shape \(2,\), got \(1, 2\)$"),
    ],
    ids=["no-policy", "count-0", "x0-size-12", "x0-row"],
)
def test_rollout_policies_refuse_bad_inputs(coefficients, x0, count, message):
    p = make_double_integrator_l1()
    grid = TimeGrid.from_horizon(p.horizon, 4)
    if coefficients is None:
        coefficients = [ValueCoefficients(np.zeros((4, feature_count(2))), p.roi_lower, p.roi_upper)]
    with pytest.raises(ValueError, match=message):
        rollout_policies(p, grid, coefficients, x0, count, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the central claim: the backward pass reads no sampled drift


def garbage_drift_copy(tree, seed):
    """A deep copy of `tree` whose every recorded edge drift (the roots'
    NaN slots and unused slots included) is overwritten with garbage: huge,
    tiny, infinite and NaN values."""
    spoiled = copy.deepcopy(tree)
    rng = np.random.default_rng(seed)
    garbage = rng.normal(scale=1e300, size=spoiled._drift.shape)
    garbage.flat[rng.integers(garbage.size, size=garbage.size // 3)] = np.nan
    garbage.flat[rng.integers(garbage.size, size=garbage.size // 7)] = -np.inf
    garbage.flat[rng.integers(garbage.size, size=garbage.size // 11)] = 5e-324
    spoiled._drift[...] = garbage
    return spoiled


def same_artifacts(got, want) -> bool:
    """Coefficients, lambda, ESS, residuals, rho and initial-value samples, bit for bit."""
    return (
        same_bits(got.coefficients.alphas, want.coefficients.alphas)
        and got.lam == want.lam
        and same_bits(got.ess, want.ess)
        and same_bits(got.residual_norms, want.residual_norms)
        and len(got.rho) == len(want.rho)
        and all(g is w is None or same_bits(g, w) for g, w in zip(got.rho, want.rho))
        and same_bits(got.initial_value_samples, want.initial_value_samples)
    )


def grown_and_pruned_trees(problem, M, seed):
    """A tree grown from its root with exploration, and that tree pruned
    to 0.3 by its own backward pass and regrown exploiting that fit."""
    grid = TimeGrid.from_horizon(problem.horizon, 10)
    grown = BranchTree(problem, grid)
    grown.add_root()
    forward_expand(grown, None, ForwardConfig(target_width=M, eps_rrt=1.0, eps_opt=0.0), np.random.default_rng(seed))
    fit = backward_pass(grown, float(default_lambda_grid(grown)[2]))
    regrown = grown.prune(fit.rho, 0.3)
    forward_expand(regrown, fit.coefficients, ForwardConfig(target_width=M), np.random.default_rng(seed + 1))
    return {"grown": grown, "pruned": grown.prune(fit.rho, 0.3), "regrown": regrown}


@pytest.mark.parametrize("which", ["grown", "pruned", "regrown"])
def test_backward_pass_ignores_every_recorded_drift(which):
    tree = grown_and_pruned_trees(make_double_integrator_l1(), 32, 4)[which]
    spoiled = garbage_drift_copy(tree, 5)
    assert np.isnan(spoiled._drift).any() and not np.array_equal(spoiled._drift[1:], tree._drift[1:])
    lams = list(default_lambda_grid(tree))
    assert same_artifacts(backward_pass(spoiled, lams[2]), backward_pass(tree, lams[2]))
    for got, want in zip(backward_pass(spoiled, lams), backward_pass(tree, lams), strict=True):
        assert same_artifacts(got, want)


@pytest.mark.parametrize("which", ["grown", "pruned", "regrown"])
def test_lambda_search_ignores_every_recorded_drift(which):
    p = make_lq_problem([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], 0.1 * np.eye(2), np.eye(1), np.eye(2), noise=0.3, grid_points=9)
    tree = grown_and_pruned_trees(p, 32, 6)[which]
    spoiled = garbage_drift_copy(tree, 7)
    lams = default_lambda_grid(tree)
    assert same_artifacts(lambda_search(spoiled, lams, 32, seed=8), lambda_search(tree, lams, 32, seed=8))
