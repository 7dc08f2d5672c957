import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbrrt.basis import (
    FeatureBox,
    SingularRegressionError,
    ValueCoefficients,
    feature_count,
    features,
    noise_feature_shift,
    quadratic_to_coefficients,
    solve_weighted_design,
    value_grad,
    weighted_design,
    weighted_least_squares,
)

from conftest import correlated_noise_lq_problem, policy_problems, same_bits

BOX1 = (np.array([-1.0]), np.array([1.0]))
BOX2 = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def central_diff(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = []
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        out.append((fn(x + e) - fn(x - e)) / (2 * h))
    return np.array(out)


def test_features_1d_known_values():
    assert np.allclose(features(np.array([0.0]), *BOX1), [1.0, 0.0, -1.0])
    # T2(z) = 2 z^2 - 1 at z = 0.5
    assert np.allclose(features(np.array([0.5]), *BOX1), [1.0, 0.5, -0.5])


def test_features_2d_known_values():
    assert np.allclose(features(np.array([0.0, 0.0]), *BOX2), [1.0, 0.0, 0.0, -1.0, -1.0, 0.0])


@pytest.mark.parametrize("name", [*policy_problems(), "correlated_noise_lq"])
def test_noise_feature_shift_matches_sigma_points(name):
    # the 2n points m +- sqrt(n) L_k, with L L' = cov, have the mean and
    # covariance of m + w, w ~ N(0, cov), so they average any degree-2
    # feature exactly
    p = correlated_noise_lq_problem() if name == "correlated_noise_lq" else policy_problems()[name]
    n, dt, box = p.state_dim, 0.05, (p.roi_lower, p.roi_upper)
    L = p.sigma * np.sqrt(dt)
    shift = noise_feature_shift(L @ L.T, *box)
    for m in p.sample_roi(np.random.default_rng(5), size=10):
        points = m + np.sqrt(n) * np.concatenate([L.T, -L.T])
        assert np.allclose(features(points, *box).mean(axis=0), features(m, *box) + shift, rtol=0, atol=1e-12)


def test_feature_count_matches():
    for n in range(1, 5):
        x = np.zeros(n)
        lo, hi = -np.ones(n), np.ones(n)
        assert features(x, lo, hi).shape == (feature_count(n),)


def test_feature_grad_1d_known_values():
    # the feature Jacobian is the value gradient under each unit coefficient vector
    grad0 = value_grad(np.array([0.0]), np.eye(3), *BOX1)
    assert np.allclose(grad0[:, 0], [0.0, 1.0, 0.0])
    grad_half = value_grad(np.array([0.5]), np.eye(3), *BOX1)
    assert np.allclose(grad_half[:, 0], [0.0, 1.0, 2.0])


def test_feature_grad_matches_central_differences():
    rng = np.random.default_rng(0)
    lo = np.array([-2.0, 0.5, -1.0])
    hi = np.array([1.0, 3.0, 4.0])
    for _ in range(20):
        x = rng.uniform(lo, hi)
        grad = value_grad(x, np.eye(feature_count(3)), lo, hi)
        fd = central_diff(lambda y: features(y, lo, hi), x).T
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)


def feature_grad_reference(x, lower, upper):
    """The feature Jacobian written out entry by entry: row j is dV/dx
    under the unit coefficient vector e_j."""
    box = FeatureBox(lower, upper)
    z = box.z(np.asarray(x, dtype=float))
    n, scale = box.n, box.scale
    grad = np.zeros((box.p, n))
    for k in range(n):
        grad[1 + k, k] = scale[k]
        grad[1 + n + k, k] = 4.0 * z[k] * scale[k]
    for c, (j, k) in enumerate(itertools.combinations(range(n), 2)):
        grad[1 + 2 * n + c, j] = z[k] * scale[j]
        grad[1 + 2 * n + c, k] = z[j] * scale[k]
    return grad


@settings(deadline=None, max_examples=200)
@given(n=st.integers(1, 4), data=st.data())
def test_feature_grad_rounds_like_the_written_out_jacobian(n, data):
    def vector(lo, hi):
        return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    lower = vector(-10.0, 10.0)
    upper, x = lower + vector(1e-3, 20.0), vector(-40.0, 40.0)
    # `grad_from` sums each entry's terms, zero terms included, and 0.0 + -0.0
    # is +0.0: where the written-out Jacobian holds -0.0 (z = -0.0, at the
    # state -0.0 of a box centred at 0) it holds +0.0; all else rounds alike
    jacobian = value_grad(x, np.eye(feature_count(n)), lower, upper)
    assert same_bits(jacobian + 0.0, feature_grad_reference(x, lower, upper) + 0.0)


def test_value_eval_constant_coefficient():
    alpha = np.zeros(feature_count(2))
    alpha[0] = 1.0
    x = np.array([0.3, -0.7])
    assert features(x, *BOX2) @ alpha == pytest.approx(1.0)
    assert np.allclose(value_grad(x, alpha, *BOX2), 0.0)


def test_value_eval_quadratic_fit():
    # x^2 = (T0 + T2) / 2 on [-1, 1]
    alpha = np.array([0.5, 0.0, 0.5])
    assert features(np.array([0.5]), *BOX1) @ alpha == pytest.approx(0.25)


def test_value_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    lo = np.array([-3.0, -2.0])
    hi = np.array([4.0, 1.0])
    for _ in range(100):
        x = rng.uniform(lo - 1, hi + 1)  # extrapolation allowed
        alpha = rng.normal(size=feature_count(2))
        grad = value_grad(x, alpha, lo, hi)
        fd = central_diff(lambda y: features(y, lo, hi) @ alpha, x)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)
    # a batch of states gives, bit for bit, each state's own gradient
    X = rng.uniform(lo - 1, hi + 1, size=(40, 2))
    assert np.array_equal(value_grad(X, alpha, lo, hi), np.array([value_grad(x, alpha, lo, hi) for x in X]))


@pytest.mark.parametrize("name", ["heat", "double_integrator", "lq_3d"])  # n = 1, 2, 3
def test_value_grad_coefficient_stack_matches_single_calls(name):
    # an (L, 1, p) stack on shared (B, n) states, and on (L, count, n)
    # blocks of states, gives bit for bit what one call per row gives
    p = policy_problems()[name]
    rng = np.random.default_rng(2)
    box = (p.roi_lower, p.roi_upper)
    alphas = rng.normal(size=(4, feature_count(p.state_dim)))
    X = rng.uniform(p.roi_lower - 1, p.roi_upper + 1, size=(30, p.state_dim))
    shared = value_grad(X, alphas[:, None, :], *box)
    assert shared.shape == (4, 30, p.state_dim)
    assert np.array_equal(shared, np.array([value_grad(X, a, *box) for a in alphas]))
    blocks = X[:28].reshape(4, 7, p.state_dim)
    stacked = value_grad(blocks, alphas[:, None, :], *box)
    assert np.array_equal(stacked, np.array([value_grad(x, a, *box) for x, a in zip(blocks, alphas)]))


def test_value_eval_dimension_mismatch():
    # coefficients of another basis size are refused where the value's gradient is taken
    with pytest.raises(ValueError):
        value_grad(np.array([0.0]), np.zeros(5), *BOX1)


def test_wls_constant_targets():
    rng = np.random.default_rng(2)
    phi = features(rng.uniform(-1, 1, size=(20, 1)), *BOX1)
    alpha = weighted_least_squares(phi, np.full(20, 3.25), rng.uniform(0.5, 2.0, size=20), ridge=0.0)
    assert np.allclose(alpha, [3.25, 0.0, 0.0], atol=1e-10)


def test_wls_interpolates_with_square_system():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, size=(3, 1))
    phi = features(X, *BOX1)
    y = rng.normal(size=3)
    alpha = weighted_least_squares(phi, y, np.ones(3), ridge=0.0)
    assert np.max(np.abs(phi @ alpha - y)) < 1e-8


def test_wls_zero_weight_rows_inert():
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, size=(5, 1))
    phi = features(X, *BOX1)
    y = rng.normal(size=5)
    weights = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    for ridge in (1e-6, 1e-9, 1e-12):
        alpha = weighted_least_squares(phi, y, weights, ridge=ridge)
        resid = abs(phi[0] @ alpha - y[0])
        assert resid < 10 * np.sqrt(ridge) + 1e-8


def test_wls_singular_raises_without_ridge():
    phi = np.ones((4, 3))  # rank 1
    with pytest.raises(SingularRegressionError):
        weighted_least_squares(phi, np.ones(4), np.ones(4), ridge=0.0)
    # ridge makes it solvable
    weighted_least_squares(phi, np.ones(4), np.ones(4), ridge=1e-8)


def test_wls_rejects_bad_weights():
    phi = np.ones((2, 1))
    with pytest.raises(ValueError):
        weighted_least_squares(phi, np.ones(2), np.array([1.0, -1.0]), ridge=0.0)
    with pytest.raises(ValueError):
        weighted_least_squares(phi, np.ones(2), np.zeros(2), ridge=0.0)


@pytest.mark.parametrize("ridge", [np.nan, np.inf, -1e-12])
def test_wls_rejects_a_ridge_outside_zero_to_inf(ridge):
    # a NaN ridge used to skip both the ridge rows and the ridge-0 rank check
    phi = np.ones((4, 3))  # rank 1, so an unchecked fit would pass silently
    with pytest.raises(ValueError, match="ridge must be finite and nonnegative"):
        weighted_least_squares(phi, np.ones(4), np.ones(4), ridge=ridge)


@settings(deadline=None, max_examples=30)
@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 2**16))
def test_wls_weight_scaling_invariance(scale, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(12, 2))
    phi = features(X, *BOX2)
    y = rng.normal(size=12)
    w = rng.uniform(0.1, 1.0, size=12)
    a1 = weighted_least_squares(phi, y, w, ridge=0.0)
    a2 = weighted_least_squares(phi, y, w * scale, ridge=0.0)
    assert np.allclose(a1, a2, atol=1e-8, rtol=1e-8)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**16))
def test_quadratic_completeness(seed):
    # any quadratic is fit exactly from p samples in general position
    rng = np.random.default_rng(seed)
    n = 2
    lo, hi = np.array([-2.0, 1.0]), np.array([3.0, 4.0])
    H = rng.normal(size=(n, n))
    H = H + H.T
    b = rng.normal(size=n)
    c = rng.normal()

    def quad(x):
        return x @ H @ x + b @ x + c

    X = rng.uniform(lo, hi, size=(feature_count(n), n))
    phi = features(X, lo, hi)
    y = np.array([quad(x) for x in X])
    alpha = weighted_least_squares(phi, y, np.ones(len(y)), ridge=0.0)
    X_test = rng.uniform(lo, hi, size=(50, n))
    resid = features(X_test, lo, hi) @ alpha - np.array([quad(x) for x in X_test])
    assert np.max(np.abs(resid)) < 1e-8


def test_quadratic_to_coefficients_exact():
    rng = np.random.default_rng(5)
    lo, hi = np.array([-2.0, -1.0]), np.array([1.0, 3.0])
    H = rng.normal(size=(2, 2))
    H = H + H.T
    b = rng.normal(size=2)
    c = rng.normal()
    alpha = quadratic_to_coefficients(H, b, c, lo, hi)
    for x in rng.uniform(lo - 1, hi + 1, size=(50, 2)):
        assert features(x, lo, hi) @ alpha == pytest.approx(x @ H @ x + b @ x + c, rel=1e-10, abs=1e-10)


def test_value_coefficients_round_trip():
    rng = np.random.default_rng(6)
    coeffs = ValueCoefficients(alphas=rng.normal(size=(5, 6)), lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 2.0]))
    data = coeffs.to_dict()
    assert data["n"] == 2 and data["p"] == 6 and data["steps"] == 5
    back = ValueCoefficients.from_dict(data)
    assert np.allclose(back.alphas, coeffs.alphas)
    x = np.array([0.2, 1.1])
    assert features(x, back.lower, back.upper) @ back.alpha(3) == pytest.approx(
        features(x, coeffs.lower, coeffs.upper) @ coeffs.alpha(3)
    )


def test_value_coefficients_index_bounds():
    coeffs = ValueCoefficients(alphas=np.zeros((4, 3)), lower=np.array([-1.0]), upper=np.array([1.0]))
    with pytest.raises(IndexError):
        coeffs.alpha(0)
    with pytest.raises(IndexError):
        coeffs.alpha(5)


def test_value_coefficients_rejects_nonfinite():
    bad = np.zeros((2, 3))
    bad[1, 1] = np.inf
    with pytest.raises(ValueError):
        ValueCoefficients(alphas=bad, lower=np.array([-1.0]), upper=np.array([1.0]))


# ---------------------------------------------------------------------------
# the in-place kernels round as the formulas they replaced


def features_reference(x, lower, upper):
    """`features` as a list of columns stacked into (B, p)."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    z = (2.0 * np.asarray(x, dtype=float) - (upper + lower)) / (upper - lower)
    squeeze = z.ndim == 1
    z = np.atleast_2d(z)
    B, n = z.shape
    cols = [np.ones(B), *(z[:, k] for k in range(n)), *(2.0 * z[:, k] ** 2 - 1.0 for k in range(n))]
    cols.extend(z[:, j] * z[:, k] for j in range(n) for k in range(j + 1, n))
    out = np.stack(cols, axis=1)
    return out[0] if squeeze else out


def weighted_least_squares_reference(phi, targets, weights, ridge):
    """`weighted_least_squares`'s lstsq on a design built by vstack and
    concatenate."""
    sw = np.sqrt(weights)
    A, b = phi * sw[:, None], targets * sw
    if ridge > 0:
        A = np.vstack([A, np.sqrt(ridge) * np.eye(phi.shape[1])])
        b = np.concatenate([b, np.zeros(phi.shape[1])])
    return np.linalg.lstsq(A, b, rcond=None)[0]


def random_box(rng, n):
    lower = rng.uniform(-5.0, 1.0, size=n)
    return lower, lower + rng.uniform(0.1, 10.0, size=n)


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 4), B=st.integers(1, 70), seed=st.integers(0, 2**16), single=st.booleans())
def test_features_round_like_stacked_columns(n, B, seed, single):
    rng = np.random.default_rng(seed)
    lower, upper = random_box(rng, n)
    x = rng.uniform(lower - 2.0, upper + 2.0, size=(B, n))  # extrapolating rows too
    if B > 2:
        x[1, 0], x[2, -1] = np.nan, -np.inf
    x = x[0] if single else x
    got = features(x, lower, upper)
    assert same_bits(got, features_reference(x, lower, upper))
    assert got.flags.c_contiguous


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 4), extra=st.integers(0, 60), seed=st.integers(0, 2**16), ridge=st.sampled_from([0.0, 1e-8, 0.5]))
def test_weighted_least_squares_solves_the_stacked_design(n, extra, seed, ridge):
    rng = np.random.default_rng(seed)
    box = random_box(rng, n)
    B = feature_count(n) + extra
    phi = features(rng.uniform(*box, size=(B, n)), *box)
    targets, weights = rng.normal(size=B), rng.uniform(0.0, 3.0, size=B)
    weights[rng.integers(B)] = 1.0  # at least one positive weight
    assert same_bits(
        weighted_least_squares(phi, targets, weights, ridge), weighted_least_squares_reference(phi, targets, weights, ridge)
    )


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 3), L=st.integers(1, 5), seed=st.integers(0, 2**16), ridge=st.sampled_from([0.0, 1e-8, 0.5]))
def test_weighted_design_stacks_round_like_each_system(n, L, seed, ridge):
    # an (L, B) stack of targets and weights on shared features gives, row
    # for row, the system and the fit of that row alone
    rng = np.random.default_rng(seed)
    box = random_box(rng, n)
    B = feature_count(n) + int(rng.integers(0, 40))
    phi = features(rng.uniform(*box, size=(B, n)), *box)
    targets, weights = rng.normal(size=(L, B)), rng.uniform(0.0, 3.0, size=(L, B))
    weights[:, 0] = 1.0
    A, b = weighted_design(phi, targets, weights, ridge)
    assert A.shape == (L, B + feature_count(n) * (ridge > 0), feature_count(n)) and b.shape == A.shape[:2]
    for l in range(L):
        A_l, b_l = weighted_design(phi, targets[l], weights[l], ridge)
        assert same_bits(A[l], A_l) and same_bits(b[l], b_l)
        assert same_bits(
            solve_weighted_design(A[l], b[l], ridge), weighted_least_squares_reference(phi, targets[l], weights[l], ridge)
        )


def test_solve_weighted_design_refuses_a_rank_deficient_system_without_ridge():
    phi = features(np.array([[0.1, 0.2], [0.3, 0.4]]), np.zeros(2), np.ones(2))  # 2 rows, 6 features
    with pytest.raises(SingularRegressionError, match="rank 2 < 6"):
        solve_weighted_design(*weighted_design(phi, np.ones(2), np.ones(2), 0.0), 0.0)
    assert np.all(np.isfinite(solve_weighted_design(*weighted_design(phi, np.ones(2), np.ones(2), 1e-8), 1e-8)))
