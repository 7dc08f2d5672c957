"""Multivariate Chebyshev features up to total degree 2 and weighted ridge LS.

Feature ordering for an n-dimensional input, after the affine map z of x
from `domain_box` onto [-1, 1]^n:

    [ 1,
      T1(z_0), ..., T1(z_{n-1}),
      T2(z_0), ..., T2(z_{n-1}),
      T1(z_j) * T1(z_k)  for j < k in lexicographic order ]

with T1(z) = z and T2(z) = 2 z^2 - 1, so the feature count is
p = 1 + n + n(n+1)/2.  Inputs outside the box extrapolate (no clipping);
the affine map keeps gradients valid everywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class SingularRegressionError(RuntimeError):
    """Weighted normal system is numerically singular and ridge is zero."""


def feature_count(n: int) -> int:
    return 1 + n + n * (n + 1) // 2


@functools.cache
def _cross_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((j, k) for j in range(n) for k in range(j + 1, n))


@functools.cache
def _cross_rounds(n: int) -> tuple[tuple, ...]:
    """The cross terms of the gradient, a round at a time: round r adds to
    dimension j the term of its r-th other dimension o (o = r, or r + 1
    from r = j on), in the order the pairs list them.  Per round, the index
    of each dimension's o and of the coefficient of the pair (j, o), as a
    slice where one fits (n = 2: the dimensions reversed, one pair)."""
    index = {pair: 1 + 2 * n + c for c, pair in enumerate(_cross_pairs(n))}
    rounds = []
    for r in range(n - 1):
        others = [r if r < j else r + 1 for j in range(n)]
        pairs = [index[min(j, o), max(j, o)] for j, o in enumerate(others)]
        rounds.append(
            (
                slice(None, None, -1) if others == list(range(n))[::-1] else np.array(others),
                slice(pairs[0], pairs[0] + 1) if len(set(pairs)) == 1 else np.array(pairs),
            )
        )
    return tuple(rounds)


def last_axis_first(a: np.ndarray) -> np.ndarray:
    """A view of `a` with its last axis moved to the front, as np.moveaxis(a, -1, 0) gives it."""
    return a.transpose(-1, *range(a.ndim - 1))


def first_axis_last(a: np.ndarray) -> np.ndarray:
    """A view of `a` with its first axis moved to the end, as np.moveaxis(a, 0, -1) gives it."""
    return a.transpose(*range(1, a.ndim), 0)


class FeatureBox:
    """The box constants of the feature map, worked out once for many calls:
    u + l and u - l of the affine map z = (2 x - (u + l)) / (u - l) onto
    [-1, 1]^n, and its scale dz/dx = 2 / (u - l).  `lower` and `upper` are
    (n,), or for `z` and `grad_from` stacks (..., n) that broadcast against
    the states."""

    def __init__(self, lower, upper):
        self.lower, self.upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
        self.center, self.width = self.upper + self.lower, self.upper - self.lower
        self.scale = 2.0 / self.width
        self._scale_rows = last_axis_first(self.scale)
        self.n = self.lower.shape[-1]
        self.p = feature_count(self.n)

    def feature_rows(self, X: np.ndarray) -> np.ndarray:
        """Features of the states X (B, n), feature-major: (p, B)."""
        n = self.n
        out = np.empty((self.p, len(X)))  # feature-major, so every block is contiguous rows
        out[0] = 1.0
        z, t2 = out[1 : 1 + n], out[1 + n : 1 + 2 * n]
        np.multiply(X.T, 2.0, out=z)  # each entry rounds as `z` and 2 z^2 - 1 round it
        z -= self.center[:, None]
        z /= self.width[:, None]
        np.multiply(z, z, out=t2)
        t2 *= 2.0
        t2 -= 1.0
        for c, (j, k) in enumerate(_cross_pairs(n), 1 + 2 * n):
            np.multiply(z[j], z[k], out=out[c])
        return out

    def features(self, X: np.ndarray) -> np.ndarray:
        """Features of the states X (B, n), as contiguous rows (B, p)."""
        return self.feature_rows(X).T.copy()

    def z(self, x: np.ndarray) -> np.ndarray:
        """The box coordinates of the states x (..., n)."""
        return (2.0 * x - self.center) / self.width

    def grad_from(self, z, alpha) -> np.ndarray:
        """dV/dx with the dimension leading, from box coordinates z (n, ...)
        and coefficients alpha (p, ...), whose axes after the first
        broadcast against each other and the box's: z (n, 1, B) and
        alpha (p, K, 1) give the (n, K, B) gradients of B states under K
        coefficient vectors.  Every entry rounds as in `value_grad`.

        Entry k is (alpha_{1+k} + alpha_{1+n+k} 4 z_k) a_k, a the box scale,
        plus the cross terms alpha_(k,o) z_o a_k in the order the pairs
        list them; all n entries are worked out at once, a round of cross
        terms at a time (`_cross_rounds`)."""
        n, scale = self.n, self._scale_rows
        # z of (..., n) states transposed is strided along its last axis, and numpy would
        # loop over the short dimension axis innermost: one copy makes every row contiguous
        z = np.ascontiguousarray(z)
        grad = alpha[1 + n : 1 + 2 * n] * 4.0 * z
        grad += alpha[1 : 1 + n]  # addition commutes: this rounds as alpha_{1+k} + 4 alpha z
        if scale.ndim < grad.ndim:  # an (n,) box: its scale is one value per dimension
            scale = scale.reshape(scale.shape + (1,) * (grad.ndim - scale.ndim))
        grad *= scale
        for others, pairs in _cross_rounds(n):
            grad += alpha[pairs] * z[others] * scale
        return grad


def features(x, lower, upper) -> np.ndarray:
    """Feature map; accepts x of shape (n,) or (B, n), returns (p,) or (B, p)."""
    x = np.asarray(x, dtype=float)
    rows = FeatureBox(lower, upper).feature_rows(np.atleast_2d(x))
    return rows[:, 0] if x.ndim == 1 else rows.T.copy()


def noise_feature_shift(cov, lower, upper) -> np.ndarray:
    """E[features(m + w)] - features(m) for w ~ N(0, cov), shape (p,).

    The same for every m: 2 a_k^2 cov_kk on T2(z_k), a_j a_k cov_jk on
    z_j z_k and 0 elsewhere, with a = 2 / (upper - lower) the box scale.
    """
    cov = np.asarray(cov, dtype=float)
    scale = 2.0 / (np.asarray(upper, dtype=float) - np.asarray(lower, dtype=float))
    n = scale.shape[0]
    shift = np.zeros(feature_count(n))
    shift[1 + n : 1 + 2 * n] = 2.0 * scale**2 * np.diag(cov)
    for c, (j, k) in enumerate(_cross_pairs(n)):
        shift[1 + 2 * n + c] = scale[j] * scale[k] * cov[j, k]
    return shift


def value_grad(x, alpha, lower=None, upper=None, *, box: FeatureBox | None = None) -> np.ndarray:
    """Gradient of V at x, of shape (..., n), on the box (lower, upper), or
    on `box`, its FeatureBox worked out once for many calls.

    States x (..., n), coefficients alpha (..., p) and the box broadcast
    over their leading axes: an (L, 1, p) stack of coefficients on (B, n)
    states gives the (L, B, n) gradients of every state under each, and on
    (L, count, n) states the gradients of block l under alpha[l].  Every
    entry rounds as it does for one state and one coefficient vector.
    """
    x, alpha = np.asarray(x, dtype=float), np.asarray(alpha, dtype=float)
    if box is None:
        box = FeatureBox(lower, upper)
    if alpha.shape[-1] != box.p:
        raise ValueError(f"coefficient dimension {alpha.shape[-1]} != feature dimension {box.p}")
    # line the leading axes up as broadcasting would, so that they broadcast behind the first
    lead = max(x.ndim, alpha.ndim, box.lower.ndim)
    x, alpha = x.reshape((1,) * (lead - x.ndim) + x.shape), alpha.reshape((1,) * (lead - alpha.ndim) + alpha.shape)
    return first_axis_last(box.grad_from(last_axis_first(box.z(x)), last_axis_first(alpha)))


def check_ridge(ridge: float) -> None:
    if not 0 <= ridge < np.inf:  # also refuses NaN, which every comparison would let through
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge}")


def weighted_design(phi: np.ndarray, targets: np.ndarray, weights: np.ndarray, ridge: float):
    """The least-squares system (A, b) of `weighted_least_squares`: the
    sqrt(w)-scaled rows, and with a ridge the rows sqrt(ridge) I of zero
    target.  `targets` and `weights` are (B,) or (L, B) stacks on the same
    (B, p) features, giving (B [+ p], p) and (B [+ p],), or (L, B [+ p], p)
    and (L, B [+ p]) whose rows round as each one alone."""
    B, p = phi.shape
    sw = np.sqrt(weights)
    stack = sw.shape[:-1]
    A, b = np.zeros(stack + (B + p * (ridge > 0), p)), np.zeros(stack + (B + p * (ridge > 0),))
    np.multiply(phi, sw[..., None], out=A[..., :B, :])
    np.multiply(targets, sw, out=b[..., :B])
    if ridge > 0:
        # the diagonal of each ridge block, flat: entry (B + k, k) sits at (B + k) p + k
        A.reshape(stack + (-1,))[..., B * p :: p + 1] = np.sqrt(ridge)
    return A, b


def solve_weighted_design(A: np.ndarray, b: np.ndarray, ridge: float) -> np.ndarray:
    """alpha of one system from `weighted_design`, by SVD lstsq; raises
    SingularRegressionError when ridge == 0 and A is rank deficient."""
    alpha, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    p = A.shape[1]
    if ridge == 0 and rank < p:
        raise SingularRegressionError(f"weighted design has rank {rank} < {p} and ridge is zero")
    return alpha


def weighted_least_squares(phi: np.ndarray, targets: np.ndarray, weights: np.ndarray, ridge: float) -> np.ndarray:
    """Minimize sum_j w_j (y_j - phi_j @ a)^2 + ridge * |a|^2 via SVD lstsq.

    Raises SingularRegressionError when ridge == 0 and the weighted design
    is rank deficient.
    """
    phi = np.asarray(phi, dtype=float)
    targets = np.asarray(targets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if phi.shape[0] != targets.shape[0] or phi.shape[0] != weights.shape[0]:
        raise ValueError("row counts of features, targets, and weights must agree")
    if np.any(weights < 0) or not np.any(weights > 0):
        raise ValueError("weights must be nonnegative with at least one positive")
    check_ridge(ridge)
    return solve_weighted_design(*weighted_design(phi, targets, weights, ridge), ridge)


@dataclass
class ValueCoefficients:
    """Per-timestep basis weights alpha_1..alpha_N plus the scaling box.

    `alphas` has shape (N, p); row i-1 holds alpha_i, the coefficients of
    the value approximation at time index i (1-based; there is no alpha_0
    because the initial layer carries no state diversity to regress on).
    """

    alphas: np.ndarray  # (N, p)
    lower: np.ndarray  # (n,)
    upper: np.ndarray  # (n,)

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n = self.lower.shape[0]
        if self.alphas.ndim != 2 or self.alphas.shape[1] != feature_count(n):
            raise ValueError("alphas must have shape (N, p) with p matching the box dimension")
        if not np.all(np.isfinite(self.alphas)):
            raise ValueError("coefficients must be finite")

    @functools.cached_property
    def box(self) -> FeatureBox:
        """The feature box of (lower, upper), worked out on first use."""
        return FeatureBox(self.lower, self.upper)

    @property
    def steps(self) -> int:
        return self.alphas.shape[0]

    def alpha(self, i: int) -> np.ndarray:
        if not 1 <= i <= self.steps:
            raise IndexError(f"time index {i} outside 1..{self.steps}")
        return self.alphas[i - 1]

    def to_dict(self) -> dict:
        n = self.lower.shape[0]
        return {
            "n": n,
            "p": feature_count(n),
            "steps": self.steps,
            "box": {"lower": self.lower.tolist(), "upper": self.upper.tolist()},
            "alphas": self.alphas.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ValueCoefficients":
        return cls(
            alphas=np.asarray(data["alphas"], dtype=float),
            lower=np.asarray(data["box"]["lower"], dtype=float),
            upper=np.asarray(data["box"]["upper"], dtype=float),
        )


def quadratic_to_coefficients(P, b, c, lower, upper) -> np.ndarray:
    """Exact basis coefficients of q(x) = x'Px + b'x + c on the given box.

    Degree-2 Chebyshev features span all quadratics, so the conversion is
    closed form through the affine box map x = S z + t.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.shape[0]
    P = np.asarray(P, dtype=float).reshape(n, n)
    P = 0.5 * (P + P.T)
    b = np.asarray(b, dtype=float).reshape(n)
    S = np.diag((upper - lower) / 2.0)
    t = (upper + lower) / 2.0
    Pz = S @ P @ S
    bz = S @ (2.0 * P @ t + b)
    cz = float(t @ P @ t + b @ t + c)
    alpha = np.zeros(feature_count(n))
    alpha[0] = cz + np.sum(np.diag(Pz)) / 2.0  # z_k^2 = (T2 + 1) / 2
    alpha[1 : 1 + n] = bz
    alpha[1 + n : 1 + 2 * n] = np.diag(Pz) / 2.0
    for idx, (j, k) in enumerate(_cross_pairs(n)):
        alpha[1 + 2 * n + idx] = 2.0 * Pz[j, k]
    return alpha
