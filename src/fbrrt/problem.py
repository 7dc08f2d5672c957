"""Stochastic optimal control problem definitions and benchmark instances.

A problem bundles controlled drift ``f(t, x, u)``, the noise ``sigma``,
running cost ``l(t, x, u) >= 0``, terminal cost ``g(x) >= 0``, finite
control candidate sets, a region-of-interest box used for exploration
sampling and basis scaling, and the horizon.

``sigma`` is one constant (n, n) matrix: the noise depends on neither time
nor state, so the forward pass samples with it and the backward pass takes
each target's mean over the same noise in closed form (through the
covariance sigma sigma' dt).  It may be singular, zero included; it must
be finite, which ``validate_problem`` checks.  Every simulation (the tree,
the chains and the rollouts) adds its noise through ``apply_diffusion``,
so a row rounds the same in any of them.

Vectorization convention: ``drift`` and ``running_cost`` broadcast over
leading axes, i.e. they accept ``x`` of shape ``(..., n)`` and ``u`` of shape
``(..., m)`` (or a bare ``(m,)`` candidate) and return ``(..., n)`` /
``(...,)``; ``t`` is a float.  Policy scoring calls them once on a
broadcast grid, ``x`` of shape ``(B, 1, n)`` by ``u`` of shape
``(1, C, m)``; a result that does not depend on ``x`` or ``u`` may keep a
size-1 axis in its place, and the caller broadcasts it to ``(B, C[, n])``.
Each (state, control) entry must equal, bit for bit, that pair evaluated
alone, and no row's result may depend on the other rows it is evaluated
with: the forward pass grows the tree a layer at a time, one batch per time
step, and must grow the tree that node-by-node evaluation grows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into `steps` intervals of length `dt`."""

    dt: float
    steps: int

    def __post_init__(self):
        if not 0 < self.dt < np.inf:  # also refuses NaN
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @classmethod
    def from_horizon(cls, horizon: float, steps: int) -> "TimeGrid":
        """The grid of `steps` intervals over [0, horizon]; ValueError unless
        steps * dt gives the horizon back within rounding (a relative 4 eps:
        the division and the product round once each), which also refuses a
        non-finite horizon."""
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        dt = horizon / steps
        if not abs(dt * steps - horizon) <= 4 * np.finfo(float).eps * abs(horizon):
            raise ValueError(f"{steps} steps of dt = {dt} span {dt * steps}, not the horizon {horizon}")
        return cls(dt=dt, steps=steps)

    @property
    def horizon(self) -> float:
        return self.dt * self.steps

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


@dataclass(frozen=True)
class ControlProblem:
    name: str
    state_dim: int
    control_dim: int
    horizon: float
    drift: Callable  # (t, x, u) -> (..., n)
    sigma: np.ndarray  # (n, n) constant noise matrix
    running_cost: Callable  # (t, x, u) -> (...,)
    terminal_cost: Callable  # (x) -> (...,)
    control_candidates: np.ndarray  # (C, m)
    random_controls: np.ndarray  # (K, m)
    roi_lower: np.ndarray  # (n,)
    roi_upper: np.ndarray  # (n,)
    initial_state: np.ndarray  # (n,)

    def __post_init__(self):
        if self.state_dim < 1 or self.control_dim < 1:
            raise ValueError("state_dim and control_dim must be positive")
        if not 0 < self.horizon < np.inf:  # also refuses NaN
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        if self.sigma.shape != (self.state_dim, self.state_dim):
            raise ValueError("sigma must have shape (state_dim, state_dim)")
        lo, hi = np.asarray(self.roi_lower), np.asarray(self.roi_upper)
        if lo.shape != (self.state_dim,) or hi.shape != (self.state_dim,):
            raise ValueError("roi bounds must have shape (state_dim,)")
        if not np.all(lo < hi):
            raise ValueError("roi lower bounds must be strictly below upper bounds")
        for field in ("control_candidates", "random_controls"):
            controls = np.asarray(getattr(self, field), dtype=float)
            if controls.ndim != 2 or controls.shape[1] != self.control_dim or not len(controls):
                raise ValueError(f"{field} must have shape (count, control_dim) with count >= 1")
            object.__setattr__(self, field, controls)
        if np.asarray(self.initial_state).shape != (self.state_dim,):
            raise ValueError("initial_state must have shape (state_dim,)")
        if not np.isfinite(self.initial_state).all():
            raise ValueError("initial_state must be finite")

    def apply_diffusion(self, W: np.ndarray) -> np.ndarray:
        """sigma w for every row w of W (..., n), summed one state dimension
        at a time so a row rounds alike alone and in any batch (BLAS does not).
        The sums run dimension-first, (n, ...), so that each product runs
        along the rows, and the result is a view of them as (..., n)."""
        W = W.transpose(-1, *range(W.ndim - 1))
        columns = self.sigma.T.reshape(self.sigma.shape + (1,) * (W.ndim - 1))  # columns[k]: sigma[:, k] (n, 1, ...)
        out = columns[0] * W[0]
        for k in range(1, len(W)):
            out += columns[k] * W[k]
        return out.transpose(*range(1, out.ndim), 0)

    @property
    def roi_widths(self) -> np.ndarray:
        return np.asarray(self.roi_upper) - np.asarray(self.roi_lower)

    def sample_roi(self, rng: np.random.Generator, size=None) -> np.ndarray:
        return rng.uniform(self.roi_lower, self.roi_upper, size=None if size is None else (size, self.state_dim))


def validate_problem(problem: ControlProblem, rng: np.random.Generator, samples: int = 1000):
    """Spot-check problem invariants on random (t, x, u) samples from roi x [0,T],
    and that sigma is finite.

    Raises AssertionError, naming the invariant, on violation (raised, not
    asserted, so that `python -O` keeps the checks); used by the test suite
    and the `oracle` CLI subcommand.
    """
    ts = rng.uniform(0.0, problem.horizon, size=samples)
    xs = problem.sample_roi(rng, size=samples)
    cand_idx = rng.integers(0, len(problem.control_candidates), size=samples)
    us = problem.control_candidates[cand_idx]
    for t, x, u in zip(ts, xs, us):
        cost = problem.running_cost(t, x, u)
        if not cost >= 0.0:
            raise AssertionError(f"running cost must be nonnegative, got {cost} at t={t}, x={x}, u={u}")
    if not np.all(np.isfinite(problem.sigma)):
        raise AssertionError("sigma must be finite")
    if not np.all(problem.terminal_cost(xs) >= 0.0):
        raise AssertionError("terminal cost must be nonnegative")


def _bang_controls() -> np.ndarray:
    return np.array([[-1.0], [0.0], [1.0]])


def _second_order_l1(
    name, acceleration, fuel_weight, noise, terminal_weight, horizon, initial_state, roi_lower, roi_upper
) -> ControlProblem:
    """States (position, rate) with position' = rate and rate' =
    `acceleration(x, u)`, a |u| fuel cost, a quadratic terminal cost and
    bang controls.

    Noise enters the rate channel; the position channel gets a tiny
    diagonal regularizer (1e-3 * noise).  sigma need not be invertible,
    but the shipped problems are defined with the regularizer.
    """
    a, s = float(fuel_weight), float(noise)
    q = np.asarray(terminal_weight, dtype=float)
    if not (0 < a < np.inf and 0 < s < np.inf and np.all((0 < q) & (q < np.inf))):  # also refuses NaN
        raise ValueError("fuel_weight, noise, and terminal_weight must be positive")
    if q.shape != (2,):
        raise ValueError("terminal_weight must have two entries")

    def drift(t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        rate, accel = x[..., 1], acceleration(x, u)
        out = np.empty(np.broadcast(rate, accel).shape + (2,))  # np.broadcast_shapes costs twice as much
        out[..., 0], out[..., 1] = rate, accel
        return out

    def running_cost(t, x, u):
        u = np.asarray(u, dtype=float)
        return a * np.abs(u[..., 0])

    def terminal_cost(x):
        x = np.asarray(x, dtype=float)
        return q[0] * x[..., 0] ** 2 + q[1] * x[..., 1] ** 2

    return ControlProblem(
        name=name,
        state_dim=2,
        control_dim=1,
        horizon=float(horizon),
        drift=drift,
        sigma=np.diag([1e-3 * s, s]),
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        control_candidates=_bang_controls(),
        random_controls=_bang_controls(),
        roi_lower=np.asarray(roi_lower, dtype=float),
        roi_upper=np.asarray(roi_upper, dtype=float),
        initial_state=np.asarray(initial_state, dtype=float),
    )


def make_double_integrator_l1(
    fuel_weight: float = 0.5,
    noise: float = 0.5,
    terminal_weight=(4.0, 1.0),
    horizon: float = 3.0,
    initial_state=(2.0, 0.0),
    roi_lower=(-4.0, -3.0),
    roi_upper=(4.0, 3.0),
) -> ControlProblem:
    """Minimum-fuel double integrator: states (position, velocity), |u| cost,
    velocity' = u."""
    return _second_order_l1(
        "double_integrator_l1",
        lambda x, u: u[..., 0],
        fuel_weight, noise, terminal_weight, horizon, initial_state, roi_lower, roi_upper,
    )


def make_pendulum_l1(
    fuel_weight: float = 0.1,
    noise: float = 0.8,
    gravity_ratio: float = 9.81,
    damping: float = 0.1,
    terminal_weight=(4.0, 1.0),
    horizon: float = 3.0,
    initial_state=(np.pi, 0.0),
    roi_lower=(-2.0 * np.pi, -8.0),
    roi_upper=(2.0 * np.pi, 8.0),
) -> ControlProblem:
    """Minimum-fuel pendulum swing-up: states (angle, rate), upright at 0.

    angle'' = gravity_ratio * sin(angle) - damping * rate + u, so angle = 0
    is the unstable upright equilibrium and angle = pi hangs down.
    """
    grav, damp = float(gravity_ratio), float(damping)
    if not (np.isfinite(grav) and np.isfinite(damp)):
        raise ValueError("gravity_ratio and damping must be finite")
    return _second_order_l1(
        "pendulum_l1",
        lambda x, u: grav * np.sin(x[..., 0]) - damp * x[..., 1] + u[..., 0],
        fuel_weight, noise, terminal_weight, horizon, initial_state, roi_lower, roi_upper,
    )


def control_grid(lower, upper, points: int) -> np.ndarray:
    """Cartesian grid of control candidates over a box, `points` per axis."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    axes = [np.linspace(lo, hi, points) for lo, hi in zip(lower, upper)]
    return np.array(list(itertools.product(*axes)))


def make_lq_problem(
    A,
    B,
    Qr,
    R,
    Qf,
    noise,
    horizon: float = 1.0,
    initial_state=None,
    roi_lower=None,
    roi_upper=None,
    control_lower=-1.0,
    control_upper=1.0,
    grid_points: int = 21,
) -> ControlProblem:
    """Linear-quadratic oracle problem: f = Ax + Bu, quadratic costs.

    Controls are a finite grid over a box, so the argmin policy approximates
    the continuous LQR minimizer. `noise` is a scalar (-> noise * I) or an
    n x n matrix.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Qr = np.asarray(Qr, dtype=float)
    R = np.asarray(R, dtype=float)
    Qf = np.asarray(Qf, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    m = B.shape[1]
    if B.shape != (n, m):
        raise ValueError(f"B must be ({n}, m)")
    if Qr.shape != (n, n) or Qf.shape != (n, n):
        raise ValueError("Qr and Qf must be n x n")
    if R.shape != (m, m):
        raise ValueError("R must be m x m")
    if np.any(np.linalg.eigvalsh(R) <= 0):
        raise ValueError("R must be positive definite")
    if not np.isfinite(noise).all():
        raise ValueError("noise must be finite")
    sigma = noise * np.eye(n) if np.isscalar(noise) else np.asarray(noise, dtype=float)

    # Products contract one index per einsum, which rounds every row the
    # same whatever batch it sits in; BLAS products (`x @ A.T`) and the
    # three-operand quadratic form do not.
    def linear(mat, z):
        return np.einsum("ij,...j->...i", mat, z)

    def quadratic(z, mat):
        return (linear(mat, z) * z).sum(axis=-1)

    def drift(t, x, u):
        Ax = linear(A, np.asarray(x, dtype=float))
        Bu = linear(B, np.asarray(u, dtype=float))
        # one plane at a time: on a state x control grid a broadcast add
        # over the short trailing axis costs several times more
        out = np.empty(np.broadcast(Ax, Bu).shape)
        for i in range(n):
            np.add(Ax[..., i], Bu[..., i], out=out[..., i])
        return out

    def running_cost(t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return quadratic(x, Qr) + quadratic(u, R)

    def terminal_cost(x):
        return quadratic(np.asarray(x, dtype=float), Qf)

    candidates = control_grid(
        np.broadcast_to(control_lower, (m,)), np.broadcast_to(control_upper, (m,)), grid_points
    )
    if initial_state is None:
        initial_state = np.zeros(n)
    if roi_lower is None:
        roi_lower = -2.0 * np.ones(n)
    if roi_upper is None:
        roi_upper = 2.0 * np.ones(n)
    return ControlProblem(
        name="lq",
        state_dim=n,
        control_dim=m,
        horizon=float(horizon),
        drift=drift,
        sigma=sigma,
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        control_candidates=candidates,
        random_controls=candidates,
        roi_lower=np.asarray(roi_lower, dtype=float),
        roi_upper=np.asarray(roi_upper, dtype=float),
        initial_state=np.asarray(initial_state, dtype=float),
    )


def make_uncontrolled_heat(
    noise: float = 1.0,
    terminal_quadratic=1.0,
    horizon: float = 1.0,
    initial_state=(0.0,),
    roi_lower=(-3.0,),
    roi_upper=(3.0,),
) -> ControlProblem:
    """1D diagnostic problem dX = u dt + noise dW, zero running cost, g = q x^2.

    The candidate set for the policy is {0}, so the on-policy value is the
    uncontrolled heat-semigroup expectation E[g(X_T) | X_t = x]; bang
    controls appear only in the exploration set.  They move where the tree
    samples but not its targets: the backward pass reads no sampled drift.
    """
    s = float(noise)
    q = float(terminal_quadratic)
    if not (0 < s < np.inf and 0 < q < np.inf):  # also refuses NaN
        raise ValueError("noise and terminal_quadratic must be positive")

    def drift(t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        out = np.broadcast_to(u[..., 0], np.broadcast_shapes(x[..., 0].shape, u[..., 0].shape))
        return out[..., None] + 0.0 * x

    def running_cost(t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return np.zeros(np.broadcast_shapes(x[..., 0].shape, u[..., 0].shape))

    def terminal_cost(x):
        x = np.asarray(x, dtype=float)
        return q * x[..., 0] ** 2

    return ControlProblem(
        name="uncontrolled_heat",
        state_dim=1,
        control_dim=1,
        horizon=float(horizon),
        drift=drift,
        sigma=np.array([[s]]),
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        control_candidates=np.array([[0.0]]),
        random_controls=_bang_controls(),
        roi_lower=np.asarray(roi_lower, dtype=float),
        roi_upper=np.asarray(roi_upper, dtype=float),
        initial_state=np.asarray(initial_state, dtype=float),
    )
