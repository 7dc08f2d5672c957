import dataclasses

import numpy as np

from fbrrt.problem import (
    ControlProblem,
    make_double_integrator_l1,
    make_lq_problem,
    make_pendulum_l1,
    make_uncontrolled_heat,
)


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
