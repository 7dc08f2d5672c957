import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fbrrt.problem import (
    TimeGrid,
    make_double_integrator_l1,
    make_lq_problem,
    make_pendulum_l1,
    make_uncontrolled_heat,
    validate_problem,
)
from fbrrt.solver import SolverConfig, fbrrt_solve

from conftest import correlated_noise_lq_problem, same_bits

ALL_FACTORIES = [make_double_integrator_l1, make_pendulum_l1, make_uncontrolled_heat]


def test_time_grid_partition():
    grid = TimeGrid.from_horizon(3.0, 30)
    assert grid.dt == pytest.approx(0.1)
    assert abs(grid.steps * grid.dt - 3.0) < 1e-12
    assert np.all(np.diff(grid.times) > 0)
    assert grid.times[0] == 0.0
    assert grid.times[-1] == pytest.approx(3.0)


@pytest.mark.parametrize("horizon, steps", [(1e5, 97), (3.0, 30), (1.5, 30), (1e-9, 7), (0.1, 3), (7e12, 1_000_003)])
def test_time_grid_from_horizon_accepts_every_valid_grid(horizon, steps):
    # a relative bound: an absolute 1e-12 refused 1e5 over 97 steps
    grid = TimeGrid.from_horizon(horizon, steps)
    assert grid.steps == steps and grid.horizon == pytest.approx(horizon, rel=1e-15)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
def test_time_grid_from_horizon_refuses_a_nonfinite_horizon(horizon):
    # a ValueError, not an assert that `python -O` drops
    with pytest.raises(ValueError, match="not the horizon"):
        TimeGrid.from_horizon(horizon, 10)


def test_time_grid_rejects_bad_args():
    with pytest.raises(ValueError):
        TimeGrid(dt=-0.1, steps=10)
    with pytest.raises(ValueError):
        TimeGrid(dt=0.1, steps=0)
    # refused before the horizon is divided by them
    for steps in (0, -2):
        with pytest.raises(ValueError, match=f"^steps must be >= 1, got {steps}$"):
            TimeGrid.from_horizon(1.0, steps)


@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
def test_time_grid_refuses_a_dt_outside_zero_to_inf(dt):
    # NaN passed the old `dt <= 0` check, as every comparison lets it through
    with pytest.raises(ValueError, match="^dt must be positive and finite, got"):
        TimeGrid(dt=dt, steps=10)


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(state_dim=0), "state_dim and control_dim must be positive"),
        (dict(control_dim=0), "state_dim and control_dim must be positive"),
        (dict(horizon=0.0), "horizon must be positive and finite, got 0.0"),
        (dict(horizon=float("nan")), "horizon must be positive and finite, got nan"),
        (dict(horizon=float("inf")), "horizon must be positive and finite, got inf"),
        (dict(roi_lower=np.array([-3.0, -3.0])), "roi bounds must have shape (state_dim,)"),
        (dict(roi_upper=np.array([-3.0])), "roi lower bounds must be strictly below upper bounds"),
        (dict(initial_state=np.zeros(2)), "initial_state must have shape (state_dim,)"),
        (dict(initial_state=np.array([np.nan])), "initial_state must be finite"),
        (dict(initial_state=np.array([-np.inf])), "initial_state must be finite"),
    ],
)
def test_control_problem_refusals(change, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(make_uncontrolled_heat(), **change)


def test_double_integrator_equilibrium_and_costs():
    p = make_double_integrator_l1(fuel_weight=0.5, terminal_weight=(1.0, 1.0))
    assert np.allclose(p.drift(0.0, np.array([0.0, 0.0]), np.array([0.0])), [0.0, 0.0])
    assert p.running_cost(0.0, np.zeros(2), np.array([1.0])) == pytest.approx(0.5)
    assert p.running_cost(0.0, np.zeros(2), np.array([0.0])) == 0.0
    assert p.terminal_cost(np.array([1.0, 1.0])) == pytest.approx(2.0)


@pytest.mark.parametrize("sigma", [np.eye(3), np.ones(2), np.ones((2, 1)), np.float64(0.5)])
def test_sigma_of_wrong_shape_refused(sigma):
    with pytest.raises(ValueError, match="sigma must have shape"):
        dataclasses.replace(make_double_integrator_l1(), sigma=sigma)


@pytest.mark.parametrize("field", ["control_candidates", "random_controls"])
def test_empty_control_set_refused(field):
    # unchecked, an empty exploration set failed inside numpy ("high <= 0"),
    # and an empty candidate set only in the backward phase
    with pytest.raises(ValueError, match=rf"^{field} must have shape \(count, control_dim\) with count >= 1$"):
        dataclasses.replace(make_double_integrator_l1(), **{field: np.zeros((0, 1))})


def test_control_sets_are_stored_as_float_arrays():
    p = dataclasses.replace(make_double_integrator_l1(), control_candidates=[[-1], [1]], random_controls=[[0]])
    assert same_bits(p.control_candidates, np.array([[-1.0], [1.0]]))
    assert same_bits(p.random_controls, np.zeros((1, 1)))


def test_diffusion_is_sigma_everywhere():
    p = make_pendulum_l1(noise=0.4)
    assert np.array_equal(p.sigma, np.diag([4e-4, 0.4]))
    assert dataclasses.replace(p, sigma=[[1, 0], [0, 2]]).sigma.dtype == float


@pytest.mark.parametrize("make_problem", [make_double_integrator_l1, correlated_noise_lq_problem])
def test_apply_diffusion_rounds_each_row_alone(make_problem):
    # the tree, the chains and the rollouts add noise in batches of any
    # size; each row must round as it does alone, and (for a diagonal sigma)
    # exactly as the matrix product does
    p = make_problem()
    W = np.random.default_rng(0).normal(size=(64, 2))
    batch = p.apply_diffusion(W)
    assert np.array_equal(batch, np.array([p.apply_diffusion(w) for w in W]))
    assert np.array_equal(p.apply_diffusion(W.reshape(8, 8, 2)), batch.reshape(8, 8, 2))
    assert np.allclose(batch, W @ p.sigma.T)
    if not np.any(p.sigma - np.diag(np.diag(p.sigma))):
        assert np.array_equal(batch, W @ p.sigma.T)


def test_double_integrator_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_double_integrator_l1(fuel_weight=-1.0)
    with pytest.raises(ValueError):
        make_double_integrator_l1(noise=0.0)
    with pytest.raises(ValueError):
        make_double_integrator_l1(terminal_weight=(1.0, -2.0))
    for bad in (np.nan, np.inf):
        for kwargs in (dict(fuel_weight=bad), dict(noise=bad), dict(terminal_weight=(1.0, bad))):
            with pytest.raises(ValueError, match="^fuel_weight, noise, and terminal_weight must be positive$"):
                make_double_integrator_l1(**kwargs)
    # a scalar or a one-entry weight failed inside the solve with a bare
    # IndexError, and a third entry was ignored
    for weight in (4.0, (4.0,), (4.0, 1.0, 9.0)):
        with pytest.raises(ValueError, match="^terminal_weight must have two entries$"):
            make_double_integrator_l1(terminal_weight=weight)


def test_pendulum_refuses_a_nonfinite_parameter():
    for kwargs in (dict(gravity_ratio=np.nan), dict(damping=-np.inf)):
        with pytest.raises(ValueError, match="^gravity_ratio and damping must be finite$"):
            make_pendulum_l1(**kwargs)


def test_pendulum_equilibria():
    p = make_pendulum_l1(gravity_ratio=1.0, damping=0.0)
    assert np.allclose(p.drift(0.0, np.array([0.0, 0.0]), np.array([0.0])), [0.0, 0.0])
    hang = p.drift(0.0, np.array([np.pi, 0.0]), np.array([0.0]))
    assert np.allclose(hang, [0.0, np.sin(np.pi)], atol=1e-15)
    # sin(pi/2) + 1 = 2 with unit gravity ratio and no damping
    assert np.allclose(p.drift(0.0, np.array([np.pi / 2, 0.0]), np.array([1.0])), [0.0, 2.0])


def test_lq_problem_basics():
    A = np.zeros((2, 2))
    B = np.eye(2)
    p = make_lq_problem(A, B, Qr=np.eye(2), R=np.eye(2), Qf=np.eye(2), noise=0.5, grid_points=3)
    assert np.allclose(p.drift(0.0, np.zeros(2), np.zeros(2)), 0.0)
    e1 = np.array([1.0, 0.0])
    assert p.running_cost(0.0, e1, np.zeros(2)) == pytest.approx(1.0)
    assert p.control_candidates.shape == (9, 2)


def test_lq_rejects_bad_shapes():
    with pytest.raises(ValueError):
        make_lq_problem(np.zeros((2, 2)), np.zeros((3, 1)), np.eye(2), np.eye(1), np.eye(2), 0.1)
    with pytest.raises(ValueError):
        make_lq_problem(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2), -np.eye(1), np.eye(2), 0.1)


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(A=np.zeros((2, 3))), "A must be square"),
        (dict(B=np.zeros((3, 1))), "B must be (2, m)"),
        (dict(Qr=np.eye(3)), "Qr and Qf must be n x n"),
        (dict(Qf=np.eye(1)), "Qr and Qf must be n x n"),
        (dict(R=np.eye(2)), "R must be m x m"),
        (dict(R=-np.eye(1)), "R must be positive definite"),
        (dict(noise=np.nan), "noise must be finite"),
        (dict(noise=np.inf), "noise must be finite"),
        (dict(noise=np.array([[0.1, 0.0], [np.nan, 0.1]])), "noise must be finite"),
    ],
)
def test_lq_refusals_name_the_bad_matrix(change, message):
    matrices = dict(A=np.zeros((2, 2)), B=np.zeros((2, 1)), Qr=np.eye(2), R=np.eye(1), Qf=np.eye(2), noise=0.1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_lq_problem(**{**matrices, **change})


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(noise=0.0),
        dict(terminal_quadratic=-1.0),
        dict(noise=np.nan),
        dict(noise=np.inf),
        dict(terminal_quadratic=np.nan),
        dict(terminal_quadratic=np.inf),
    ],
)
def test_heat_refuses_a_nonpositive_parameter(kwargs):
    with pytest.raises(ValueError, match="^noise and terminal_quadratic must be positive$"):
        make_uncontrolled_heat(**kwargs)


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_packaged_problem_invariants(factory):
    problem = factory()
    validate_problem(problem, np.random.default_rng(0), samples=1000)


def test_l1_running_cost_state_independent():
    rng = np.random.default_rng(1)
    for p in (make_double_integrator_l1(), make_pendulum_l1()):
        xs = p.sample_roi(rng, size=100)
        ts = rng.uniform(0, p.horizon, size=100)
        for u in p.control_candidates:
            vals = [p.running_cost(t, x, u) for t, x in zip(ts, xs)]
            assert np.ptp(vals) == 0.0


@pytest.mark.parametrize("noise", [0.0, [[0.3, 0.3], [0.3, 0.3]]])
def test_lq_with_singular_noise_builds_and_solves(noise):
    # nothing inverts sigma, so a singular one is a problem like any other
    p = make_lq_problem(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2), np.eye(2), noise, grid_points=5)
    validate_problem(p, np.random.default_rng(0), samples=10)
    report = fbrrt_solve(SolverConfig(problem="lq", steps=4, M=16, iterations=2, rollout_count=8), problem=p)
    assert np.all(np.isfinite(report.coefficients.alphas))


def test_validate_problem_checks_sigma():
    p = make_uncontrolled_heat()
    with pytest.raises(AssertionError):
        validate_problem(dataclasses.replace(p, sigma=np.array([[np.inf]])), np.random.default_rng(0), samples=10)


def negative_cost_heat():
    """The heat problem with a running cost of -1 everywhere."""
    return dataclasses.replace(make_uncontrolled_heat(), running_cost=lambda t, x, u: -1.0)


@pytest.mark.parametrize(
    "bad, message",
    [
        (negative_cost_heat, "running cost must be nonnegative, got -1.0 at t="),
        (lambda: dataclasses.replace(make_uncontrolled_heat(), sigma=np.array([[np.inf]])), "sigma must be finite"),
        (lambda: dataclasses.replace(make_uncontrolled_heat(), terminal_cost=lambda x: -x[..., 0] ** 2), "terminal cost must be nonnegative"),
    ],
)
def test_validate_problem_names_the_broken_invariant(bad, message):
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}"):
        validate_problem(bad(), np.random.default_rng(0), samples=10)


def test_validate_problem_checks_under_python_optimize():
    # raised, not asserted: `python -O` strips assert statements, and they
    # accepted a negative running cost and an infinite sigma there
    script = (
        "import dataclasses, numpy as np\n"
        "from fbrrt.problem import make_uncontrolled_heat, validate_problem\n"
        "heat = make_uncontrolled_heat()\n"
        "for bad in (dataclasses.replace(heat, running_cost=lambda t, x, u: -1.0),\n"
        "            dataclasses.replace(heat, sigma=np.array([[np.inf]]))):\n"
        "    try:\n"
        "        validate_problem(bad, np.random.default_rng(0), samples=10)\n"
        "    except AssertionError as exc:\n"
        "        print('refused:', str(exc).split(',')[0])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["refused: running cost must be nonnegative", "refused: sigma must be finite"]


@pytest.mark.parametrize("n, m", [(2, 1), (3, 2)])
def test_lq_grid_drift_matches_pairwise_evaluation(n, m):
    # the (B, C, n) drift on a state x control grid equals, bit for bit,
    # each (state, control) pair evaluated alone, and A x + B u
    rng = np.random.default_rng(4)
    A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
    p = make_lq_problem(A, B, np.eye(n), np.eye(m), np.eye(n), noise=0.3, grid_points=5)
    X = p.sample_roi(rng, size=12)
    cands = np.asarray(p.control_candidates)
    grid = p.drift(0.3, X[:, None, :], cands[None, :, :])
    assert grid.shape == (len(X), len(cands), n)
    assert np.array_equal(grid, np.array([[p.drift(0.3, x, u) for u in cands] for x in X]))
    assert np.allclose(grid, (X @ A.T)[:, None, :] + (cands @ B.T)[None, :, :])


def test_batched_drift_matches_scalar():
    p = make_pendulum_l1()
    rng = np.random.default_rng(3)
    X = p.sample_roi(rng, size=16)
    U = np.asarray(p.control_candidates)[rng.integers(3, size=16)]
    batched = p.drift(0.3, X, U)
    rows = np.array([p.drift(0.3, x, u) for x, u in zip(X, U)])
    assert np.allclose(batched, rows)


# the accelerations of the default second-order problems, as their factories define them
ACCELERATIONS = {
    make_double_integrator_l1: lambda x, u: u[..., 0],
    make_pendulum_l1: lambda x, u: 9.81 * np.sin(x[..., 0]) - 0.1 * x[..., 1] + u[..., 0],
}


@pytest.mark.parametrize("factory", list(ACCELERATIONS))
def test_second_order_drift_rounds_like_stacked_channels(factory):
    # (rate, acceleration) written into one array rounds as np.stack of the
    # broadcast channels: on a grid, on pairs, at one pair and with a bare
    # (m,) candidate
    p, accel = factory(), ACCELERATIONS[factory]
    rng = np.random.default_rng(6)
    X = rng.uniform(p.roi_lower - 1.0, p.roi_upper + 1.0, size=(9, 2))
    cands = np.asarray(p.control_candidates)
    U = cands[rng.integers(len(cands), size=9)]
    for x, u in ((X[:, None, :], cands[None, :, :]), (X, U), (X[0], U[0]), (X, cands[2])):
        want = np.stack(np.broadcast_arrays(x[..., 1], accel(x, u)), axis=-1)
        assert same_bits(p.drift(0.3, x, u), want)
