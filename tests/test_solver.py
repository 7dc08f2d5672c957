import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from fbrrt.backward import BackwardPassError
from fbrrt.basis import ValueCoefficients, feature_count, features
from fbrrt.cli import _method_labels, apply_overrides, main, parse_config_text
from fbrrt.problem import TimeGrid, make_double_integrator_l1, make_lq_problem, make_uncontrolled_heat
from fbrrt.solver import (
    IterationStats,
    RolloutReport,
    RunReport,
    SolverConfig,
    SolverError,
    analytic_heat_value,
    comparison_report,
    fbrrt_solve,
    heat_value_at,
    riccati_oracle,
    rollout_policy,
)
import fbrrt.backward
import fbrrt.solver
from fbrrt.tree import BranchTree

from conftest import (
    correlated_noise_lq_problem,
    nan_exploration_cost_problem,
    nan_under_plus_one,
    policy_grid,
    policy_problems,
    scalar_problem,
)
from test_golden import RUN_CONFIG, RUN_FILES

DI = {
    "A": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "B": np.array([[0.0], [1.0]]),
    "Qr": 0.1 * np.eye(2),
    "R": np.eye(1),
    "Qf": np.eye(2),
}


def zero_coefficients(problem, steps):
    return ValueCoefficients(
        alphas=np.zeros((steps, feature_count(problem.state_dim))),
        lower=problem.roi_lower,
        upper=problem.roi_upper,
    )


def without_noise(problem):
    return dataclasses.replace(problem, sigma=np.zeros((problem.state_dim, problem.state_dim)))


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="other")
    with pytest.raises(ValueError):
        SolverConfig(problem="unknown")
    with pytest.raises(ValueError):
        SolverConfig(iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(M=1)
    with pytest.raises(ValueError):
        SolverConfig(eps_rrt=1.5)
    with pytest.raises(ValueError):
        SolverConfig(keep_fraction=0.0)


@pytest.mark.parametrize("field, value", [("rollout_count", 0), ("rollout_count", -3), ("steps", 0), ("steps", -1)])
def test_config_rejects_counts_below_one(field, value):
    # raised up front, naming the field, rather than deep inside the solve
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("ridge", [float("nan"), float("inf"), -1.0])
def test_config_rejects_a_ridge_outside_zero_to_inf(ridge):
    with pytest.raises(ValueError, match="ridge must be None or finite and >= 0"):
        SolverConfig(ridge=ridge)


@pytest.mark.parametrize("lam", [float("nan"), 0.0, -1.0])
def test_config_rejects_a_lambda_that_is_not_positive(lam):
    # refused when the config is built, not one phase into the solve
    with pytest.raises(ValueError, match="lam must be None or > 0"):
        SolverConfig(lam=lam)


def test_config_refuses_a_fixed_lambda_with_the_lambda_search():
    # the search picks lambda from its own grid and would ignore lam
    with pytest.raises(ValueError, match="^lam and lambda_search exclude each other"):
        SolverConfig(lam=5.0, lambda_search=True)
    assert SolverConfig(lam=None, lambda_search=True).lambda_search
    assert SolverConfig(lam=5.0, lambda_search=False).lam == 5.0


def test_cli_run_with_lam_and_lambda_search_exits_2(capsys):
    argv = ["run", "problem=heat", "steps=2", "M=4", "iterations=1", "lam=5.0", "lambda_search=true"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error: lam and lambda_search exclude each other" in err and "Traceback" not in err


def test_config_keeps_an_infinite_lambda():
    # softmin turns lambda = inf into uniform weights
    report = fbrrt_solve(SolverConfig(**TINY, lam=float("inf")))
    assert all(s.lam == float("inf") for s in report.iterations)


@pytest.mark.parametrize(
    "field, value",
    [
        ("M", 16.0),
        ("iterations", 2.0),
        ("rollout_count", 8.0),
        ("steps", 5.0),
        ("seed", 1.5),
        ("seed", True),
        ("M", "abc"),
        ("eps_rrt", "abc"),
        ("eps_opt", None),
        ("keep_fraction", False),
        ("lam", "abc"),
        ("ridge", True),
        ("lambda_search", 1),
        ("lambda_search", "true"),
    ],
)
def test_config_rejects_a_field_of_the_wrong_type(field, value):
    # a wrong type names the field up front instead of failing with a
    # TypeError deep inside the solve
    with pytest.raises(ValueError, match=f"^{field} must be of type"):
        SolverConfig(**{field: value})


def test_config_accepts_numpy_scalars_and_optional_none():
    config = SolverConfig(M=np.int64(8), seed=np.int32(3), eps_rrt=np.float64(0.5), lam=2, steps=None, ridge=None)
    assert config.M == 8 and config.lam == 2


def test_config_accepts_one_step_and_one_rollout():
    config = SolverConfig(steps=1, rollout_count=1, M=4, iterations=1)
    assert config.effective_steps() == 1
    assert len(fbrrt_solve(config).iterations) == 1


def test_config_defaults_per_problem():
    assert SolverConfig(problem="pendulum").effective_steps() == 60
    assert SolverConfig(problem="heat").effective_steps() == 20
    assert SolverConfig(problem="heat", steps=7).effective_steps() == 7


# ---------------------------------------------------------------------------
# rollouts


def test_rollout_zero_noise_zero_value_is_uncontrolled():
    p = without_noise(scalar_problem(x0=0.4))
    grid = TimeGrid.from_horizon(p.horizon, 10)
    report = rollout_policy(p, grid, zero_coefficients(p, 10), p.initial_state, 50, np.random.default_rng(0))
    # flat value estimate ties all scores; the L1 tie rule picks u=0, so the
    # state never moves and the cost is the terminal cost at x0
    assert report.std_cost == 0.0
    assert np.allclose(report.terminal_states, 0.4)
    assert report.mean_cost == pytest.approx(0.4**2)
    # control histogram: all mass on the u=0 candidate at every step
    assert np.array_equal(report.control_counts[:, 1], np.full(10, 50))


def rollout_reference(problem, grid, coeffs, x0, count, rng):
    """Reference for `rollout_policy`: scores the candidates, then evaluates
    the drift and running cost again at the chosen controls."""
    N, n = grid.steps, problem.state_dim
    cands = np.asarray(problem.control_candidates)
    X = np.tile(np.asarray(x0, dtype=float), (count, 1))
    costs = np.zeros(count)
    control_counts = np.zeros((N, len(cands)), dtype=int)
    sqrt_dt = np.sqrt(grid.dt)
    for i in range(N):
        t = i * grid.dt
        choice, _, _, _ = policy_grid(problem, t, X, coeffs.alpha(i + 1), coeffs.lower, coeffs.upper)
        U = cands[choice]
        control_counts[i] = np.bincount(choice, minlength=len(cands))
        costs += problem.running_cost(t, X, U) * grid.dt
        K = problem.drift(t, X, U)
        W = rng.normal(size=(count, n)) * sqrt_dt
        X = X + K * grid.dt + problem.apply_diffusion(W)
    costs += problem.terminal_cost(X)
    return RolloutReport(costs=costs, terminal_states=X, control_counts=control_counts)


@pytest.mark.parametrize("name", [*policy_problems(), "lq_correlated_noise"])
def test_rollout_matches_reference(name):
    # the correlated case checks that the stepped batch adds its noise as
    # one row alone would
    p = correlated_noise_lq_problem() if name == "lq_correlated_noise" else policy_problems()[name]
    grid = TimeGrid.from_horizon(p.horizon, 10)
    coeffs = ValueCoefficients(
        alphas=np.random.default_rng(8).normal(size=(10, feature_count(p.state_dim))),
        lower=p.roi_lower,
        upper=p.roi_upper,
    )
    got = rollout_policy(p, grid, coeffs, p.initial_state, 64, np.random.default_rng(9))
    want = rollout_reference(p, grid, coeffs, p.initial_state, 64, np.random.default_rng(9))
    assert np.array_equal(got.costs, want.costs)
    assert np.array_equal(got.terminal_states, want.terminal_states)
    assert np.array_equal(got.control_counts, want.control_counts)


def test_rollout_requires_enough_coefficients():
    p = scalar_problem()
    grid = TimeGrid.from_horizon(p.horizon, 10)
    with pytest.raises(ValueError):
        rollout_policy(p, grid, zero_coefficients(p, 5), p.initial_state, 4, np.random.default_rng(0))


def test_rollout_under_riccati_policy_matches_predicted_cost():
    grid = TimeGrid.from_horizon(1.0, 20)
    p = make_lq_problem(**DI, noise=0.3, horizon=1.0, initial_state=(0.5, 0.0))
    sol = riccati_oracle(**DI, sigma=0.3 * np.eye(2), grid=grid)
    coeffs = sol.to_coefficients(p.roi_lower, p.roi_upper)
    report = rollout_policy(p, grid, coeffs, p.initial_state, 2000, np.random.default_rng(1))
    predicted = sol.value(0, p.initial_state)
    assert report.mean_cost == pytest.approx(predicted, rel=0.10)


# ---------------------------------------------------------------------------
# solver loop


def test_solve_single_iteration():
    cfg = SolverConfig(problem="heat", steps=5, M=16, iterations=1, rollout_count=16, seed=0)
    report = fbrrt_solve(cfg)
    assert len(report.iterations) == 1
    assert report.coefficients.steps == 5


def test_solve_accumulated_min_non_increasing():
    cfg = SolverConfig(problem="double_integrator", steps=8, M=32, iterations=4, rollout_count=32, seed=1)
    report = fbrrt_solve(cfg)
    curve = report.accumulated_min_curve()
    assert len(curve) == 4
    assert np.all(np.diff(curve) <= 0)


@pytest.mark.parametrize("mode", ["fbrrt", "parallel-baseline"])
def test_solve_deterministic_json(mode):
    cfg = SolverConfig(problem="double_integrator", steps=6, M=24, iterations=3, rollout_count=24, seed=7, mode=mode)
    a = fbrrt_solve(cfg).to_json()
    b = fbrrt_solve(cfg).to_json()
    assert a == b
    assert "wall_time" not in a and "phase_times" not in a and "final_csv_wait" not in a


def test_solve_wall_time_covers_prune(monkeypatch):
    # an iteration's wall time runs until the tree is pruned for the next one
    prune = BranchTree.prune

    def slow_prune(tree, *args, **kwargs):
        time.sleep(0.2)
        return prune(tree, *args, **kwargs)

    monkeypatch.setattr(BranchTree, "prune", slow_prune)
    cfg = SolverConfig(problem="heat", steps=4, M=8, iterations=2, rollout_count=8, seed=0)
    report = fbrrt_solve(cfg)
    assert report.iterations[0].wall_time >= 0.2


@pytest.mark.parametrize("mode", ["fbrrt", "parallel-baseline"])
def test_timings_sidecar_holds_each_iterations_phase_times(mode, tmp_path):
    cfg = SolverConfig(
        problem="double_integrator", steps=5, M=16, iterations=3, rollout_count=8, seed=2, mode=mode,
        lambda_search=True, out_dir=str(tmp_path), run_id="t",
    )
    report = fbrrt_solve(cfg)
    timings = json.loads((tmp_path / "t" / "timings.json").read_text())
    assert set(timings) == {"wall_times", "phase_times", "final_csv_wait"}
    assert len(timings["phase_times"]) == len(timings["wall_times"]) == 3
    for phases, wall_time in zip(timings["phase_times"], timings["wall_times"]):
        assert list(phases) == ["forward", "backward", "rollout", "csv_wait", "csv_fork", "prune"]
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert sum(phases.values()) <= wall_time  # consecutive phases inside the iteration
    assert timings["final_csv_wait"] >= 0.0
    assert [s.phase_times for s in report.iterations] == timings["phase_times"]


def test_phase_times_name_the_slow_phase(monkeypatch):
    prune = BranchTree.prune

    def slow_prune(tree, *args, **kwargs):
        time.sleep(0.2)
        return prune(tree, *args, **kwargs)

    monkeypatch.setattr(BranchTree, "prune", slow_prune)
    report = fbrrt_solve(SolverConfig(problem="heat", steps=4, M=8, iterations=2, rollout_count=8, seed=0))
    first, last = (s.phase_times for s in report.iterations)
    assert first["prune"] >= 0.2 > max(first["forward"], first["backward"], first["rollout"])
    assert last["prune"] < 0.2  # the last iteration does not prune


TINY = dict(problem="heat", steps=3, M=4, iterations=2, rollout_count=4, seed=0)


def test_solve_error_names_the_forward_phase():
    p = dataclasses.replace(make_uncontrolled_heat(), sigma=np.array([[np.inf]]))
    with pytest.raises(SolverError, match=r"^iteration 1: non-finite state in layer 1") as err:
        fbrrt_solve(SolverConfig(**TINY), problem=p)
    assert (err.value.iteration, err.value.phase, err.value.layer) == (1, "forward", None)


def test_solve_stops_in_the_forward_phase_on_a_nonfinite_exploration_cost():
    # unchecked, the NaN run costs reached `default_lambda_grid`, and the
    # solve stopped in the backward phase with "lambda must be positive"
    config = SolverConfig(problem="double_integrator", M=64, iterations=1)
    with pytest.raises(SolverError, match=r"^iteration 1: running cost must be finite$") as err:
        fbrrt_solve(config, problem=nan_exploration_cost_problem())
    assert (err.value.iteration, err.value.phase) == (1, "forward")


@pytest.mark.parametrize("mode", ["fbrrt", "parallel-baseline"])
def test_solve_without_noise_completes(mode):
    # the tree or the chains, the backward pass and the rollouts all run on
    # sigma = 0, and every rollout of the zero policy stays at x0
    p = without_noise(make_uncontrolled_heat())
    report = fbrrt_solve(SolverConfig(**TINY, mode=mode), problem=p)
    assert len(report.iterations) == TINY["iterations"]
    assert np.all(np.isfinite(report.coefficients.alphas))
    assert [s.std_cost for s in report.iterations] == [0.0] * TINY["iterations"]


@pytest.mark.parametrize("lambda_search, layer", [(False, 3), (True, -1)])
def test_solve_error_names_the_backward_phase_and_layer(lambda_search, layer):
    # two states cannot determine three coefficients without ridge
    cfg = SolverConfig(**{**TINY, "M": 2}, ridge=0.0, lambda_search=lambda_search)
    with pytest.raises(SolverError, match=r"^iteration 1: ") as err:
        fbrrt_solve(cfg)
    assert (err.value.iteration, err.value.phase, err.value.layer) == (1, "backward", layer)
    assert isinstance(err.value.__cause__, BackwardPassError)


def test_solve_error_names_the_rollout_phase(monkeypatch):
    # a NaN rollout cost must not pass into the accumulated minimum
    rollout = fbrrt.solver.rollout_policy

    def nan_on_second_iteration(*args):
        calls.append(rollout(*args))
        if len(calls) == 2:
            calls[-1].costs[0] = np.nan
        return calls[-1]

    calls = []
    monkeypatch.setattr(fbrrt.solver, "rollout_policy", nan_on_second_iteration)
    with pytest.raises(SolverError, match=r"^iteration 2: non-finite rollout mean cost nan") as err:
        fbrrt_solve(SolverConfig(**TINY))
    assert (err.value.iteration, err.value.phase, err.value.layer) == (2, "rollout", None)


def test_solve_error_names_the_rollout_phase_for_a_nonfinite_policy_grid(monkeypatch):
    # the final rollout refuses a NaN drift on its candidate grid
    rollout = fbrrt.solver.rollout_policy
    poisoned = nan_under_plus_one(make_double_integrator_l1(), "drift")
    monkeypatch.setattr(fbrrt.solver, "rollout_policy", lambda problem, *args: rollout(poisoned, *args))
    with pytest.raises(SolverError, match=r"^iteration 1: drift must be finite on the rollouts' policy grid") as err:
        fbrrt_solve(SolverConfig(problem="double_integrator", steps=3, M=8, iterations=1, rollout_count=8, seed=0))
    assert (err.value.iteration, err.value.phase, err.value.layer) == (1, "rollout", None)


def test_solve_report_files(tmp_path):
    cfg = SolverConfig(
        problem="heat", steps=4, M=12, iterations=2, rollout_count=8, seed=3,
        out_dir=str(tmp_path), run_id="t",
    )
    fbrrt_solve(cfg)
    out = tmp_path / "t"
    assert (out / "report.json").exists()
    assert (out / "timings.json").exists()
    assert (out / "01.tree.csv").exists()
    assert (out / "02.rollouts.csv").exists()
    data = json.loads((out / "report.json").read_text())
    assert len(data["iterations"]) == 2
    assert len(json.loads((out / "timings.json").read_text())["wall_times"]) == 2


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fork", [True, False])
@pytest.mark.parametrize("iteration", [1, 2])
def test_solve_unwritable_csv_is_an_output_error(iteration, fork, tmp_path, monkeypatch, capfd):
    # iteration 2 is the last: its writer is reaped before report.save
    if not fork:
        monkeypatch.delattr(os, "fork")
    (tmp_path / "t" / f"0{iteration}.tree.csv").mkdir(parents=True)
    cfg = SolverConfig(**TINY, out_dir=str(tmp_path), run_id="t")
    with pytest.raises(SolverError, match=f"^iteration {iteration}: ") as err:
        fbrrt_solve(cfg)
    assert (err.value.iteration, err.value.phase, err.value.layer) == (iteration, "output", None)
    assert not (tmp_path / "t" / "report.json").exists()
    if fork:  # the child prints its traceback
        assert "IsADirectoryError" in capfd.readouterr().err
    else:
        assert isinstance(err.value.__cause__, IsADirectoryError)
    assert_no_child_left()


def test_solve_error_leaves_no_writer_behind(tmp_path, monkeypatch):
    backward_pass = fbrrt.backward.backward_pass

    def fail_on_second_iteration(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("injected")
        return backward_pass(*args, **kwargs)

    calls = []
    monkeypatch.setattr(fbrrt.backward, "backward_pass", fail_on_second_iteration)
    with pytest.raises(SolverError, match="injected") as err:
        fbrrt_solve(SolverConfig(**TINY, out_dir=str(tmp_path), run_id="t"))
    assert (err.value.iteration, err.value.phase) == (2, "backward")
    assert_no_child_left()
    assert (tmp_path / "t" / "01.rollouts.csv").exists()


def test_solve_forks_one_writer_at_a_time(tmp_path, monkeypatch):
    fork = os.fork
    alive_at_fork = []

    def checked_fork():
        try:
            alive_at_fork.append(os.waitpid(-1, os.WNOHANG))  # a running child gives (0, 0)
        except ChildProcessError:
            pass
        return fork()

    monkeypatch.setattr(os, "fork", checked_fork)
    report = fbrrt_solve(SolverConfig(**{**TINY, "iterations": 3}, out_dir=str(tmp_path), run_id="t"))
    assert alive_at_fork == []
    assert_no_child_left()
    assert sorted(f.name for f in (tmp_path / "t").iterdir()) == sorted(
        [f"0{k}.{kind}.csv" for k in (1, 2, 3) for kind in ("tree", "rollouts")] + ["report.json", "timings.json"]
    )
    assert len(report.iterations) == 3


def test_solve_writes_inline_while_another_thread_runs(tmp_path, monkeypatch):
    # a fork while another thread holds a lock would leave it held in the child
    def refuse_fork():
        raise AssertionError("forked while another thread runs")

    monkeypatch.setattr(os, "fork", refuse_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        fbrrt_solve(SolverConfig(**TINY, out_dir=str(tmp_path), run_id="t"))
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert (tmp_path / "t" / "02.tree.csv").exists()


@pytest.mark.parametrize("mode", sorted(RUN_FILES))
def test_run_directory_without_fork_matches_golden_hashes(mode, tmp_path, monkeypatch, capsys):
    # the inline writer, used where os.fork is missing, writes the same bytes
    monkeypatch.delattr(os, "fork")
    config = tmp_path / "run.cfg"
    config.write_text(RUN_CONFIG)
    assert main(["run", str(config), "--mode", mode, "--out", str(tmp_path / "out")]) == 0
    run_dir = tmp_path / "out" / f"double_integrator-{mode}-seed3"
    got = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in RUN_FILES[mode]}
    assert got == RUN_FILES[mode]


# ---------------------------------------------------------------------------
# oracles


def test_riccati_terminal_and_one_step():
    grid = TimeGrid(dt=1.0, steps=1)
    sol = riccati_oracle(
        A=np.zeros((1, 1)), B=np.eye(1), Qr=np.zeros((1, 1)), R=np.eye(1),
        Qf=np.eye(1), sigma=np.zeros((1, 1)), grid=grid,
    )
    assert sol.P[1][0, 0] == 1.0
    # minimize u^2 + (x + u)^2 over u: u = -x/2, value x^2/2
    assert sol.P[0][0, 0] == pytest.approx(0.5)
    assert sol.gains[0][0, 0] == pytest.approx(0.5)
    assert np.all(sol.c == 0.0)  # no noise, no trace accumulation


def test_riccati_trace_term_accumulates():
    grid = TimeGrid.from_horizon(1.0, 10)
    sol = riccati_oracle(**DI, sigma=0.3 * np.eye(2), grid=grid)
    assert sol.c[10] == 0.0
    expected = sum(0.09 * np.trace(sol.P[i + 1]) * grid.dt for i in range(10))
    assert sol.c[0] == pytest.approx(expected)
    assert np.all(np.diff(sol.c) < 0)  # c grows toward t=0


def test_riccati_rejects_semidefinite_R():
    with pytest.raises(ValueError):
        riccati_oracle(
            A=np.zeros((1, 1)), B=np.eye(1), Qr=np.eye(1), R=np.zeros((1, 1)),
            Qf=np.eye(1), sigma=np.eye(1), grid=TimeGrid(dt=0.1, steps=2),
        )


def test_riccati_coefficients_match_value():
    grid = TimeGrid.from_horizon(1.0, 8)
    sol = riccati_oracle(**DI, sigma=0.3 * np.eye(2), grid=grid)
    lo, hi = -2.0 * np.ones(2), 2.0 * np.ones(2)
    coeffs = sol.to_coefficients(lo, hi)
    rng = np.random.default_rng(2)
    for i in (1, 4, 8):
        for x in rng.uniform(lo, hi, size=(20, 2)):
            assert features(x, lo, hi) @ coeffs.alpha(i) == pytest.approx(sol.value(i, x), rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("seed", range(8))
def test_pruned_lq_solve_stays_on_the_riccati_solution(seed, monkeypatch):
    # the Riccati gate's LQ solve: pruning and the softmin weights select
    # edges on their outcomes, yet neither biases a target, so after 5
    # pruned iterations the estimate of V(0, x0) and every fitted alpha_i
    # still match the Riccati recursion
    grid = TimeGrid.from_horizon(1.5, 30)
    lower, upper = np.array([-1.2, -1.0]), np.array([1.2, 1.0])
    p = make_lq_problem(**DI, noise=0.3, horizon=1.5, roi_lower=lower, roi_upper=upper)
    passes, backward_pass = [], fbrrt.backward.backward_pass

    def recorded(*args, **kwargs):
        passes.append(backward_pass(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(fbrrt.backward, "backward_pass", recorded)
    report = fbrrt_solve(SolverConfig(problem="lq", steps=30, M=512, iterations=5, lam=1e9, seed=seed), problem=p)
    sol = riccati_oracle(**DI, sigma=0.3 * np.eye(2), grid=grid)
    assert len(passes) == 5
    assert abs(passes[-1].initial_value - sol.value(0, p.initial_state)) < 0.01
    oracle = sol.to_coefficients(lower, upper)
    errors = [
        np.linalg.norm(report.coefficients.alpha(i) - oracle.alpha(i)) / np.linalg.norm(oracle.alpha(i))
        for i in range(1, 31)
    ]
    assert max(errors) < 0.02


def test_heat_value_closed_form():
    # 1D, unit noise, g = x^2: V(t, x) = x^2 + (T - t)
    assert heat_value_at([[1.0]], 0.0, [[1.0]], 1.0, 0.0, [0.5]) == pytest.approx(1.25)
    assert heat_value_at([[1.0]], 0.0, [[1.0]], 1.0, 1.0, [0.5]) == pytest.approx(0.25)
    assert heat_value_at([[0.0]], 2.5, [[1.0]], 1.0, 0.3, [0.7]) == pytest.approx(2.5)


def test_heat_coefficients_terminal_matches_g():
    grid = TimeGrid.from_horizon(1.0, 5)
    lo, hi = np.array([-3.0]), np.array([3.0])
    coeffs = analytic_heat_value([[2.0]], 0.5, [[1.0]], grid, lo, hi)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-3, 3, size=(20, 1)):
        assert features(x, lo, hi) @ coeffs.alpha(5) == pytest.approx(2.0 * x[0] ** 2 + 0.5, rel=1e-12)
        assert features(x, lo, hi) @ coeffs.alpha(2) == pytest.approx(heat_value_at([[2.0]], 0.5, [[1.0]], 1.0, 2 * 0.2, x))


def test_heat_value_against_monte_carlo():
    rng = np.random.default_rng(4)
    sigma, T, q, x0 = 0.8, 1.5, 1.3, 0.4
    draws = x0 + sigma * np.sqrt(T) * rng.normal(size=100_000)
    g = q * draws**2
    se = g.std() / np.sqrt(g.size)
    exact = heat_value_at([[q]], 0.0, [[sigma]], T, 0.0, [x0])
    assert abs(g.mean() - exact) < 3 * se


# ---------------------------------------------------------------------------
# comparison protocol


def make_report(costs, wall_time=1.0, seed=0, mode="fbrrt"):
    acc = np.minimum.accumulate(costs)
    stats = [
        IterationStats(
            iteration=i + 1, mean_cost=float(c), std_cost=0.0, accumulated_min=float(a),
            lam=1.0, ess_min=1.0, ess_mean=1.0, residual_total=0.0, layer_widths=[1],
            control_counts=[], wall_time=wall_time,
        )
        for i, (c, a) in enumerate(zip(costs, acc))
    ]
    coeffs = ValueCoefficients(alphas=np.zeros((1, 3)), lower=np.array([-1.0]), upper=np.array([1.0]))
    return RunReport(config={}, seed=seed, mode=mode, iterations=stats, coefficients=coeffs, initial_state=[0.0])


def test_comparison_normalized_curve_arithmetic():
    report = make_report([4.0, 2.0, 2.0])
    cmp = comparison_report({0: [report]}, {0: [report]}, buckets=3)
    vals = [v for state, method, run, t, v in cmp.rows if method == "fbrrt"]
    assert np.allclose(vals, [1.0, 0.5, 0.5])


def test_comparison_identical_sets_symmetric():
    reports = [make_report([5.0, 3.0, 1.0]), make_report([4.0, 4.0, 2.0])]
    cmp = comparison_report({0: reports}, {0: reports})
    a = [v for _, m, _, _, v in cmp.rows if m == "fbrrt"]
    b = [v for _, m, _, _, v in cmp.rows if m == "baseline"]
    np.testing.assert_array_equal(a, b)  # NaN (no iteration finished yet) in the same rows
    assert all(0 < v <= 1 for v in a if not np.isnan(v))
    medians = cmp.final_bucket_medians()
    assert medians[0]["fbrrt"] == medians[0]["baseline"]


def test_comparison_has_no_cost_before_the_first_iteration():
    # buckets at 0.25, 0.5, 0.75 and 1.0 s: the slow run's first iteration
    # ends at 0.8 s, the fast run's at 0.5 s
    fast = make_report([2.0, 1.0], wall_time=0.5)
    slow = make_report([3.0, 3.0], wall_time=0.8, mode="parallel-baseline")
    cmp = comparison_report({0: [fast]}, {0: [slow]}, buckets=4)
    assert np.allclose(cmp.bucket_times, [0.25, 0.5, 0.75, 1.0])
    curves = {m: [v for _, m2, _, _, v in cmp.rows if m2 == m] for m in ("fbrrt", "baseline")}
    np.testing.assert_array_equal(curves["fbrrt"], [np.nan, 2 / 3, 2 / 3, 1 / 3])
    np.testing.assert_array_equal(curves["baseline"], [np.nan, np.nan, np.nan, 1.0])
    assert cmp.final_bucket_medians() == {0: {"fbrrt": 1 / 3, "baseline": 1.0}}


def test_comparison_last_bucket_waits_for_every_first_iteration():
    # the fast run ends at 0.5 s, before the slow run's first iteration
    # (0.8 s): the last bucket moves out to 0.8 s, so both have a cost there
    fast = make_report([2.0, 1.0], wall_time=0.25)
    slow = make_report([3.0, 3.0], wall_time=0.8, mode="parallel-baseline")
    cmp = comparison_report({0: [fast]}, {0: [slow]}, buckets=4)
    assert np.allclose(cmp.bucket_times, [0.2, 0.4, 0.6, 0.8])
    curves = {m: [v for _, m2, _, _, v in cmp.rows if m2 == m] for m in ("fbrrt", "baseline")}
    np.testing.assert_array_equal(curves["fbrrt"], [np.nan, 2 / 3, 1 / 3, 1 / 3])
    np.testing.assert_array_equal(curves["baseline"], [np.nan, np.nan, np.nan, 1.0])
    assert cmp.final_bucket_medians() == {0: {"fbrrt": 1 / 3, "baseline": 1.0}}


def test_comparison_iteration_medians():
    # per state and method, the median normalized acc-min after each
    # iteration, cut to the method's shortest run
    a = [make_report([4.0, 2.0, 2.0]), make_report([2.0, 2.0, 1.0]), make_report([3.0, 1.0, 1.0])]
    b = [make_report([8.0, 4.0]), make_report([6.0, 6.0, 6.0])]
    cmp = comparison_report({0: a}, {0: b}, buckets=2)
    medians = cmp.iteration_medians[0]
    np.testing.assert_array_equal(medians["fbrrt"], np.array([3.0, 2.0, 1.0]) / 8.0)
    np.testing.assert_array_equal(medians["baseline"], np.array([7.0, 5.0]) / 8.0)


def test_comparison_rejects_mismatched_states():
    r = make_report([1.0])
    with pytest.raises(ValueError):
        comparison_report({0: [r]}, {1: [r]})
    with pytest.raises(ValueError):
        comparison_report({}, {})


def test_comparison_csv(tmp_path):
    cmp = comparison_report({0: [make_report([2.0, 1.0])]}, {0: [make_report([3.0, 3.0])]}, buckets=2)
    out = tmp_path / "cmp.csv"
    cmp.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "state,method,run,bucket_time,normalized_acc_min"
    assert len(lines) == 1 + 4


# ---------------------------------------------------------------------------
# CLI


def test_parse_config_text_types_and_overrides():
    cfg = parse_config_text(
        """
        # comment line
        problem = heat
        M = 32            # trailing comment
        eps_rrt = 0.5
        lambda_search = true
        lam = none
        problem.noise = 2.0
        problem.initial_state = 1.0, 0.5
        problem.roi_lower = 0.5,
        run_id = a,b
        """
    )
    assert cfg.problem == "heat"
    assert cfg.M == 32
    assert cfg.eps_rrt == 0.5
    assert cfg.lambda_search is True
    assert cfg.lam is None
    assert cfg.problem_overrides == {"noise": 2.0, "initial_state": (1.0, 0.5), "roi_lower": (0.5,)}
    assert cfg.run_id == "a,b"


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_config_text("M 32")
    with pytest.raises(ValueError, match="unknown config key 'unknown_key'"):
        parse_config_text("unknown_key = 1")
    with pytest.raises(ValueError, match="bogus"):
        parse_config_text("problem = heat\nproblem.bogus = 1")


def test_apply_overrides():
    cfg = SolverConfig(problem="heat")
    out = apply_overrides(cfg, ["seed=9", "problem.noise=0.5", "mode=parallel-baseline"])
    assert out.seed == 9
    assert out.mode == "parallel-baseline"
    assert out.problem_overrides["noise"] == 0.5
    with pytest.raises(ValueError):
        apply_overrides(cfg, ["nonsense=1"])


def test_apply_overrides_refuses_an_item_without_equals():
    with pytest.raises(ValueError, match="^override 'seed' is not key=value$"):
        apply_overrides(SolverConfig(), ["seed"])


def test_cli_run_solver_error_exits_1(capsys):
    # lambda = 1e-300 puts all weight on one path, and without a ridge the
    # first interior fit is singular
    assert main(["run", "M=16", "steps=6", "iterations=1", "lam=1e-300", "ridge=0"]) == 1
    err = capsys.readouterr().err
    assert err == "solver error: iteration 1: weighted design has rank 1 < 6 and ridge is zero (layer 5)\n"


def test_cli_run_writes_report(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("problem = heat\nsteps = 4\nM = 12\niterations = 2\nrollout_count = 8\nrun_id = demo\n")
    code = main(["run", str(config), "--seed", "5", "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "demo" / "report.json").exists()
    out = capsys.readouterr().out
    assert "iter  1" in out and "iter  2" in out


def test_cli_run_takes_an_initial_state_tuple(tmp_path, capsys):
    argv = ["run", "problem=double_integrator", "problem.initial_state=1.0,0.5", "M=16", "steps=5", "iterations=1"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "double_integrator-fbrrt-seed0" / "report.json").read_text())
    assert report["config"]["problem_overrides"] == {"initial_state": [1.0, 0.5]}
    assert report["initial_state"] == [1.0, 0.5]


def test_cli_run_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("problem = no_such_problem\n")
    assert main(["run", str(config)]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_cli_run_without_a_config_file_takes_overrides(capsys):
    # the first positional argument is an override, not a config path
    assert main(["run", "problem=heat", "steps=4", "M=8", "iterations=1", "rollout_count=8"]) == 0
    assert "iter  1" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["bogus=3", "problem.bogus=1"])
@pytest.mark.parametrize("where", ["file", "override"])
def test_cli_run_unknown_key_exits_2(tmp_path, capsys, line, where):
    config = tmp_path / "run.cfg"
    config.write_text("problem = heat\nsteps = 2\nM = 4\niterations = 1\n" + (line if where == "file" else ""))
    argv = ["run", str(config)] + ([line] if where == "override" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bogus" in err and "Traceback" not in err


def test_cli_run_wrong_type_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("problem = heat\nsteps = 2\nM = 4\niterations = 1\n")
    assert main(["run", str(config), "M=16.0"]) == 2
    err = capsys.readouterr().err
    assert "config error: M must be of type Integral" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_lq_without_its_matrices_exits_2(tmp_path, capsys, command):
    config = tmp_path / "lq.cfg"
    config.write_text("problem = lq\nsteps = 2\nM = 4\niterations = 1\nrollout_count = 4\n")
    argv = ["run", str(config)] if command == "run" else ["compare", str(config), str(config), "--states", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "A, B, Qr, R, Qf, noise" in err and "Traceback" not in err


def test_cli_oracle_passes(capsys):
    assert main(["oracle"]) == 0
    out = capsys.readouterr().out
    assert "oracle checks passed" in out
    assert "FAIL" not in out


def test_cli_oracle_reports_a_broken_problem(monkeypatch, capsys):
    broken = lambda: dataclasses.replace(make_uncontrolled_heat(), running_cost=lambda t, x, u: -1.0)
    monkeypatch.setitem(fbrrt.solver.PROBLEM_FACTORIES, "broken", broken)
    assert main(["oracle"]) == 1
    out = capsys.readouterr().out
    assert "FAIL problem invariants: broken: running cost must be nonnegative, got -1.0" in out
    assert out.count("FAIL ") == 1 and out.endswith("oracle checks FAILED\n")


def test_cli_compare_small(tmp_path, capsys):
    cfg_text = "problem = heat\nsteps = 3\nM = 8\niterations = 2\nrollout_count = 8\n"
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text(cfg_text)
    b.write_text(cfg_text + "mode = parallel-baseline\n")
    out = tmp_path / "cmp.csv"
    code = main(["compare", str(a), str(b), "--states", "2", "--seeds", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "state,method,run,bucket_time,normalized_acc_min"
    # 2 states x 2 methods x 1 run x 10 buckets
    assert len(lines) == 1 + 40


def test_cli_compare_prints_medians_by_iteration(tmp_path, capsys):
    cfg_text = "problem = heat\nsteps = 3\nM = 8\niterations = 3\nrollout_count = 8\n"
    a, b = tmp_path / "fbrrt.cfg", tmp_path / "parallel-baseline.cfg"  # methods are labelled by file name
    a.write_text(cfg_text)
    b.write_text(cfg_text + "mode = parallel-baseline\n")
    argv = ["compare", str(a), str(b), "--states", "2", "--seeds", "2", "--out", str(tmp_path / "cmp.csv")]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    for state in (0, 1):
        at = lines.index(next(line for line in lines if line.startswith(f"state {state}: fbrrt=")))
        for line, method in zip(lines[at + 1 : at + 3], ("fbrrt", "parallel-baseline")):
            label, values = line.split(":")
            assert label == f"  {method} by iteration"
            curve = [float(v) for v in values.split()]
            assert len(curve) == 3 and all(0 < v <= 1 for v in curve)
            assert curve == sorted(curve, reverse=True)  # a median of running minima never rises


def same_mode_configs(tmp_path):
    """Two tree configs of one mode that differ in M, in files of one name."""
    cfg_text = "problem = heat\nsteps = 3\niterations = 3\nrollout_count = 8\n"
    paths = []
    for folder, M in (("small", 8), ("large", 16)):
        (tmp_path / folder).mkdir()
        paths.append(tmp_path / folder / "heat.cfg")
        paths[-1].write_text(cfg_text + f"M = {M}\n")
    return paths


def test_cli_compare_labels_same_mode_configs_apart(tmp_path, capsys):
    paths = same_mode_configs(tmp_path)
    out = tmp_path / "cmp.csv"
    argv = ["compare", *map(str, paths), "--states", "2", "--seeds", "2", "--out", str(out)]
    assert main(argv) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert {row.split(",")[1] for row in rows} == {"heat-a", "heat-b"}
    assert len(rows) == 2 * 2 * 2 * 10  # states x methods x runs x buckets
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith(("state 0: heat", "state 1: heat", "  heat"))]
    medians = [float(v.split("=")[-1]) for line in printed for v in line.split(":", 1)[1].split()]
    assert len(printed) == 2 * 3 and len(medians) == 2 * (2 + 2 * 3)
    assert all(np.isfinite(medians))


def test_cli_compare_in_a_fresh_process_has_finite_medians(tmp_path):
    # a fresh interpreter's first solve pays its start-up: timed, its first
    # iteration outlasted the shortest run, whose total ends the last bucket
    paths = same_mode_configs(tmp_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["compare", *map(str, paths), "--states", "2", "--seeds", "2", "--out", str(tmp_path / "cmp.csv")]
    done = subprocess.run([sys.executable, "-m", "fbrrt.cli", *argv], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    finals = [line for line in done.stdout.splitlines() if line.startswith(("state 0: heat", "state 1: heat"))]
    medians = [float(v.split("=")[-1]) for line in finals for v in line.split(":", 1)[1].split()]
    assert len(medians) == 2 * 2 and all(np.isfinite(medians))


def test_compare_labels_are_config_stems():
    assert _method_labels("configs/double_integrator.cfg", "x/double_integrator_baseline.cfg") == (
        "double_integrator",
        "double_integrator_baseline",
    )
    assert _method_labels("a/heat.cfg", "b/heat.cfg") == ("heat-a", "heat-b")
