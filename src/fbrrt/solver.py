"""Solver loop (expand -> backward -> rollout -> prune), oracles, and reports.

The run report JSON is canonical: it contains only seed-deterministic
fields, so two runs with the same config and seed produce byte-identical
files.  Wall-clock timings go to a separate sidecar and feed the
runtime-bucketed method comparison.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import numbers
import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import backward as bw
from .backward import RolloutReport
from .basis import ValueCoefficients, quadratic_to_coefficients
from .forward import ForwardConfig, forward_expand, parallel_forward_baseline
from .problem import (
    ControlProblem,
    TimeGrid,
    make_double_integrator_l1,
    make_lq_problem,
    make_pendulum_l1,
    make_uncontrolled_heat,
)
from .tree import BranchTree


class SolverError(RuntimeError):
    """A solve that stopped.  `iteration`, `phase` ("forward", "backward",
    "rollout" or "output", the last for an iteration's CSV files that could
    not be written) and `layer` (from a BackwardPassError, else None) say
    where; they are None for an error raised outside the iteration loop."""

    def __init__(self, message: str, iteration: Optional[int] = None, phase: Optional[str] = None, layer=None):
        super().__init__(message)
        self.iteration, self.phase, self.layer = iteration, phase, layer

    @classmethod
    def at(cls, iteration: int, phase: str, exc: Exception) -> "SolverError":
        layer = exc.layer if isinstance(exc, bw.BackwardPassError) else None
        return cls(f"iteration {iteration}: {exc}", iteration=iteration, phase=phase, layer=layer)


PROBLEM_FACTORIES = {
    "double_integrator": make_double_integrator_l1,
    "pendulum": make_pendulum_l1,
    "lq": make_lq_problem,
    "heat": make_uncontrolled_heat,
}

# artifact-chosen grids matching the per-problem default time steps
DEFAULT_STEPS = {"double_integrator": 30, "pendulum": 60, "lq": 30, "heat": 20}

# numpy scalars pass, a bool only as a bool; steps, lam and ridge may be None
_FIELD_TYPES = {
    **dict.fromkeys(("steps", "M", "iterations", "rollout_count", "seed"), numbers.Integral),
    **dict.fromkeys(("eps_rrt", "eps_opt", "keep_fraction", "lam", "ridge"), numbers.Real),
    "lambda_search": bool,
}


@dataclass
class SolverConfig:
    problem: str = "double_integrator"
    problem_overrides: dict = field(default_factory=dict)
    steps: Optional[int] = None  # default per problem
    M: int = 512
    eps_rrt: float = 0.7
    eps_opt: float = 0.7
    keep_fraction: float = 0.3
    lam: Optional[float] = None  # fixed lambda; None -> scale from the tree
    lambda_search: bool = False  # grid-search lambda each iteration
    ridge: Optional[float] = None  # default 1e-8 * M
    iterations: int = 10
    rollout_count: int = 256
    seed: int = 0
    mode: str = "fbrrt"  # or "parallel-baseline"
    out_dir: Optional[str] = None
    run_id: Optional[str] = None

    def __post_init__(self):
        if self.mode not in ("fbrrt", "parallel-baseline"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.problem not in PROBLEM_FACTORIES:
            raise ValueError(f"unknown problem {self.problem!r}; choose from {sorted(PROBLEM_FACTORIES)}")
        try:
            inspect.signature(PROBLEM_FACTORIES[self.problem]).bind_partial(**self.problem_overrides)
        except TypeError as exc:
            raise ValueError(f"problem {self.problem!r}: {exc}") from exc
        for name, kind in _FIELD_TYPES.items():
            v = getattr(self, name)
            wrong = not isinstance(v, kind) or isinstance(v, bool) != (kind is bool)
            if wrong and not (v is None and name in ("steps", "lam", "ridge")):
                raise ValueError(f"{name} must be of type {kind.__name__}, got {v!r}")
        for name, low in (("iterations", 1), ("M", 2), ("steps", 1), ("rollout_count", 1)):
            if getattr(self, name) is not None and getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        for name in ("eps_rrt", "eps_opt"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0 < self.keep_fraction <= 1:
            raise ValueError("keep_fraction must be in (0, 1]")
        if self.lam is not None and not self.lam > 0:  # also refuses NaN; inf gives uniform weights
            raise ValueError(f"lam must be None or > 0, got {self.lam}")
        if self.lam is not None and self.lambda_search:  # the search would ignore lam
            raise ValueError("lam and lambda_search exclude each other: set lam = none or lambda_search = false")
        if self.ridge is not None and not 0 <= self.ridge < np.inf:
            raise ValueError(f"ridge must be None or finite and >= 0, got {self.ridge}")

    def build_problem(self) -> ControlProblem:
        """The factory's problem; ValueError naming the arguments that have
        no default and no override."""
        factory = PROBLEM_FACTORIES[self.problem]
        params = inspect.signature(factory).parameters.values()
        missing = [p.name for p in params if p.default is p.empty and p.name not in self.problem_overrides]
        if missing:
            raise ValueError(f"problem {self.problem!r} needs {', '.join(missing)}")
        return factory(**self.problem_overrides)

    def effective_steps(self) -> int:
        return self.steps if self.steps is not None else DEFAULT_STEPS[self.problem]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def rollout_policy(
    problem: ControlProblem,
    grid: TimeGrid,
    coeffs: ValueCoefficients,
    x0,
    count: int,
    rng: np.random.Generator,
) -> RolloutReport:
    """Simulate `count` chains under the target policy u_i = mu(x_i; alpha_{i+1})."""
    return bw.rollout_policies(problem, grid, [coeffs], x0, count, rng)[0]


@dataclass
class IterationStats:
    iteration: int
    mean_cost: float
    std_cost: float
    accumulated_min: float
    lam: float
    ess_min: float
    ess_mean: float
    residual_total: float
    layer_widths: list
    control_counts: list
    # excluded from the canonical report; the CSV files are written by a
    # child process, so only the wait for the previous one counts here
    wall_time: float
    # excluded too: seconds per phase of the iteration (`_PhaseClock`)
    phase_times: dict = field(default_factory=dict)


class _PhaseClock:
    """Seconds per phase of one iteration, each phase timed from the end of
    the one before: the forward pass, the backward pass (the lambda search
    and its rollouts included), the final rollout, the wait for the previous
    iteration's CSV writer and the fork of this one's (about 0 without
    out_dir), and the prune."""

    def __init__(self):
        self.times: dict = {}
        self._last = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.times[phase], self._last = now - self._last, now


@dataclass
class RunReport:
    config: dict
    seed: int
    mode: str
    iterations: list  # list[IterationStats]
    coefficients: ValueCoefficients
    initial_state: list
    final_csv_wait: float = 0.0  # excluded from the canonical report: the wait for the last CSV writer

    def accumulated_min_curve(self) -> np.ndarray:
        return np.array([s.accumulated_min for s in self.iterations])

    def cumulative_times(self) -> np.ndarray:
        return np.cumsum([s.wall_time for s in self.iterations])

    def to_dict(self) -> dict:
        its = []
        for s in self.iterations:
            d = dataclasses.asdict(s)
            d.pop("wall_time")
            d.pop("phase_times")
            its.append(d)
        return {
            "config": self.config,
            "seed": self.seed,
            "mode": self.mode,
            "initial_state": self.initial_state,
            "iterations": its,
            "coefficients": self.coefficients.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(self.to_json())
        timings = {
            "wall_times": [s.wall_time for s in self.iterations],
            "phase_times": [s.phase_times for s in self.iterations],
            "final_csv_wait": self.final_csv_wait,
        }
        (out / "timings.json").write_text(json.dumps(timings, indent=2))
        return out / "report.json"


def _iteration_rng(seed: int, iteration: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, iteration, stream])


def fbrrt_solve(config: SolverConfig, problem: Optional[ControlProblem] = None) -> RunReport:
    """Iterate forward expansion, weighted backward regression, rollout
    evaluation, and heuristic pruning; deterministic per config seed.

    Iteration 1 always runs pure exploration (eps_rrt=1, eps_opt=0) since no
    value estimate exists yet.  In parallel-baseline mode a fresh
    independent-chain tree replaces the RRT growth and no pruning happens.
    """
    if problem is None:
        problem = config.build_problem()
    grid = TimeGrid.from_horizon(problem.horizon, config.effective_steps())
    forward_rng = np.random.default_rng([config.seed, 0, 0])
    coeffs: Optional[ValueCoefficients] = None
    tree = BranchTree(problem, grid)
    tree.add_root()
    stats: list[IterationStats] = []
    acc_min = np.inf
    out_dir = None
    if config.out_dir is not None:
        run_id = config.run_id or f"{config.problem}-{config.mode}-seed{config.seed}"
        out_dir = Path(config.out_dir) / run_id
        out_dir.mkdir(parents=True, exist_ok=True)

    writer = _CsvWriter()
    try:
        for it in range(1, config.iterations + 1):
            t_start = time.perf_counter()
            clock = _PhaseClock()
            first = coeffs is None
            fwd = ForwardConfig(
                target_width=config.M,
                eps_rrt=1.0 if first else config.eps_rrt,
                eps_opt=0.0 if first else config.eps_opt,
            )
            try:
                if config.mode == "fbrrt":
                    forward_expand(tree, coeffs, fwd, forward_rng)
                else:
                    tree = parallel_forward_baseline(problem, grid, coeffs, fwd, forward_rng)
            except ValueError as exc:
                raise SolverError.at(it, "forward", exc) from exc
            clock.lap("forward")
            try:
                if config.lambda_search:
                    artifacts = bw.lambda_search(
                        tree,
                        bw.default_lambda_grid(tree),
                        config.rollout_count,
                        seed=config.seed * 1_000_003 + it,
                        ridge=config.ridge,
                    )
                else:
                    lam = config.lam if config.lam is not None else float(bw.default_lambda_grid(tree)[2])
                    artifacts = bw.backward_pass(tree, lam, ridge=config.ridge)
            except (bw.BackwardPassError, ValueError) as exc:
                raise SolverError.at(it, "backward", exc) from exc
            clock.lap("backward")
            coeffs = artifacts.coefficients
            try:
                rollout = rollout_policy(
                    problem, grid, coeffs, problem.initial_state, config.rollout_count, _iteration_rng(config.seed, it, 1)
                )
                if not np.isfinite(rollout.mean_cost):
                    raise ValueError(f"non-finite rollout mean cost {rollout.mean_cost}")
            except ValueError as exc:
                raise SolverError.at(it, "rollout", exc) from exc
            clock.lap("rollout")
            acc_min = min(acc_min, rollout.mean_cost)
            widths = tree.layer_sizes
            if out_dir is not None:
                writer.wait()
            clock.lap("csv_wait")
            if out_dir is not None:
                writer.start(it, out_dir, tree, artifacts.rho, rollout)
            clock.lap("csv_fork")
            if config.mode == "fbrrt" and it < config.iterations:
                tree = tree.prune(artifacts.rho, config.keep_fraction)
            clock.lap("prune")
            stats.append(
                IterationStats(
                    iteration=it,
                    mean_cost=rollout.mean_cost,
                    std_cost=rollout.std_cost,
                    accumulated_min=acc_min,
                    lam=artifacts.lam,
                    ess_min=float(np.min(artifacts.ess)),
                    ess_mean=float(np.mean(artifacts.ess)),
                    residual_total=float(np.sum(artifacts.residual_norms)),
                    layer_widths=widths,
                    control_counts=rollout.control_counts.tolist(),
                    # the whole iteration, prune included
                    wall_time=time.perf_counter() - t_start,
                    phase_times=clock.times,
                )
            )
        final_wait = time.perf_counter()
        writer.wait()
        final_wait = time.perf_counter() - final_wait
    finally:
        writer.reap()

    report = RunReport(
        config=config.to_dict(),
        seed=config.seed,
        mode=config.mode,
        iterations=stats,
        coefficients=coeffs,
        initial_state=np.asarray(problem.initial_state).tolist(),
        final_csv_wait=final_wait,
    )
    if out_dir is not None:
        report.save(out_dir)
    return report


class _CsvWriter:
    """Writes an iteration's CSV files in a child made by `os.fork`, so the
    formatting runs on another core while the solve goes on.  The child
    works on a copy-on-write snapshot of the unpruned tree and the rollout,
    so nothing is serialised.  At most one child is alive: `start` reaps the
    previous one first.  A `%` formatting thread would hold the GIL, and a
    spawned worker would pickle the tree and import the package afresh.

    Where `os.fork` is missing, or more than one Python thread runs (a
    thread holding a lock at the fork would leave it held in the child),
    the write runs inline instead."""

    def __init__(self):
        self.pid: Optional[int] = None
        self.iteration: Optional[int] = None

    def start(self, iteration: int, out_dir: Path, tree: BranchTree, rho, rollout: RolloutReport) -> None:
        """Write the iteration's tree and rollout CSV files into `out_dir`."""
        self.wait()
        args = (out_dir, iteration, tree, rho, rollout)
        if not hasattr(os, "fork") or threading.active_count() > 1:
            try:
                _write_iteration_csvs(*args)
            except Exception as exc:
                raise SolverError.at(iteration, "output", exc) from exc
            return
        pid = os.fork()
        if pid == 0:
            # the child leaves by os._exit whatever happens, so that it never
            # runs the rest of the solve or the parent's exit handlers
            code = 1
            try:
                _write_iteration_csvs(*args)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                try:
                    sys.stderr.flush()
                finally:
                    os._exit(code)
        self.pid, self.iteration = pid, iteration

    def wait(self) -> None:
        """Reap the running child; raise SolverError if it failed."""
        code = self.reap()
        if code:
            raise SolverError(
                f"iteration {self.iteration}: CSV writer exited with status {code} (traceback on stderr)",
                iteration=self.iteration,
                phase="output",
            )

    def reap(self) -> int:
        """Reap the running child, if any, and return its exit code."""
        if self.pid is None:
            return 0
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)


def _write_iteration_csvs(out_dir: Path, it: int, tree: BranchTree, rho, rollout: RolloutReport):
    tree.dump_csv(out_dir / f"{it:02d}.tree.csv", scores=rho)
    _dump_rollouts_csv(out_dir / f"{it:02d}.rollouts.csv", rollout)


def _dump_rollouts_csv(path, rollout: RolloutReport):
    n = rollout.terminal_states.shape[1]
    with open(path, "w") as fh:
        fh.write("trajectory,cost," + ",".join(f"xT{k}" for k in range(n)) + "\n")
        for j, (cost, xT) in enumerate(zip(rollout.costs, rollout.terminal_states)):
            fh.write(f"{j},{cost:.12g}," + ",".join(f"{v:.12g}" for v in xT) + "\n")


# ---------------------------------------------------------------------------
# analytic oracles


@dataclass
class RiccatiSolution:
    """Finite-horizon discrete LQR value x'P_i x + c_i with additive noise."""

    P: np.ndarray  # (N+1, n, n)
    c: np.ndarray  # (N+1,)
    gains: np.ndarray  # (N, m, n); u_i = -gains[i] @ x
    grid: TimeGrid

    def value(self, i: int, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.P[i] @ x + self.c[i])

    def to_coefficients(self, lower, upper) -> ValueCoefficients:
        n = self.P.shape[1]
        alphas = [
            quadratic_to_coefficients(self.P[i], np.zeros(n), self.c[i], lower, upper)
            for i in range(1, self.grid.steps + 1)
        ]
        return ValueCoefficients(alphas=np.array(alphas), lower=np.asarray(lower), upper=np.asarray(upper))


def riccati_oracle(A, B, Qr, R, Qf, sigma, grid: TimeGrid) -> RiccatiSolution:
    """Backward Riccati recursion on the Euler-discretized system.

    A_d = I + A dt, B_d = B dt, stage costs Qr dt and R dt; the constant
    term accumulates the additive-noise trace tr(sigma sigma' P_{i+1}) dt.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Qr = np.asarray(Qr, dtype=float)
    R = np.asarray(R, dtype=float)
    Qf = np.asarray(Qf, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(np.linalg.eigvalsh(R) <= 0):
        raise ValueError("R must be positive definite")
    n, m = B.shape
    dt, N = grid.dt, grid.steps
    Ad = np.eye(n) + A * dt
    Bd = B * dt
    Qd = Qr * dt
    Rd = R * dt
    noise_cov = sigma @ sigma.T
    P = np.zeros((N + 1, n, n))
    c = np.zeros(N + 1)
    gains = np.zeros((N, m, n))
    P[N] = Qf
    for i in range(N - 1, -1, -1):
        Pn = P[i + 1]
        G = np.linalg.solve(Rd + Bd.T @ Pn @ Bd, Bd.T @ Pn @ Ad)
        P[i] = Qd + Ad.T @ Pn @ Ad - Ad.T @ Pn @ Bd @ G
        P[i] = 0.5 * (P[i] + P[i].T)
        c[i] = c[i + 1] + np.trace(noise_cov @ Pn) * dt
        gains[i] = G
    return RiccatiSolution(P=P, c=c, gains=gains, grid=grid)


def analytic_heat_value(Q, const: float, sigma, grid: TimeGrid, lower, upper) -> ValueCoefficients:
    """Closed-form value for uncontrolled dX = sigma dW with zero running cost
    and g(x) = x'Qx + const:  V(t, x) = x'Qx + tr(sigma sigma' Q)(T - t) + const.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    n = Q.shape[0]
    trace_rate = float(np.trace(sigma @ sigma.T @ Q))
    T = grid.horizon
    alphas = [
        quadratic_to_coefficients(Q, np.zeros(n), const + trace_rate * (T - i * grid.dt), lower, upper)
        for i in range(1, grid.steps + 1)
    ]
    return ValueCoefficients(alphas=np.array(alphas), lower=np.asarray(lower), upper=np.asarray(upper))


def heat_value_at(Q, const: float, sigma, horizon: float, t: float, x) -> float:
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(x @ Q @ x + np.trace(sigma @ sigma.T @ Q) * (horizon - t) + const)


# ---------------------------------------------------------------------------
# method comparison


@dataclass
class ComparisonReport:
    """Normalized accumulated-min curves on a shared runtime axis.

    For each initial state, every accumulated-min cost (both methods, all
    seeds, all iterations) is divided by the largest cost seen for that
    state, then mapped onto shared runtime buckets.  A run is credited at a
    bucket with the accumulated min of the iterations it finished by then;
    before its first iteration finishes it has no cost yet and its row
    holds NaN.  The last bucket is the shortest run's total time, so a run
    has a cost there unless its first iteration alone took longer.
    rows: (state_index, method, run_index, bucket_time, normalized_acc_min).
    """

    bucket_times: np.ndarray
    rows: list
    iteration_medians: dict  # state -> {method: median normalized acc-min after each iteration}

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("state,method,run,bucket_time,normalized_acc_min\n")
            for state, method, run, t, v in self.rows:
                fh.write(f"{state},{method},{run},{t:.6g},{v:.12g}\n")

    def final_bucket_medians(self) -> dict:
        """state -> {method: median normalized acc-min at the last bucket}."""
        final_t = self.bucket_times[-1]
        out: dict = {}
        for state, method, _run, t, v in self.rows:
            if t == final_t:
                out.setdefault(state, {}).setdefault(method, []).append(v)
        return {
            state: {method: float(np.median(vals)) for method, vals in methods.items()}
            for state, methods in out.items()
        }


def _acc_min_at(report: RunReport, tau: float) -> float:
    curve = report.accumulated_min_curve()
    done = report.cumulative_times() <= tau
    return float(curve[np.nonzero(done)[0][-1]]) if np.any(done) else float("nan")


def comparison_report(runs_a: dict, runs_b: dict, label_a="fbrrt", label_b="baseline", buckets: int = 10) -> ComparisonReport:
    """Compare two report sets keyed by initial-state index.

    Both dicts must cover identical state keys; values are lists of
    RunReport (one per seed).
    """
    if set(runs_a) != set(runs_b):
        raise ValueError("initial-state sets do not match between methods")
    if not runs_a:
        raise ValueError("no runs supplied")
    all_runs = [r for runs in (*runs_a.values(), *runs_b.values()) for r in runs]
    shared_total = min(r.cumulative_times()[-1] for r in all_runs)
    bucket_times = np.linspace(shared_total / buckets, shared_total, buckets)
    rows, iteration_medians = [], {}
    for state in sorted(runs_a):
        state_max = max(
            float(np.max(r.accumulated_min_curve())) for r in (*runs_a[state], *runs_b[state])
        )
        for label, runs in ((label_a, runs_a[state]), (label_b, runs_b[state])):
            for run_idx, report in enumerate(runs):
                for tau in bucket_times:
                    rows.append((state, label, run_idx, float(tau), _acc_min_at(report, tau) / state_max))
            count = min(len(r.iterations) for r in runs)
            curves = [r.accumulated_min_curve()[:count] / state_max for r in runs]
            iteration_medians.setdefault(state, {})[label] = np.median(curves, axis=0)
    return ComparisonReport(bucket_times=bucket_times, rows=rows, iteration_medians=iteration_medians)
