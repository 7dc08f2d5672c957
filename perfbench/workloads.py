"""The benchmark's workloads and one checked, timed solve of each.

Each workload fixes a shipped config or the acceptance test's LQ problem;
the workload seed only picks the per-solve seeds.  A solve is one
`fbrrt_solve`, and its canonical report (the bytes `report.json` holds) is
hashed so that runs of two commits can be compared exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fbrrt.cli
import fbrrt.solver
from fbrrt.cli import apply_overrides, parse_config_file
from fbrrt.problem import TimeGrid
from fbrrt.solver import SolverConfig, SolverError, riccati_oracle, rollout_policy

ROOT = Path(__file__).resolve().parents[1]

# Distinct per-solve seeds in one run; quality metrics average over them.
SEEDS_PER_RUN = 3

# Calibration samples taken before every forward pass (run.py, NOTES.md).
CALIBRATION_SAMPLES = 3

# Smoke mode: same code paths on a tree small enough to solve in well under
# a second.
SMOKE_OVERRIDES = ["M=16", "iterations=2", "rollout_count=16"]

# The LQ problem of tests/test_acceptance.py::test_lq_matches_riccati_recursion.
LQ_PROBLEM = {
    "A": [[0.0, 1.0], [0.0, 0.0]],
    "B": [[0.0], [1.0]],
    "Qr": [[0.1, 0.0], [0.0, 0.1]],
    "R": [[1.0]],
    "Qf": [[1.0, 0.0], [0.0, 1.0]],
    "noise": [[0.3, 0.0], [0.0, 0.3]],
    "horizon": 1.5,
    "initial_state": [0.0, 0.0],
    "roi_lower": [-1.2, -1.0],
    "roi_upper": [1.2, 1.0],
}
ORACLE_ROLLOUTS = 2048
# the acceptance test's cost gate; the coefficient error is reported only
MAX_RICCATI_COST_GAP = 0.15


def solve_seeds(workload_seed: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(workload_seed).generate_state(SEEDS_PER_RUN)]


@dataclass
class Solve:
    seed: int
    solve_s: float = float("nan")
    iteration_s: list = field(default_factory=list)
    calibration_s: list = field(default_factory=list)  # a block of samples before each forward pass
    nodes_added: int = 0
    sha256: str = ""
    quality: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


class Workload:
    """Solves one shipped config by calling `fbrrt_solve` directly."""

    name = ""
    config_file = ""

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.config = apply_overrides(self.base_config(), SMOKE_OVERRIDES if smoke else [])

    def base_config(self) -> SolverConfig:
        return parse_config_file(ROOT / "configs" / self.config_file)

    def invoke(self, seed: int, solve, scratch: Path) -> bytes:
        """Run one solve through `solve` and return its canonical report."""
        return solve(apply_overrides(self.config, [f"seed={seed}"])).to_json().encode()

    def quality(self, report) -> dict:
        return {"final_cost": report.iterations[-1].accumulated_min}

    def check(self, report, quality: dict) -> list[str]:
        failures = []
        M, N = report.config["M"], len(report.iterations[0].layer_widths) - 1
        for s in report.iterations:
            costs = (s.mean_cost, s.std_cost, s.accumulated_min)
            if not all(np.isfinite(costs)):
                failures.append(f"iteration {s.iteration}: non-finite costs {costs}")
            if s.layer_widths[1:] != [M] * N:
                failures.append(f"iteration {s.iteration}: layer widths {s.layer_widths} != {M}")
        if not all(np.isfinite(v) for v in quality.values()):
            failures.append(f"non-finite quality {quality}")
        return failures


class DoubleIntegratorTree(Workload):
    name = "di-tree"
    config_file = "double_integrator.cfg"


class DoubleIntegratorChainsOut(Workload):
    """`fbrrt run <config> --seed <s> --out <dir>`, the path a user types."""

    name = "di-chains-out"
    config_file = "double_integrator_baseline.cfg"

    def invoke(self, seed: int, solve, scratch: Path) -> bytes:
        argv = ["run", str(ROOT / "configs" / self.config_file)]
        argv += SMOKE_OVERRIDES if self.smoke else []
        # `--out .` from inside the scratch directory: the report records
        # out_dir, so a relative path keeps its hash the same in every checkout
        argv += ["--seed", str(seed), "--out", "."]
        original, cwd = fbrrt.cli.fbrrt_solve, os.getcwd()
        fbrrt.cli.fbrrt_solve = solve
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = fbrrt.cli.main(argv)
        finally:
            os.chdir(cwd)
            fbrrt.cli.fbrrt_solve = original
        if code != 0:
            raise SolverError(f"fbrrt run exited with status {code}")
        (report_path,) = scratch.glob("*/report.json")
        return report_path.read_bytes()


class LQLambdaSearch(Workload):
    """Grid-controlled LQ with lambda search, checked against Riccati."""

    name = "lq-lsearch"

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        problem = self.config.build_problem()
        self.problem = problem
        self.grid = TimeGrid.from_horizon(problem.horizon, self.config.effective_steps())
        p = {k: np.asarray(v, dtype=float) for k, v in LQ_PROBLEM.items()}
        self.oracle = riccati_oracle(p["A"], p["B"], p["Qr"], p["R"], p["Qf"], p["noise"], self.grid).to_coefficients(
            problem.roi_lower, problem.roi_upper
        )

    def base_config(self) -> SolverConfig:
        return SolverConfig(
            problem="lq",
            problem_overrides=dict(LQ_PROBLEM),
            steps=30,
            M=256,
            iterations=5,
            lambda_search=True,
        )

    def quality(self, report) -> dict:
        fitted = report.coefficients
        coef_err = max(
            np.linalg.norm(fitted.alpha(i) - self.oracle.alpha(i)) / np.linalg.norm(self.oracle.alpha(i))
            for i in range(1, self.grid.steps + 1)
        )
        # shared noise: both policies see the same Brownian increments
        costs = [
            rollout_policy(
                self.problem,
                self.grid,
                coeffs,
                self.problem.initial_state,
                ORACLE_ROLLOUTS,
                np.random.default_rng([report.seed, 7]),
            ).mean_cost
            for coeffs in (fitted, self.oracle)
        ]
        return {
            **super().quality(report),
            "riccati_coef_err": float(coef_err),
            "riccati_cost_gap": (costs[0] - costs[1]) / costs[1],
        }

    def check(self, report, quality: dict) -> list[str]:
        failures = super().check(report, quality)
        gap = quality.get("riccati_cost_gap", 0.0)
        if not self.smoke and gap > MAX_RICCATI_COST_GAP:
            failures.append(f"Riccati cost gap {gap:.4f} > {MAX_RICCATI_COST_GAP}")
        return failures


WORKLOADS = {w.name: w for w in (DoubleIntegratorTree, DoubleIntegratorChainsOut, LQLambdaSearch)}


def calibration_s() -> float:
    """Wall time of a fixed pure-Python and small-numpy kernel that does not
    touch fbrrt: it slows down with the host, never with the program."""
    start = time.perf_counter()
    x = 0
    for j in range(130_000):
        x += j * j
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(400):
        a = np.tanh(a @ a.T * 1e-3) + np.eye(8)
    return time.perf_counter() - start


@contextlib.contextmanager
def _forward_marks(marks: list, calibrate: bool):
    """Record (start time, nodes added, calibration pause, calibration
    samples) of every forward pass, one per iteration.  One call per
    iteration, so it stays on in untraced runs.  With `calibrate`, a block of
    CALIBRATION_SAMPLES samples of `calibration_s` is taken right before each
    forward pass, so that every iteration has samples of the host next to it."""
    saved = {name: getattr(fbrrt.solver, name) for name in ("forward_expand", "parallel_forward_baseline")}

    def calibration_block() -> tuple[float, list]:
        start = time.perf_counter()
        block = [calibration_s() for _ in range(CALIBRATION_SAMPLES if calibrate else 0)]
        return time.perf_counter() - start, block

    def expand(tree, *args, **kwargs):
        paused, block = calibration_block()
        start, before = time.perf_counter(), len(tree.nodes)
        out = saved["forward_expand"](tree, *args, **kwargs)
        marks.append((start, len(out.nodes) - before, paused, block))
        return out

    def baseline(*args, **kwargs):
        paused, block = calibration_block()
        start = time.perf_counter()
        out = saved["parallel_forward_baseline"](*args, **kwargs)
        marks.append((start, len(out.nodes) - len(out.layers[0]), paused, block))
        return out

    fbrrt.solver.forward_expand = expand
    fbrrt.solver.parallel_forward_baseline = baseline
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(fbrrt.solver, name, fn)


def run_solve(
    workload: Workload,
    seed: int,
    scratch: Path,
    tracer=None,
    with_quality: bool = True,
    calibrate: bool = False,
) -> Solve:
    """One checked solve.  A SolverError or a failed check is recorded in
    `Solve.failures`; it does not raise.  With `calibrate`, the calibration
    samples go to `Solve.calibration_s`, and the time they take is left out
    of the solve's and its iterations' times."""
    result = Solve(seed=seed)
    reports: list = []
    marks: list = []

    def solve(config, problem=None):
        fn = fbrrt.solver.fbrrt_solve
        if tracer is not None:
            problem = tracer.traced_problem(problem if problem is not None else config.build_problem())
            fn = tracer.wrap("solver.solve", fn)
        start = time.perf_counter()
        report = fn(config, problem=problem)
        end = time.perf_counter()
        starts = [t for t, _, _, _ in marks] + [end]
        paused = [p for _, _, p, _ in marks] + [0.0]
        result.solve_s = end - start - sum(paused)
        result.iteration_s = [b - a - p for a, b, p in zip(starts, starts[1:], paused[1:])]
        result.nodes_added = sum(n for _, n, _, _ in marks)
        result.calibration_s = [block for _, _, _, block in marks]
        reports.append(report)
        return report

    scratch.mkdir(parents=True, exist_ok=True)
    try:
        with _forward_marks(marks, calibrate):
            canonical = workload.invoke(seed, solve, scratch)
    except SolverError as exc:
        result.failures.append(f"solver error: {exc}")
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result.sha256 = hashlib.sha256(canonical).hexdigest()
    (report,) = reports
    if with_quality:
        result.quality = workload.quality(report)
    result.failures.extend(workload.check(report, result.quality))
    return result
