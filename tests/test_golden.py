"""Golden hashes: exact outputs of small fixed solves.

The report of a run is canonical (seed-deterministic, sorted keys), so a
change that claims to keep the solver's behaviour must reproduce these
sha256 values byte for byte.  They were recorded with Python 3.11 and
NumPy 2.4 on x86-64 (OpenBLAS); another BLAS or NumPy build may round
differently and need its own recording.
"""

from __future__ import annotations

import hashlib

import pytest

from fbrrt.cli import main
from fbrrt.solver import SolverConfig, fbrrt_solve

LQ_PROBLEM = {
    "A": [[0.0, 1.0], [0.0, 0.0]],
    "B": [[0.0], [1.0]],
    "Qr": [[0.1, 0.0], [0.0, 0.1]],
    "R": [[1.0]],
    "Qf": [[1.0, 0.0], [0.0, 1.0]],
    "noise": [[0.3, 0.0], [0.0, 0.3]],
    "horizon": 1.5,
    "roi_lower": [-1.2, -1.0],
    "roi_upper": [1.2, 1.0],
    "grid_points": 9,
}

SMALL = dict(steps=10, M=32, rollout_count=32)

# name -> (SolverConfig fields, sha256 of report.json)
REPORTS = {
    "double-integrator-tree": (
        dict(problem="double_integrator", iterations=3, seed=3, **SMALL),
        "27bc79336e75f2c350797e02024ade5f3344612f20bd9c0c88509f2e7074620a",
    ),
    "double-integrator-chains": (
        dict(problem="double_integrator", iterations=3, seed=3, mode="parallel-baseline", **SMALL),
        "a14762579c816263f64274f8853f2e9cd04b10f53e3f05486c828665fbae8592",
    ),
    "lq-lambda-search": (
        dict(problem="lq", problem_overrides=LQ_PROBLEM, iterations=2, lambda_search=True, seed=5, **SMALL),
        "3310ad575703218a351946e667c3a39ee55925ce354cc5a6593641334b0ffd80",
    ),
    "heat": (
        dict(problem="heat", iterations=3, seed=7, **SMALL),
        "a78b920c71ada5e864e88e3585de9eb07e757a7423cc51d08bfc795335e458c6",
    ),
}

# `fbrrt run <cfg> --out <dir>` on RUN_CONFIG: mode -> {run directory file: sha256}.
# The run directory's report.json holds the output path, so it is left out.
RUN_CONFIG = "problem = double_integrator\nsteps = 10\nM = 32\niterations = 2\nrollout_count = 32\nseed = 3\n"
RUN_FILES = {
    "fbrrt": {
        "02.tree.csv": "9707598dd3677f0c9a4264a76acc56be499a18fd566f366d3cbb006305f390fc",
        "02.rollouts.csv": "d923d8641542d485a6fcaa31caaefd4e95ccf2c295f036228e8d78363705b956",
    },
    "parallel-baseline": {
        "02.tree.csv": "961f7ad7770e417090910d466bc65bfbca4e5f3cbd60a645a5a0d0221ffcfed9",
        "02.rollouts.csv": "336210453f726b43a3428eb16bb22b37dfbfd420953101fd850b6b7d1e9959e1",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden_hash(name):
    fields, digest = REPORTS[name]
    assert sha256(fbrrt_solve(SolverConfig(**fields)).to_json().encode()) == digest


@pytest.mark.parametrize("mode", sorted(RUN_FILES))
def test_run_directory_matches_golden_hashes(mode, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(RUN_CONFIG)
    assert main(["run", str(config), "--mode", mode, "--out", str(tmp_path / "out")]) == 0
    run_dir = tmp_path / "out" / f"double_integrator-{mode}-seed3"
    assert {name: sha256((run_dir / name).read_bytes()) for name in RUN_FILES[mode]} == RUN_FILES[mode]
