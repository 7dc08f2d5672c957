"""Golden hashes: exact outputs of small fixed solves.

The report of a run is canonical (seed-deterministic, sorted keys), so a
change that claims to keep the solver's behaviour must reproduce these
sha256 values byte for byte.  They were recorded with Python 3.11 and
NumPy 2.4 on x86-64 (OpenBLAS); another BLAS or NumPy build may round
differently and need its own recording.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from fbrrt.cli import apply_overrides, main, parse_config_file
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
        "5a6c93e65f12626426c6bedabb73fba9bf550867d4d0ff94fb4fba59a7e3dcb8",
    ),
    "double-integrator-chains": (
        dict(problem="double_integrator", iterations=3, seed=3, mode="parallel-baseline", **SMALL),
        "155457b0975eac780cce91b6bfedc344683e2bf1e7947b3b1d453777a15b43ea",
    ),
    "lq-lambda-search": (
        dict(problem="lq", problem_overrides=LQ_PROBLEM, iterations=2, lambda_search=True, seed=5, **SMALL),
        "88fb0e72b0fc547bfcbf3da772054d4f15a5f8eedd04bf39c02e8086cadcfd0b",
    ),
    "heat": (
        dict(problem="heat", iterations=3, seed=7, **SMALL),
        "66bba03b9d1ee79939e7c2f39acd1ec55271fa5a380bab6c785291c40f457848",
    ),
}

# The shipped sizes: the double integrator's config (M = 256, 10 iterations),
# the same at M = 16 with 2 iterations, where a layer step costs little more
# than its fixed per-call work, and the acceptance LQ problem with its lambda
# search (M = 256, 5 iterations, 21 controls).  Several 64-query chunks of the
# nearest search and full-width scoring grids run only at these widths.
DI_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "double_integrator.cfg"
LQ_ACCEPTANCE = {
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

# name -> (overrides of the shipped double-integrator config, or a SolverConfig, sha256 of report.json)
SHIPPED = {
    "double-integrator-config": (
        [],
        "8f18287333b9c97adf52caed8d629517bf1ac6b2dd6112c6525fd90992cffd8f",
    ),
    "double-integrator-config-M16": (
        ["M=16", "iterations=2"],
        "bb17792b3c6d99cb29368850ddba0d6b9f68e327587398fd500b2784b00cbac6",
    ),
    "lq-lambda-search-M256": (
        SolverConfig(problem="lq", problem_overrides=LQ_ACCEPTANCE, steps=30, M=256, iterations=5, lambda_search=True),
        "211b3c5315c9d29900cf164e0e74128747c183467e04bbbae8da546f713c4396",
    ),
}

# `fbrrt run <cfg> --out <dir>` on RUN_CONFIG: mode -> {run directory file: sha256}.
# The run directory's report.json holds the output path, so it is left out.
RUN_CONFIG = "problem = double_integrator\nsteps = 10\nM = 32\niterations = 2\nrollout_count = 32\nseed = 3\n"
RUN_FILES = {
    "fbrrt": {
        "02.tree.csv": "b14c7f5ed982767214e43cba6788b9538727aab2cf56461a07d59ea7e6071a5a",
        "02.rollouts.csv": "dd6a82f986a69cc7324da1cc59f7a5a469c68ffee3042ff740b174bce2007cca",
    },
    "parallel-baseline": {
        "02.tree.csv": "0080a881aad2054d12ef7a1b31cfce53c54d5fda83dcc847c8e77085e12c4aee",
        "02.rollouts.csv": "0fda34473b0fab59c23ec51e43834fda2e7248b9de7d2cb6b03104b1557af4ac",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden_hash(name):
    fields, digest = REPORTS[name]
    assert sha256(fbrrt_solve(SolverConfig(**fields)).to_json().encode()) == digest


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_size_report_matches_golden_hash(name):
    config, digest = SHIPPED[name]
    if isinstance(config, list):
        config = apply_overrides(parse_config_file(DI_CONFIG), config)
    assert sha256(fbrrt_solve(config).to_json().encode()) == digest


@pytest.mark.parametrize("mode", sorted(RUN_FILES))
def test_run_directory_matches_golden_hashes(mode, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(RUN_CONFIG)
    assert main(["run", str(config), "--mode", mode, "--out", str(tmp_path / "out")]) == 0
    run_dir = tmp_path / "out" / f"double_integrator-{mode}-seed3"
    assert {name: sha256((run_dir / name).read_bytes()) for name in RUN_FILES[mode]} == RUN_FILES[mode]
