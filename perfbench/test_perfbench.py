"""Checks of the benchmark itself, on smoke-sized workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import fbrrt.solver  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, run_solve, solve_seeds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_only_observes(name, tmp_path):
    workload = WORKLOADS[name](smoke=True)
    seed = solve_seeds(0)[0]
    original = fbrrt.solver.forward_expand
    plain = run_solve(workload, seed, tmp_path / "plain", with_quality=False)
    tracer = Tracer()
    with tracer.install():
        traced = run_solve(workload, seed, tmp_path / "traced", tracer=tracer, with_quality=False)
    assert plain.failures == [] and traced.failures == []
    assert traced.sha256 == plain.sha256
    assert tracer.calls["solver.solve"] == 1
    assert tracer.calls["backward.pass"] >= 1 and tracer.calls["problem.drift"] >= 1
    assert fbrrt.solver.forward_expand is original


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    (child, parent) = tracer.spans  # a span is appended when it ends
    assert child[4] == parent[3] and parent[4] is None
    assert tracer.total_s["outer"] >= tracer.total_s["inner"] >= 0.02
    assert tracer.self_s["outer"] == pytest.approx(tracer.total_s["outer"] - tracer.total_s["inner"])


def _checkout(tmp_path, with_program: bool) -> Path:
    """Copy of the files a benchmark checkout holds."""
    dest = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_program:
        for part in ("src", "configs"):
            shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    return dest


def _run(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args], cwd=checkout, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_the_contract_line(tmp_path, trace):
    checkout = _checkout(tmp_path, True)
    proc = _run(checkout, "--workload", "di-chains-out", "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in listed}
    assert all(line["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)
    if trace == "0":
        # each solve's wall time is scaled by the calibration samples taken within it
        from run import REFERENCE_CALIBRATION_S

        full = json.loads((checkout / "perfbench" / "out" / "di-chains-out-seed3-trace0.json").read_text())
        scaled = [
            s["solve_s"] * REFERENCE_CALIBRATION_S / statistics.fmean(c for block in s["calibration_s"] for c in block)
            for s in full["solves"]
        ]
        assert line["metrics"]["solve_s"]["value"] == pytest.approx(statistics.fmean(scaled))


def test_checkout_without_the_program_fails(tmp_path):
    proc = _run(_checkout(tmp_path, False), "--workload", "di-tree", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
