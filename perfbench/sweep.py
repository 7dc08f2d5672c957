"""Run the benchmark over several workload seeds and report its spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads di-tree,lq-lsearch]
                               [--seconds N] [--trace] [--baseline perfbench/baseline.json]

Runs `run.py` once per (workload, seed), one process at a time.  For each
end-to-end metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, next to the bound in BENCHMARK.json.  `--trace` adds one traced run
per workload.  `--baseline` writes medians, quartiles, per-layer numbers,
report hashes by (workload, seed) and the environment to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    wall = time.perf_counter() - start
    line = json.loads(proc.stdout.splitlines()[-1])
    full = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, full, wall


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    baseline = {"seeds": seeds, "run_seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        extra: dict[str, list[float]] = {}
        hashes, walls = {}, []
        for seed in seeds:
            line, full, wall = run_once(workload, seed, args.seconds, 0)
            walls.append(wall)
            ok &= line["correct"]
            for name, entry in line["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            for name, entry in full["metrics"].items():
                if name not in line["metrics"]:
                    extra.setdefault(name, []).append(entry["value"])
            hashes[str(seed)] = {str(s["seed"]): s["sha256"] for s in full["solves"]}
            print(f"{workload} seed {seed}: {wall:.1f} s, {line['attempted']} solves, "
                  f"{line['failed']} failed, load {full['environment']['loadavg_end'][0]:.2f}", flush=True)
        stats = {name: spread(v) for name, v in {**values, **extra}.items() if len(v) > 1}
        print(f"== {workload}: run wall time {min(walls):.1f}-{max(walls):.1f} s")
        for name, s in stats.items():
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:18s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  "
                  f"spread {s['spread']:.4f}  bound {bound}{flag}")
        entry = {"end_to_end": stats, "report_sha256": hashes, "environment": full["environment"]}
        if args.trace:
            line, full, wall = run_once(workload, seeds[0], args.seconds, 1)
            ok &= line["correct"]
            entry["per_layer"] = {name: e["value"] for name, e in full["metrics"].items()}
            print(f"  traced run: {wall:.1f} s, {line['attempted']} solves, correct {line['correct']}, "
                  f"tracing overhead {full['metrics'].get('trace.overhead_s', {}).get('value', float('nan')):.3f} s")
        baseline["workloads"][workload] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
