"""Run one benchmark workload, or all of them, and print every metric.

    python3 perfbench/run.py --workload di-tree --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --workload lq-lsearch --seed 1 --seconds 1 --smoke

Each workload runs in its own process as a closed loop: one `fbrrt_solve`
at a time, no threads, BLAS on one thread.  The run cycles through the
workload's per-solve seeds until `--seconds` are used up; the first seed
always comes round once more, and its report must be byte-identical.

`--trace 0` measures the end-to-end metrics.  `--trace 1` alternates an
untraced and a traced solve of the same seed, reports per-layer metrics
from the traced ones, requires equal report hashes from both, and writes
the spans to `perfbench/out/`.  Full results (per-solve hashes, quality,
environment) go to `perfbench/out/<workload>-seed<n>-trace<t>.json`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
# About the mean time of `workloads.calibration_s` on the reference
# host (NOTES.md).  It only sets the scale of the scaled times and cancels
# when two commits are compared.
REFERENCE_CALIBRATION_S = 0.013
WORKLOAD_NAMES = ["di-tree", "di-chains-out", "lq-lsearch"]

# name -> (unit, better).  The first group is what BENCHMARK.json lists; the
# rest are printed and stored in the results file only: the Riccati metrics
# exist on lq-lsearch alone and error_rate is zero on a healthy run.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "iteration_s_tail": ("s", "lower"),
    "nodes_per_s": ("1/s", "higher"),
    "final_cost": ("cost", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
REPORTED_ONLY = {
    "solve_s_wall_median": ("s", "lower"),
    "host_speed": ("ratio", "higher"),
    "riccati_cost_gap": ("ratio", "lower"),
    "riccati_coef_err": ("ratio", "lower"),
    "error_rate": ("ratio", "lower"),
}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


def setup_times(workload: str, smoke: bool) -> list[float]:
    """Spawn-to-ready seconds of fresh interpreters setting up `workload`."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line != "ready":
            raise RuntimeError(f"set-up probe for {workload} exited with status {proc.returncode}")
        times.append(elapsed)
    return times


def host_speed(calibration) -> float:
    """Factor that scales a wall time to the reference host speed, from the
    calibration samples taken next to it."""
    return REFERENCE_CALIBRATION_S / statistics.fmean(calibration)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_untraced(workload, seeds, seconds, scratch):
    from workloads import run_solve

    solves, first = [], {}
    start = time.perf_counter()
    for k in itertools.count():
        seed = seeds[k % len(seeds)]
        t0 = time.perf_counter()
        solve = run_solve(workload, seed, scratch, with_quality=seed not in first, calibrate=True)
        if seed in first:
            if solve.sha256 and first[seed].sha256 and solve.sha256 != first[seed].sha256:
                solve.failures.append(f"report of seed {seed} differs from its first solve")
        else:
            first[seed] = solve
        solves.append(solve)
        step = time.perf_counter() - t0
        if k >= len(seeds) and time.perf_counter() - start + step > seconds:
            break
    ok = [s for s in solves if not s.failures]
    metrics, notes = {}, {}
    if ok:
        # The host alternates between a fast and a ~1.5x slower state within
        # a second or two, and the share of slow time drifts over minutes, so
        # wall times follow the host.  Each solve and each iteration is scaled
        # by the calibration samples taken within it or right before it,
        # which see the same host (NOTES.md).
        scaled_solve_s = [s.solve_s * host_speed(itertools.chain(*s.calibration_s)) for s in ok]
        iteration_s = [t * host_speed(block) for s in ok for t, block in zip(s.iteration_s, s.calibration_s)]
        metrics["solve_s"] = statistics.fmean(scaled_solve_s)
        metrics["iteration_s_tail"], pct = tail(iteration_s)
        metrics["nodes_per_s"] = sum(s.nodes_added for s in ok) / sum(scaled_solve_s)
        metrics["solve_s_wall_median"] = statistics.median(s.solve_s for s in ok)
        metrics["host_speed"] = host_speed(c for s in ok for block in s.calibration_s for c in block)
        notes["solve_s"] = f"mean of {len(ok)} scaled solves"
        notes["iteration_s_tail"] = f"p{pct:.1f} of {len(iteration_s)} scaled iterations"
        notes["nodes_per_s"] = f"over {len(ok)} scaled solves"
        notes["solve_s_wall_median"] = "not scaled"
        notes["host_speed"] = f"{REFERENCE_CALIBRATION_S} s / mean calibration sample"
    firsts = [s for s in first.values() if not s.failures]
    for name in ("final_cost", "riccati_cost_gap", "riccati_coef_err"):
        values = [s.quality[name] for s in firsts if name in s.quality]
        if values:
            metrics[name] = statistics.fmean(values)
            notes[name] = f"mean over {len(values)} seeds"
    return solves, metrics, notes


def run_traced(workload, seeds, seconds, scratch, spans_path):
    from tracer import Tracer
    from workloads import run_solve

    tracer = Tracer()
    solves, overheads = [], []
    start = time.perf_counter()
    for k in itertools.count():
        seed = seeds[k % len(seeds)]
        t0 = time.perf_counter()
        plain = run_solve(workload, seed, scratch, with_quality=False)
        tracer.solve_id = k
        with tracer.install():
            traced = run_solve(workload, seed, scratch, tracer=tracer, with_quality=False)
        if traced.sha256 != plain.sha256:
            traced.failures.append(f"traced report of seed {seed} differs from the untraced one")
        solves += [plain, traced]
        if not (plain.failures or traced.failures):
            overheads.append(traced.solve_s - plain.solve_s)
        step = time.perf_counter() - t0
        if time.perf_counter() - start + step > seconds:
            break
    layers = tracer.layer_metrics(k + 1)
    metrics = {name: value for name, (value, _) in layers.items()}
    units = {name: unit for name, (_, unit) in layers.items()}
    if overheads:
        # paired: each traced solve against the untraced solve just before it
        metrics["trace.overhead_s"] = statistics.median(overheads)
        units["trace.overhead_s"] = "s"
    tracer.write_spans(spans_path)
    return solves, metrics, units


def measure(args) -> dict:
    if not (ROOT / "src" / "fbrrt").is_dir():
        sys.exit(f"no program to benchmark: {ROOT / 'src' / 'fbrrt'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, run_solve, solve_seeds

    env = environment()
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    setup = setup_times(args.workload, args.smoke) if not args.trace else []
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    run_solve(WORKLOADS[args.workload](smoke=True), 0, scratch, with_quality=False)  # warm-up
    seeds = solve_seeds(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    if args.trace:
        solves, metrics, units = run_traced(workload, seeds, args.seconds, scratch, OUT / f"{stem}.spans.csv")
        notes = {}
    else:
        solves, metrics, notes = run_untraced(workload, seeds, args.seconds, scratch)
        metrics["setup_s"] = statistics.median(setup)
        notes["setup_s"] = f"median of {len(setup)} fresh interpreters"
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {name: unit for name, (unit, _) in {**END_TO_END, **REPORTED_ONLY}.items()}
    failed = sum(1 for s in solves if s.failures)
    if not args.trace:
        metrics["error_rate"] = failed / len(solves)
    env["loadavg_end"] = os.getloadavg()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "smoke": args.smoke,
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "notes": notes,
        "setup_s_samples": setup,
        "solves": [
            {
                "seed": s.seed,
                "traced": bool(args.trace) and i % 2 == 1,
                "solve_s": s.solve_s,
                "iteration_s": s.iteration_s,
                "calibration_s": s.calibration_s,
                "sha256": s.sha256,
                "quality": s.quality,
                "failures": s.failures,
            }
            for i, s in enumerate(solves)
        ],
        "environment": env,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2))
    return result


def print_table(result: dict) -> None:
    print(f"== {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} solves, {result['failed']} failed")
    for name, entry in result["metrics"].items():
        better = {**END_TO_END, **REPORTED_ONLY}.get(name, (None, None))[1]
        direction = f"{better} is better" if better else "per layer"
        note = result["notes"].get(name, "")
        print(f"  {name:34s} {entry['value']:14.6g} {entry['unit']:9s} {direction:16s} {note}")
    env = result["environment"]
    print(f"  env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"OPENBLAS_NUM_THREADS={env['blas_threads']['OPENBLAS_NUM_THREADS']}, "
          f"load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    for s in result["solves"]:
        for failure in s["failures"]:
            print(f"  FAILED seed {s['seed']}: {failure}")


def line_metrics(result: dict) -> dict:
    """The metrics BENCHMARK.json names: end-to-end untraced, all per-layer traced."""
    keep = END_TO_END if not result["trace"] else result["metrics"]
    return {name: entry for name, entry in result["metrics"].items() if name in keep}


def run_all(args) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        line = json.loads(proc.stdout.splitlines()[-1])
        summary["correct"] &= line["correct"]
        summary["attempted"] += line["attempted"]
        summary["failed"] += line["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny trees: seconds per workload")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = measure(args)
    print_table(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": line_metrics(result),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
