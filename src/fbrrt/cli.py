"""Command-line interface: run a solve, compare methods, run oracle checks.

Config files are flat `key = value` text; '#' starts a comment.  Keys match
SolverConfig fields; `problem.<name>` keys become problem factory overrides,
e.g. `problem.fuel_weight = 0.25`.  Values are parsed as int, float, bool
("true"/"false"), or left as strings.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .problem import TimeGrid, validate_problem
from .solver import (
    PROBLEM_FACTORIES,
    SolverConfig,
    SolverError,
    analytic_heat_value,
    comparison_report,
    fbrrt_solve,
    heat_value_at,
    riccati_oracle,
)


def _coerce(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def parse_config_text(text: str) -> SolverConfig:
    """The default config with the file's `key = value` lines applied as
    overrides, so a file and the command line check keys alike."""
    items = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        items.append(line)
    return apply_overrides(SolverConfig(), items)


def parse_config_file(path) -> SolverConfig:
    return parse_config_text(Path(path).read_text())


def apply_overrides(config: SolverConfig, overrides: list[str]) -> SolverConfig:
    """Apply `key=value` strings on top of an existing config."""
    import dataclasses

    fields = dataclasses.asdict(config)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        value = _coerce(raw)
        if key.startswith("problem."):
            fields["problem_overrides"][key[len("problem."):]] = value
        elif key in fields:
            fields[key] = value
        else:
            raise ValueError(f"unknown config key {key!r}")
    return SolverConfig(**fields)


def _cmd_run(args) -> int:
    path, overrides = args.config, list(args.overrides)
    if path is not None and "=" in path:  # no config file: the first positional is an override
        path, overrides = None, [path] + overrides
    config = parse_config_file(path) if path else SolverConfig()
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.out is not None:
        overrides.append(f"out_dir={args.out}")
    if args.mode is not None:
        overrides.append(f"mode={args.mode}")
    config = apply_overrides(config, overrides)
    report = fbrrt_solve(config)
    for s in report.iterations:
        print(
            f"iter {s.iteration:2d}: mean cost {s.mean_cost:10.4f}  "
            f"acc-min {s.accumulated_min:10.4f}  lambda {s.lam:.4g}  ess_min {s.ess_min:.1f}"
        )
    if config.out_dir:
        print(f"report written under {config.out_dir}")
    return 0


def _method_labels(path_a, path_b) -> tuple[str, str]:
    """Each compared method's label: its config file's stem, with a `-a`
    or `-b` suffix when the two stems are equal."""
    stem_a, stem_b = Path(path_a).stem, Path(path_b).stem
    return (stem_a, stem_b) if stem_a != stem_b else (f"{stem_a}-a", f"{stem_b}-b")


def _cmd_compare(args) -> int:
    config_a = parse_config_file(args.config_a)
    config_b = parse_config_file(args.config_b)
    problem = config_a.build_problem()
    state_rng = np.random.default_rng(args.seed)
    states = problem.sample_roi(state_rng, size=args.states)
    runs_a: dict = {}
    runs_b: dict = {}
    for s_idx, x0 in enumerate(states):
        for cfg, runs in ((config_a, runs_a), (config_b, runs_b)):
            runs[s_idx] = []
            for trial in range(args.seeds):
                trial_cfg = apply_overrides(cfg, [f"seed={args.seed + 1000 * trial}"])
                trial_cfg.problem_overrides["initial_state"] = tuple(float(v) for v in x0)
                runs[s_idx].append(fbrrt_solve(trial_cfg))
        print(f"state {s_idx}: done")
    label_a, label_b = _method_labels(args.config_a, args.config_b)
    report = comparison_report(runs_a, runs_b, label_a=label_a, label_b=label_b)
    report.to_csv(args.out)
    print(f"comparison CSV written to {args.out}")
    for state, medians in sorted(report.final_bucket_medians().items()):
        print(f"state {state}: " + "  ".join(f"{m}={v:.4f}" for m, v in medians.items()))
        for method, curve in report.iteration_medians[state].items():
            print(f"  {method} by iteration: " + " ".join(f"{v:.4f}" for v in curve))
    return 0


def _cmd_oracle(args) -> int:
    failures = 0

    def check(name: str, fn):
        nonlocal failures
        try:
            fn()
            print(f"PASS {name}")
        except Exception as exc:  # noqa: BLE001 - report and count
            failures += 1
            print(f"FAIL {name}: {exc}")

    rng = np.random.default_rng(args.seed)
    for name, factory in PROBLEM_FACTORIES.items():
        if name == "lq":
            problem = factory(
                A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]], Qr=0.1 * np.eye(2), R=np.eye(1), Qf=np.eye(2), noise=0.3
            )
        else:
            problem = factory()
        check(f"problem invariants: {name}", lambda p=problem: validate_problem(p, rng, samples=200))

    def riccati_self_test():
        grid = TimeGrid(dt=1.0, steps=1)
        sol = riccati_oracle(A=np.zeros((1, 1)), B=np.eye(1), Qr=np.zeros((1, 1)), R=np.eye(1), Qf=np.eye(1), sigma=np.zeros((1, 1)), grid=grid)
        assert abs(sol.P[0][0, 0] - 0.5) < 1e-12, sol.P[0]
        assert np.all(sol.c == 0.0)

    check("riccati one-step, zero noise", riccati_self_test)

    def heat_mc_test():
        sigma, T, q = 1.0, 1.0, 1.0
        x0 = 0.5
        x_T = x0 + sigma * np.sqrt(T) * rng.normal(size=100_000)
        g = q * x_T**2
        mc, se = g.mean(), g.std() / np.sqrt(g.size)
        exact = heat_value_at([[q]], 0.0, [[sigma]], T, 0.0, [x0])
        assert abs(mc - exact) < 3 * se, (mc, exact, se)

    check("heat-semigroup value vs Monte Carlo", heat_mc_test)
    print("oracle checks " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fbrrt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a solve from a config file")
    p_run.add_argument("config", nargs="?", help="path to a key=value config file (defaults used if omitted)")
    p_run.add_argument("overrides", nargs="*", default=[], help="key=value overrides")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="output directory for reports")
    p_run.add_argument("--mode", choices=["fbrrt", "parallel-baseline"], default=None)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two configs over shared initial states and seeds")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    p_cmp.add_argument("--states", type=int, default=10)
    p_cmp.add_argument("--seeds", type=int, default=5)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--out", default="comparison.csv")
    p_cmp.set_defaults(func=_cmd_compare)

    p_oracle = sub.add_parser("oracle", help="run the analytic validation suite")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
