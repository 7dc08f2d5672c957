"""Spans and counters recorded around the solver's public entry points.

Nothing here edits the program: `Tracer.install` swaps module and class
attributes for wrappers and puts the originals back on exit.  Each wrapper
records a span (name, start, end, span id, parent span id, solve id) and the
counts named in `COUNTERS`; spans stay in memory until `write_spans`.
A span's self time is its duration minus the durations of its direct
children (one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import time
from collections import Counter, defaultdict

import fbrrt.backward
import fbrrt.solver
from fbrrt.tree import BranchTree

# (owner, attribute, span name).  Functions are looked up through their
# owner at call time by the solver, so swapping the attribute is enough.
ENTRY_POINTS = [
    (fbrrt.solver, "forward_expand", "forward.expand"),
    (fbrrt.solver, "parallel_forward_baseline", "forward.baseline"),
    (fbrrt.solver, "rollout_policy", "solver.rollout"),
    (fbrrt.solver, "_dump_rollouts_csv", "solver.report_save"),
    (fbrrt.solver.RunReport, "save", "solver.report_save"),
    (fbrrt.backward, "backward_pass", "backward.pass"),
    (fbrrt.backward, "lambda_search", "backward.lambda_search"),
    (fbrrt.backward, "_candidate_scores", "backward.candidate_scores"),
    (fbrrt.backward, "_layer_edge_arrays", "backward.edge_arrays"),
    (fbrrt.backward, "weighted_least_squares", "basis.lstsq"),
    (fbrrt.backward, "features", "basis.features"),
    (fbrrt.backward, "value_grad", "basis.value_grad"),
    (BranchTree, "nearest", "tree.nearest"),
    (BranchTree, "add_edge", "tree.add_edge"),
    (BranchTree, "prune", "tree.prune"),
    (BranchTree, "dump_csv", "tree.dump_csv"),
]


def _expand_nodes(counts, out, args, before):
    counts["forward.nodes_added"] += len(out.nodes) - before


def _scoring_rows(counts, out, args, before):
    choice, cands = out[0], out[1]
    counts["backward.candidate_rows"] += len(choice) * len(cands)


def _lstsq_rows(counts, out, args, before):
    counts["basis.lstsq_rows"] += len(args[0])


def _prune_sizes(counts, out, args, before):
    counts["tree.prune_grown"] += len(args[0].nodes)
    counts["tree.prune_kept"] += len(out.nodes)


def _dump_bytes(counts, out, args, before):
    counts["tree.dump_csv_bytes"] += os.path.getsize(args[1])


def _drift_rows(counts, out, args, before):
    shape = getattr(out, "shape", ())
    counts["problem.drift_rows"] += math.prod(shape[:-1])


# span name -> (count hook, value taken before the call for the hook)
COUNTERS = {
    "forward.expand": (_expand_nodes, lambda args: len(args[0].nodes)),
    "backward.candidate_scores": (_scoring_rows, None),
    "basis.lstsq": (_lstsq_rows, None),
    "tree.prune": (_prune_sizes, None),
    "tree.dump_csv": (_dump_bytes, None),
    "problem.drift": (_drift_rows, None),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.failures: Counter = Counter()
        self.counts: Counter = Counter()
        self.solve_id = 0
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0

    def wrap(self, name: str, fn):
        hook, before_fn = COUNTERS.get(name, (None, None))

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            before = before_fn(args) if before_fn is not None else None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.failures[name] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((name, start, end, span_id, parent, self.solve_id))
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
            if hook is not None:
                hook(self.counts, out, args, before)
            return out

        return traced

    @contextlib.contextmanager
    def install(self):
        """Swap every entry point for its traced wrapper; restore on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in ENTRY_POINTS]
        try:
            for owner, attr, name in ENTRY_POINTS:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def traced_problem(self, problem):
        """Copy of `problem` whose drift callback records spans."""
        return dataclasses.replace(problem, drift=self.wrap("problem.drift", problem.drift))

    def layer_metrics(self, solves: int) -> dict:
        """Per-layer totals as means per traced solve."""
        per = 1.0 / max(solves, 1)
        t, c, k = self.total_s, self.calls, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "forward.expand_s": (t["forward.expand"] * per, "s"),
            "forward.expand_self_s": (self.self_s["forward.expand"] * per, "s"),
            "forward.nodes_added": (k["forward.nodes_added"] * per, "count"),
            "forward.baseline_s": (t["forward.baseline"] * per, "s"),
            "tree.nearest_calls": (c["tree.nearest"] * per, "count"),
            "tree.nearest_s": (t["tree.nearest"] * per, "s"),
            "tree.add_edge_calls": (c["tree.add_edge"] * per, "count"),
            "tree.add_edge_s": (t["tree.add_edge"] * per, "s"),
            "tree.prune_s": (t["tree.prune"] * per, "s"),
            "tree.prune_keep_ratio": (ratio(k["tree.prune_kept"], k["tree.prune_grown"]), "ratio"),
            "tree.dump_csv_s": (t["tree.dump_csv"] * per, "s"),
            "tree.dump_csv_bytes": (k["tree.dump_csv_bytes"] * per, "bytes"),
            "backward.pass_calls": (c["backward.pass"] * per, "count"),
            "backward.pass_s": (t["backward.pass"] * per, "s"),
            "backward.pass_failures": (self.failures["backward.pass"] * per, "count"),
            "backward.edge_arrays_s": (t["backward.edge_arrays"] * per, "s"),
            "backward.lambda_search_s": (t["backward.lambda_search"] * per, "s"),
            "backward.candidate_scores_calls": (c["backward.candidate_scores"] * per, "count"),
            "backward.candidate_rows": (k["backward.candidate_rows"] * per, "count"),
            "backward.rows_per_scoring_call": (
                ratio(k["backward.candidate_rows"], c["backward.candidate_scores"]),
                "rows/call",
            ),
            "backward.candidate_scores_s": (t["backward.candidate_scores"] * per, "s"),
            "basis.lstsq_calls": (c["basis.lstsq"] * per, "count"),
            "basis.lstsq_rows": (k["basis.lstsq_rows"] * per, "count"),
            "basis.lstsq_s": (t["basis.lstsq"] * per, "s"),
            "basis.features_s": (t["basis.features"] * per, "s"),
            "basis.value_grad_s": (t["basis.value_grad"] * per, "s"),
            "solver.rollout_calls": (c["solver.rollout"] * per, "count"),
            "solver.rollout_s": (t["solver.rollout"] * per, "s"),
            "solver.report_save_s": (t["solver.report_save"] * per, "s"),
            "problem.drift_calls": (c["problem.drift"] * per, "count"),
            "problem.drift_rows": (k["problem.drift_rows"] * per, "count"),
            "problem.rows_per_drift_call": (ratio(k["problem.drift_rows"], c["problem.drift"]), "rows/call"),
            "trace.spans": (len(self.spans) * per, "count"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,span_id,parent_id,solve_id\n")
            for name, start, end, span_id, parent, solve_id in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{span_id},{'' if parent is None else parent},{solve_id}\n")
