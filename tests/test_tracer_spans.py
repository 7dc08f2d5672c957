"""A guard against blind spans of perfbench's tracer: entry points that no
benchmark workload reaches, so that their per-layer metrics read 0.

Each workload runs one smoke-sized solve under `Tracer`.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import ENTRY_POINTS, Tracer  # noqa: E402
from workloads import WORKLOADS, run_solve, solve_seeds  # noqa: E402

# The spans no workload reaches: the backward pass computes its features
# and its fits through `FeatureBox` and `solve_weighted_design`, not
# `features` and `weighted_least_squares`, and `dump_csv` runs in the CSV
# writer's forked child.
BLIND = {"basis.features", "basis.lstsq", "tree.dump_csv"}


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    """Each workload's traced calls per span."""
    out = {}
    for name, workload in WORKLOADS.items():
        tracer = Tracer()
        with tracer.install():
            scratch = tmp_path_factory.mktemp(name)
            solve = run_solve(workload(smoke=True), solve_seeds(0)[0], scratch, tracer=tracer, with_quality=False)
        assert solve.failures == []
        out[name] = tracer.calls
    return out


def test_only_the_known_spans_are_blind(calls):
    blind = {name for _, _, name in ENTRY_POINTS if not any(c[name] for c in calls.values())}
    assert blind == BLIND


def test_candidate_scoring_span_sees_every_policy_scoring(calls):
    # lq-lsearch smoke, 30 steps and 2 iterations: each iteration's backward
    # pass scores 30 layers and the lambda search's and the final rollouts
    # 30 steps each; the second iteration's forward pass has policy rows in
    # all 30 layers
    assert calls["lq-lsearch"]["backward.candidate_scores"] == 2 * 3 * 30 + 30


def test_nearest_and_edge_array_spans_see_every_call(calls):
    # smoke runs 2 iterations of 30 layers: the tree's forward pass queries
    # each layer once per iteration, the chains never, and every backward
    # pass reads each layer's edges once
    assert calls["di-tree"]["tree.nearest"] == calls["lq-lsearch"]["tree.nearest"] == 2 * 30
    assert calls["di-chains-out"]["tree.nearest"] == 0
    assert all(c["backward.edge_arrays"] == 2 * 30 for c in calls.values())
