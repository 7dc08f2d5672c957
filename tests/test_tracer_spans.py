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

# The spans no workload reaches: the backward pass reads its layers, its
# features and its fits without `_layer_edge_arrays`, `features` and
# `weighted_least_squares`, the forward pass queries `nearest_positions`,
# and `dump_csv` runs in the CSV writer's forked child.
BLIND = {"backward.edge_arrays", "basis.features", "basis.lstsq", "tree.dump_csv", "tree.nearest"}


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
