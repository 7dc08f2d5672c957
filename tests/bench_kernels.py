"""Microbenchmarks of the solver's per-call kernels (pytest-benchmark).

The file name does not match ``test_*.py``, so the default test run skips
it.  Run it with

    PYTHONPATH=src python -m pytest tests/bench_kernels.py --benchmark-only

Inputs are fixed: B = 256 states drawn from the region of interest (the
width M of the acceptance trees), coefficients drawn once from a seeded
generator.  Two cases time the per-call cost that does not grow with the
rows: the scoring of B = 16 states, and a nearest search for one query.  A rollout step is a one-step rollout of B chains per policy,
alone (L=1) and stacked as the lambda search runs it (L=5); a rollout is
30 steps of B chains, for one policy and for five with close coefficients
(most chains stay on the first policy's, whose grid rows they share) and
with independent ones (the full grid).  A backward
layer's targets score B parent states under L=5 coefficient vectors in
one pass, as the lambda search fits five lambdas.  The LQ grid drift is
the drift of 5 x B rollout states under every one of the 21 controls.
The forward draws are one iteration's random numbers for the di-tree
workload's tree (M = B, 30 steps), drawn in bulk as `forward_expand`
draws them: a fresh
tree (7680 expansions, pure exploration, as in iteration 1) and one
pruned to 0.3 (exploiting, as in later iterations).  The nearest search
takes the expansions of one layer of the same two schedules, each query
against the prefix of the layer that existed at its turn, and, as its
worst case, every query tied and rescanned exactly ("ties"); a tree
sampling step is one layer of that tree with about 70% of the rows
following the policy.  One forward pass grows that tree from its root
(pure exploration) or regrows it after `prune` to 0.3 by its backward
pass's rho (exploiting that fit), and `prune` itself is timed on the
same tree and rho.  A whole backward pass runs on a freshly grown
tree (M = B, 30 steps): in lockstep over the 5 lambdas of
`default_lambda_grid` on a 21-control LQ tree, as the lq-lsearch workload
fits them (L = 5 fits per layer), and for one lambda on the double
integrator's tree above (L = 1), as the di-tree workload fits it, and on
one grown at M = 64, where the per-layer cost that does not grow with M
shows.  The chains kernels are those of the di-chains-out workload
(M = 512, 30 steps): one `sampling_step` of 512 chains with
coefficients and eps_opt = 0.7 (about 70% of the rows follow the
policy), one layer of 512 chains
appended node by node through
`add_edge`, `dump_csv` of one iteration's chains tree (15,360 edges,
15,872 rows with the roots), and one fork, write
and reap of that tree's and a 256-trajectory rollout's CSV files, as
`fbrrt_solve` writes each iteration's files with `--out` where `os.fork`
exists.
"""

import numpy as np
import pytest

from fbrrt.backward import _candidate_scores, _Targets, backward_pass, default_lambda_grid, rollout_policies
from fbrrt.basis import FeatureBox, ValueCoefficients, feature_count, features, value_grad, weighted_least_squares
from fbrrt.forward import (
    ForwardConfig,
    _draw_expansions,
    expansion_schedule,
    forward_expand,
    parallel_forward_baseline,
    sampling_step,
)
from fbrrt.problem import TimeGrid, make_double_integrator_l1, make_lq_problem
from fbrrt.solver import _CsvWriter, rollout_policy
from fbrrt.tree import BranchTree, default_metric_weights

B = 256

# the LQ problem of the lq-lsearch benchmark workload (21 controls)
LQ = make_lq_problem(
    A=[[0.0, 1.0], [0.0, 0.0]],
    B=[[0.0], [1.0]],
    Qr=0.1 * np.eye(2),
    R=np.eye(1),
    Qf=np.eye(2),
    noise=0.3,
    roi_lower=(-1.2, -1.0),
    roi_upper=(1.2, 1.0),
)
DI = make_double_integrator_l1()


def _inputs(problem, seed=0):
    rng = np.random.default_rng(seed)
    X = problem.sample_roi(rng, size=B)
    alpha = rng.normal(size=feature_count(problem.state_dim))
    return X, alpha


@pytest.mark.benchmark(group="candidate_scores")
@pytest.mark.parametrize("problem", [LQ, DI], ids=["lq-C21", "di-C3"])
@pytest.mark.parametrize("rows", [B, 16], ids=["B256", "B16"])
def test_candidate_scores(benchmark, problem, rows):
    # the gradient and the scoring of a sampling step's policy rows; at
    # B = 16 (the benchmark's smoke width) little but the per-call cost is left
    X, alpha = _inputs(problem)
    X = X[:rows]

    def score():
        grad = value_grad(X, alpha, problem.roi_lower, problem.roi_upper)
        return _candidate_scores(problem, 0.3, X, problem.control_candidates, grad)

    choice, cands, _, _ = benchmark(score)
    assert choice.shape == (rows,) and len(cands) == len(problem.control_candidates)


@pytest.mark.benchmark(group="basis")
def test_features(benchmark):
    X, _ = _inputs(DI)
    assert benchmark(features, X, DI.roi_lower, DI.roi_upper).shape == (B, feature_count(2))


@pytest.mark.benchmark(group="basis")
def test_value_grad(benchmark):
    X, alpha = _inputs(DI)
    assert benchmark(value_grad, X, alpha, DI.roi_lower, DI.roi_upper).shape == (B, 2)


@pytest.mark.benchmark(group="basis")
def test_weighted_least_squares(benchmark):
    X, alpha = _inputs(DI)
    phi = features(X, DI.roi_lower, DI.roi_upper)
    targets = phi @ alpha
    weights = np.random.default_rng(1).uniform(0.1, 2.0, size=B)
    fit = benchmark(weighted_least_squares, phi, targets, weights, 1e-8 * B)
    assert np.allclose(fit, alpha, atol=1e-6)


@pytest.mark.benchmark(group="backward")
def test_layer_targets(benchmark):
    rng = np.random.default_rng(0)
    X_prev = LQ.sample_roi(rng, size=B)
    box = FeatureBox(LQ.roi_lower, LQ.roi_upper)
    alphas = rng.normal(size=(5, feature_count(2)))
    y_hat = benchmark(_Targets(LQ, 0.05, box), 3, X_prev, box.feature_rows(X_prev)[1:3], alphas)
    assert y_hat.shape == (5, B)


@pytest.mark.benchmark(group="problem")
def test_lq_grid_drift(benchmark):
    X, _ = _inputs(LQ)
    X = np.concatenate([X] * 5)[:, None, :]
    U = np.asarray(LQ.control_candidates)[None, :, :]
    assert benchmark(LQ.drift, 0.3, X, U).shape == (5 * B, 21, 2)


@pytest.mark.benchmark(group="rollout_step")
@pytest.mark.parametrize("L", [1, 5], ids=["L1", "L5"])
def test_rollout_step(benchmark, L):
    rng = np.random.default_rng(0)
    grid = TimeGrid(dt=0.05, steps=1)
    coefficients = [
        ValueCoefficients(alphas=rng.normal(size=(1, feature_count(2))), lower=LQ.roi_lower, upper=LQ.roi_upper)
        for _ in range(L)
    ]
    reports = benchmark(rollout_policies, LQ, grid, coefficients, LQ.initial_state, B, rng)
    assert len(reports) == L and all(r.costs.shape == (B,) for r in reports)


@pytest.mark.benchmark(group="rollout")
@pytest.mark.parametrize("case", ["close-L5", "independent-L5", "L1"])
def test_rollout(benchmark, case):
    # 30 steps: close coefficients keep most chains on policy 0's, which
    # shares their grid rows; independent ones take the full grid
    rng = np.random.default_rng(0)
    grid = TimeGrid.from_horizon(LQ.horizon, 30)
    c = rng.normal(size=(30, feature_count(2)))
    alphas = {
        "close-L5": [c * (1 + 1e-3 * rng.normal(size=c.shape)) for _ in range(5)],
        "independent-L5": [rng.normal(size=c.shape) for _ in range(5)],
        "L1": [c],
    }[case]
    coefficients = [ValueCoefficients(a, LQ.roi_lower, LQ.roi_upper) for a in alphas]
    reports = benchmark(lambda: rollout_policies(LQ, grid, coefficients, LQ.initial_state, B, np.random.default_rng(1)))
    assert len(reports) == len(alphas) and all(r.costs.shape == (B,) for r in reports)


@pytest.mark.benchmark(group="tree")
def test_nearest_positions(benchmark):
    X, _ = _inputs(DI)
    tree = BranchTree(DI, TimeGrid(dt=0.1, steps=1))
    tree.add_roots(X)
    queries = DI.sample_roi(np.random.default_rng(1), size=B)
    widths = np.full(B, B)
    out = benchmark(tree.nearest, 0, queries, widths, default_metric_weights(DI))
    assert out.shape == (B,) and out.max() < B


@pytest.mark.benchmark(group="tree")
def test_nearest_one_query(benchmark):
    # the per-call cost of the search: one query against a full layer
    X, _ = _inputs(DI)
    tree = BranchTree(DI, TimeGrid(dt=0.1, steps=1))
    tree.add_roots(X)
    query = DI.sample_roi(np.random.default_rng(1), size=1)
    out = benchmark(tree.nearest, 0, query, [B], default_metric_weights(DI))
    assert out.shape == (1,) and out[0] < B


CHAINS = 512
CHAINS_GRID = TimeGrid.from_horizon(DI.horizon, 30)


@pytest.mark.benchmark(group="tree")
def test_chains_step(benchmark):
    # a mid-horizon step of the chains after the first iteration: states
    # spread over the region of interest, a value estimate to exploit
    rng = np.random.default_rng(0)
    X = DI.sample_roi(rng, size=CHAINS)
    coeffs = ValueCoefficients(rng.normal(size=(30, feature_count(2))), DI.roi_lower, DI.roi_upper)
    pick = rng.integers(len(DI.random_controls), size=CHAINS)
    pick[0.7 > rng.uniform(size=CHAINS)] = -1
    W = rng.normal(size=X.shape) * np.sqrt(CHAINS_GRID.dt)
    U, K, ells, X_next = benchmark(sampling_step, DI, CHAINS_GRID, 15, X, pick, coeffs, W)
    assert X_next.shape == (CHAINS, 2) and np.isfinite(ells).all()


@pytest.mark.benchmark(group="tree")
def test_chains_layer_add_edge(benchmark):
    # one chains step from the root layer, as `parallel_forward_baseline` makes it
    rng = np.random.default_rng(0)
    grid = CHAINS_GRID
    X = np.tile(DI.initial_state, (CHAINS, 1))
    pick = rng.integers(len(DI.random_controls), size=CHAINS)
    W = rng.normal(size=X.shape) * np.sqrt(grid.dt)
    U, K, ells, X_next = sampling_step(DI, grid, 0, X, pick, None, W)
    costs = (ells * grid.dt).tolist()

    def fresh_tree():
        tree = BranchTree(DI, grid)
        return (tree, tree.add_roots(X)), {}

    def append(tree, roots):
        return [tree.add_edge(roots[j], U[j], K[j], X_next[j], cost_increment=costs[j]) for j in range(CHAINS)]

    ids = benchmark.pedantic(append, setup=fresh_tree, rounds=100)
    assert ids == list(range(CHAINS, 2 * CHAINS))


def _chains_tree():
    """One iteration's chains tree of the di-chains-out workload and scores."""
    grid = CHAINS_GRID
    tree = parallel_forward_baseline(DI, grid, None, ForwardConfig(target_width=CHAINS), np.random.default_rng(0))
    return tree, [None] + [tree.layer(i).run_costs for i in range(1, grid.steps + 1)]


@pytest.mark.benchmark(group="tree")
def test_chains_dump_csv(benchmark, tmp_path):
    tree, scores = _chains_tree()
    out = tmp_path / "tree.csv"
    benchmark(tree.dump_csv, out, scores)
    assert len(tree.nodes) == 15872 and out.read_bytes().count(b"\n") == 15873


@pytest.mark.benchmark(group="tree")
def test_chains_forked_csv_write(benchmark, tmp_path):
    tree, scores = _chains_tree()
    coeffs = ValueCoefficients(np.zeros((tree.grid.steps, feature_count(2))), DI.roi_lower, DI.roi_upper)
    rollout = rollout_policy(DI, tree.grid, coeffs, DI.initial_state, 256, np.random.default_rng(1))
    writer = _CsvWriter()

    def fork_write_reap():
        writer.start(1, tmp_path, tree, scores, rollout)
        writer.wait()

    benchmark(fork_write_reap)
    assert (tmp_path / "01.tree.csv").read_bytes().count(b"\n") == 15873
    assert (tmp_path / "01.rollouts.csv").read_bytes().count(b"\n") == 257


def _draw_schedules():
    """(layers, widths, eps_rrt, eps_opt) of one iteration of a fresh and of
    a pruned di-tree tree, and the grown tree."""
    grid = TimeGrid.from_horizon(DI.horizon, 30)
    tree = BranchTree(DI, grid)
    tree.add_root()
    fresh = tree.layer_sizes
    forward_expand(tree, None, ForwardConfig(target_width=B), np.random.default_rng(0))
    pruned = tree.prune([None] + [tree.layer(i).states[:, 0] for i in range(1, grid.steps + 1)], 0.3).layer_sizes
    return tree, {
        "fresh": (*expansion_schedule(fresh, B), 1.0, None),
        "pruned": (*expansion_schedule(pruned, B), 0.7, 0.7),
    }


TREE, DRAW_SCHEDULES = _draw_schedules()


@pytest.mark.benchmark(group="tree")
@pytest.mark.parametrize("layers", ["fresh", "pruned", "ties"])
def test_nearest_positions_on_prefixes(benchmark, layers):
    # the expansions of layer 15 in one iteration: a fresh tree's prefix
    # widths grow 1..B, a pruned tree's from the kept nodes up to B.  The
    # worst case, "ties", takes the fresh widths rounded up to even over
    # integer-lattice states that come in equal pairs, so every query ties
    # its nearest node with that node's twin and is rescanned exactly.
    layer, widths, *_ = DRAW_SCHEDULES["fresh" if layers == "ties" else layers]
    widths = widths[layer == 15]
    tree, i = TREE, 15
    if layers == "ties":
        tree, i, widths = BranchTree(DI, TimeGrid(dt=0.1, steps=1)), 0, widths + widths % 2
        tree.add_roots(np.repeat(np.random.default_rng(2).integers(-4, 5, size=(B // 2, 2)), 2, axis=0))
    queries = DI.sample_roi(np.random.default_rng(1), size=len(widths))
    out = benchmark(tree.nearest, i, queries, widths, default_metric_weights(DI))
    assert (out < widths).all()


@pytest.mark.benchmark(group="tree")
def test_tree_sampling_step(benchmark):
    # layer 15 of a grown di-tree tree, about 70% of the rows following the policy
    rng = np.random.default_rng(0)
    X = TREE.layer_states(15)
    coeffs = ValueCoefficients(rng.normal(size=(30, feature_count(2))), DI.roi_lower, DI.roi_upper)
    pick = rng.integers(len(DI.random_controls), size=B)
    pick[0.7 > rng.uniform(size=B)] = -1
    W = rng.normal(size=X.shape) * np.sqrt(CHAINS_GRID.dt)
    U, K, ells, X_next = benchmark(sampling_step, DI, CHAINS_GRID, 15, X, pick, coeffs, W)
    assert X_next.shape == (B, 2) and np.isfinite(ells).all()


@pytest.mark.benchmark(group="backward")
@pytest.mark.parametrize("case", ["lq-C21-lockstep-L5", "di-single-L1", "di-single-L1-M64"])
def test_backward_pass(benchmark, case):
    if case.startswith("lq"):
        tree = BranchTree(LQ, TimeGrid.from_horizon(LQ.horizon, 30))
        tree.add_root()
        forward_expand(tree, None, ForwardConfig(target_width=B), np.random.default_rng(0))
        lam = list(default_lambda_grid(tree))
    else:
        if case.endswith("M64"):
            tree = BranchTree(DI, TimeGrid.from_horizon(DI.horizon, 30))
            tree.add_root()
            forward_expand(tree, None, ForwardConfig(target_width=64), np.random.default_rng(0))
        else:
            tree = TREE
        lam = float(default_lambda_grid(tree)[2])
    result = benchmark(backward_pass, tree, lam)
    assert len(result) == 5 if case.endswith("L5") else result.coefficients.steps == 30


@pytest.mark.benchmark(group="forward_draws")
@pytest.mark.parametrize("layers", ["fresh", "pruned"])
def test_forward_draws(benchmark, layers):
    _, widths, eps_rrt, eps_opt = DRAW_SCHEDULES[layers]
    dt = DI.horizon / 30
    pos, *_ = benchmark(lambda: _draw_expansions(np.random.default_rng(0), DI, widths, eps_rrt, eps_opt, dt))
    assert len(pos) == len(widths)


# the backward pass of the grown di-tree tree, whose rho the solver prunes by
FIT = backward_pass(TREE, float(default_lambda_grid(TREE)[2]))


@pytest.mark.benchmark(group="tree")
def test_prune(benchmark):
    pruned = benchmark(TREE.prune, FIT.rho, 0.3)
    assert all(0.3 * B <= size < B for size in pruned.layer_sizes[1:])


@pytest.mark.benchmark(group="tree")
@pytest.mark.parametrize("start", ["fresh", "pruned"])
def test_forward_expand(benchmark, start):
    # one forward pass of the di-tree workload: from the root with pure
    # exploration (iteration 1), or regrowing the tree pruned to 0.3 by its
    # rho while exploiting its fit (later iterations)
    if start == "fresh":
        coeffs, config = None, ForwardConfig(target_width=B, eps_rrt=1.0, eps_opt=0.0)
    else:
        coeffs, config = FIT.coefficients, ForwardConfig(target_width=B)

    def start_tree():
        if start == "pruned":
            return (TREE.prune(FIT.rho, 0.3),), {}
        fresh = BranchTree(DI, TREE.grid)
        fresh.add_root()
        return (fresh,), {}

    def grow(tree):
        return forward_expand(tree, coeffs, config, np.random.default_rng(1))

    grown = benchmark.pedantic(grow, setup=start_tree, rounds=30)
    assert grown.layer_sizes[1:] == [B] * 30
