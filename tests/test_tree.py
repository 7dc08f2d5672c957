import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbrrt.forward import ForwardConfig, parallel_forward_baseline
from fbrrt.problem import TimeGrid, make_double_integrator_l1, make_lq_problem
from fbrrt.tree import BranchTree, default_metric_weights

from conftest import add_edge, reference_prune, same_bits, same_tree


@pytest.fixture
def problem():
    return make_double_integrator_l1()


@pytest.fixture
def grid(problem):
    return TimeGrid.from_horizon(problem.horizon, 30)


def make_tree(problem, grid):
    tree = BranchTree(problem, grid)
    tree.add_root()
    return tree


def nearest_in_layer(tree, i, query, weights):
    """Position of the node of layer i nearest to one query, over the whole layer."""
    return tree.nearest(i, np.asarray(query, dtype=float)[None], [tree.layer_size(i)], weights)[0]


def test_root_layer(problem, grid):
    tree = make_tree(problem, grid)
    root = tree.layer(0)
    assert tree.layer_sizes == [1] + [0] * grid.steps
    assert root.run_costs[0] == 0.0 and root.parents[0] == -1
    assert np.allclose(root.states[0], problem.initial_state)


def test_add_edge_run_cost(problem, grid):
    # a child's run cost is its parent's plus the increment
    tree = make_tree(problem, grid)
    u = np.array([1.0])
    x0 = tree.layer_states(0)[0]
    child = add_edge(tree, 0, 0, u, problem.drift(0.0, x0, u), np.array([1.0, 0.5]))
    expected = float(problem.running_cost(0.0, x0, u)) * grid.dt
    assert child == 0 and tree.layer(1).run_costs[child] == pytest.approx(expected)
    assert tree.layer_size(1) == 1
    assert tree.add_edge(1, child, u, np.zeros(2), np.zeros(2), 0.25) == 0
    assert tree.layer(2).run_costs[0] == tree.layer(1).run_costs[child] + 0.25


def test_branching_shares_parent(problem, grid):
    tree = make_tree(problem, grid)
    u = np.array([0.0])
    k = problem.drift(0.0, tree.layer_states(0)[0], u)
    a = add_edge(tree, 0, 0, u, k, np.array([0.1, 0.0]))
    b = add_edge(tree, 0, 0, u, k, np.array([-0.1, 0.0]))
    assert tree.layer_size(1) == 2 and (a, b) == (0, 1)
    assert tree.layer(1).parents.tolist() == [0, 0]
    # L1 cost with u=0 accrues nothing
    assert tree.layer(1).run_costs[a] == 0.0


def test_terminal_layer_expansion_rejected(problem):
    grid = TimeGrid.from_horizon(problem.horizon, 1)
    tree = make_tree(problem, grid)
    child = add_edge(tree, 0, 0, np.array([0.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="^cannot expand a node at the terminal layer$"):
        add_edge(tree, 1, child, np.array([0.0]), np.zeros(2), np.zeros(2))


def test_nonfinite_drift_rejected(problem, grid):
    tree = make_tree(problem, grid)
    child = add_edge(tree, 0, 0, np.array([0.0]), np.zeros(2), np.zeros(2))
    for bad in (np.nan, np.inf, -np.inf):
        for drift in ([bad, 0.0], [0.0, bad]):
            for given in (np.array, list):
                with pytest.raises(ValueError, match="drift must be finite"):
                    add_edge(tree, 1, child, [0.0], given(drift), np.zeros(2))
                # rejected before anything is stored
                assert tree.layer_sizes[:3] == [1, 1, 0] and len(tree.nodes) == 2
    assert add_edge(tree, 1, child, [0.0], [0.0, 1.0], np.zeros(2)) == 0
    assert tree.layer(2).ids.tolist() == [2]


def test_add_edge_refuses_an_address_outside_the_tree(problem):
    # the address is checked before the terminal layer, and that before the
    # drift; a negative layer or position is refused, not wrapped around,
    # and a refused edge stores nothing
    grid = TimeGrid.from_horizon(problem.horizon, 2)
    tree = make_tree(problem, grid)
    tree.add_edge(0, 0, [0.0], np.zeros(2), np.ones(2), 0.5)
    tree.add_edge(1, 0, [0.0], np.zeros(2), np.ones(2), 0.5)
    before = [[a.copy() for a in tree.layer(i)] for i in range(3)]
    nan_drift = [np.nan, 0.0]
    for i, j in [(-1, 0), (-3, 0), (0, -1), (1, -1), (0, 1), (1, 1), (2, 1), (3, 0)]:
        with pytest.raises(IndexError, match=f"^node {j} of layer {i} out of range$"):
            tree.add_edge(i, j, [0.0], nan_drift, np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="^cannot expand a node at the terminal layer$"):
        tree.add_edge(2, 0, [0.0], nan_drift, np.zeros(2), 0.0)
    assert tree.layer_sizes == [1, 1, 1] and len(tree.nodes) == 3
    assert all(same_bits(a, b) for i in range(3) for a, b in zip(tree.layer(i), before[i]))


def chain(tree, length, u=np.array([1.0])):
    for i in range(length):
        x = tree.layer_states(i)[0]
        k = tree.problem.drift(i * tree.grid.dt, x, u)
        add_edge(tree, i, 0, u, k, x + k * tree.grid.dt)


def root_path(tree, i, j):
    """Positions, layer 0..i, of the root path of the j-th node of layer i."""
    path = [j]
    for layer in range(i, 0, -1):
        path.append(int(tree.layer(layer).parents[path[-1]]))
    return path[::-1]


def test_chain_root_paths(problem, grid):
    tree = make_tree(problem, grid)
    assert root_path(tree, 0, 0) == [0]
    chain(tree, 3)
    assert tree.layer_sizes[:5] == [1, 1, 1, 1, 0]
    assert root_path(tree, 3, 0) == [0, 0, 0, 0]
    assert np.allclose(tree.layer_states(0)[0], problem.initial_state)
    assert [tree.layer(i).ids.tolist() for i in range(4)] == [[0], [1], [2], [3]]


def test_path_replay_identity(problem, grid):
    # recorded (k, u) replayed through the euler update reproduce the states
    rng = np.random.default_rng(0)
    tree = make_tree(problem, grid)
    j = 0
    for i in range(5):
        x = tree.layer_states(i)[j]
        u = np.asarray(problem.random_controls)[rng.integers(3)]
        k = problem.drift(i * grid.dt, x, u)
        w = rng.normal(size=2) * np.sqrt(grid.dt)
        x_next = x + k * grid.dt + problem.sigma @ w
        j = add_edge(tree, i, j, u, k, x_next)
    path = root_path(tree, 5, 0)
    for i in range(1, len(path)):
        layer = tree.layer(i)
        x_prev = tree.layer_states(i - 1)[layer.parents[path[i]]]
        x, k, u = layer.states[path[i]], layer.drifts[path[i]], layer.controls[path[i]]
        k_replay = problem.drift((i - 1) * grid.dt, x_prev, u)
        assert np.allclose(k, k_replay, atol=1e-12)
        # noise recoverable because sigma is invertible
        w = np.linalg.solve(problem.sigma, x - x_prev - k * grid.dt)
        assert np.allclose(x_prev + k * grid.dt + problem.sigma @ w, x)


def test_run_cost_telescoping(problem, grid):
    rng = np.random.default_rng(1)
    tree = make_tree(problem, grid)
    for _ in range(50):
        i = rng.integers(0, grid.steps)
        if not tree.layer_size(i):
            continue
        j = int(rng.choice(tree.layer_size(i)))
        u = np.asarray(problem.random_controls)[rng.integers(3)]
        x = tree.layer_states(i)[j]
        k = problem.drift(i * grid.dt, x, u)
        add_edge(tree, i, j, u, k, x + rng.normal(size=2))
    assert np.all(tree.layer(0).run_costs == 0.0)
    for i in range(1, grid.steps + 1):
        layer, above = tree.layer(i), tree.layer(i - 1)
        for j, p in enumerate(layer.parents):
            inc = float(problem.running_cost((i - 1) * grid.dt, above.states[p], layer.controls[j])) * grid.dt
            assert abs(layer.run_costs[j] - (above.run_costs[p] + inc)) < 1e-12


def test_nearest_singleton_and_simple(problem, grid):
    tree = make_tree(problem, grid)
    w = np.ones(2)
    assert np.allclose(tree.layer_states(0)[nearest_in_layer(tree, 0, np.array([5.0, 5.0]), w)], problem.initial_state)
    add_edge(tree, 0, 0, np.array([0.0]), np.zeros(2), np.array([0.0, 0.0]))
    add_edge(tree, 0, 0, np.array([0.0]), np.zeros(2), np.array([1.0, 0.0]))
    assert np.allclose(tree.layer_states(1)[nearest_in_layer(tree, 1, np.array([0.4, 0.0]), w)], [0.0, 0.0])


def test_nearest_matches_brute_force(problem, grid):
    rng = np.random.default_rng(2)
    tree = make_tree(problem, grid)
    states = rng.uniform(-3, 3, size=(100, 2))
    for s in states:
        add_edge(tree, 0, 0, np.array([0.0]), np.zeros(2), s)
    weights = default_metric_weights(problem)
    for _ in range(100):
        q = rng.uniform(-3, 3, size=2)
        got = nearest_in_layer(tree, 1, q, weights)
        dists = [(np.sum(weights * (x - q) ** 2), j) for j, x in enumerate(tree.layer_states(1))]
        want = min(dists)[1]
        assert got == want


def layer_tree(problem, grid, states):
    tree = make_tree(problem, grid)
    for s in states:
        add_edge(tree, 0, 0, np.array([0.0]), np.zeros(2), s)
    return tree


def test_nearest_matches_the_nearest_node_of_each_prefix(problem, grid):
    # each query of a batch sees only a prefix of the layer and must pick
    # what a scan of the layer grown to that width picks; copies of earlier
    # states pin the tie-break to the lowest position
    rng = np.random.default_rng(4)
    states = rng.uniform(-3, 3, size=(70, 2))
    states[40:55] = states[rng.integers(40, size=15)]
    queries = rng.uniform(-3, 3, size=(100, 2))
    queries[::3] = states[rng.integers(40, 55, size=34)]  # on a copied state
    widths = np.sort(rng.integers(1, 71, size=100))
    weights = default_metric_weights(problem)
    tree = layer_tree(problem, grid, states)
    got = tree.nearest(1, queries, widths, weights)
    for q, width, pos in zip(queries, widths, got):
        assert pos == nearest_in_layer(layer_tree(problem, grid, states[:width]), 1, q, weights)
        on_node = np.flatnonzero((states[:width] == q).all(axis=1))
        if len(on_node):
            assert pos == on_node[0]


def nearest_reference(states, queries, widths, weights):
    """`BranchTree.nearest` on a zero-started distance with every column past
    a query's width masked."""
    out = np.empty(len(widths), dtype=np.intp)
    for start in range(0, len(widths), 32):
        q, w = queries[start : start + 32], widths[start : start + 32]
        X = states[: w.max()]
        dist = np.zeros((len(q), len(X)))
        for k, weight in enumerate(weights):
            diff = X[:, k] - q[:, k, None]
            diff *= diff
            diff *= weight
            dist += diff
        dist[np.arange(len(X)) >= w[:, None]] = np.inf
        out[start : start + 32] = dist.argmin(axis=1)
    return out


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 3),
    size=st.integers(1, 90),
    count=st.integers(1, 100),
    equal_widths=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_nearest_matches_the_fully_masked_scan(n, size, count, equal_widths, seed):
    # integer states and queries make exact distance ties; a chunk of 32
    # queries sees one width or several
    rng = np.random.default_rng(seed)
    p = make_lq_problem(np.zeros((n, n)), np.zeros((n, 1)), np.eye(n), np.eye(1), np.eye(n), noise=1.0, grid_points=2)
    states = rng.integers(-2, 3, size=(size, n)).astype(float)
    queries = rng.integers(-2, 3, size=(count, n)).astype(float)
    if not equal_widths:
        queries[::2] += rng.uniform(-0.5, 0.5, size=queries[::2].shape)
    widths = np.full(count, rng.integers(1, size + 1)) if equal_widths else rng.integers(1, size + 1, size=count)
    weights = rng.uniform(0.1, 2.0, size=n)
    tree = BranchTree(p, TimeGrid(dt=0.1, steps=1))
    tree.add_roots(states)
    got = tree.nearest(0, queries, widths, weights)
    assert same_bits(got, nearest_reference(states, queries, widths, weights))


def test_nearest_matches_brute_force_across_chunks(problem, grid):
    # 200 queries span several chunks; rows 60-70 straddle the edge at 64
    # with one query that ties several states at full width, and the
    # prefix widths jump between and inside chunks
    rng = np.random.default_rng(5)
    states = rng.integers(-3, 4, size=(150, 2)).astype(float)
    states[100:] = states[rng.integers(100, size=50)]
    queries = rng.integers(-3, 4, size=(200, 2)).astype(float) + 0.5
    queries[60:70] = queries[60]
    widths = rng.integers(1, 151, size=200)
    widths[60:70] = [3, 150, 40, 150, 2, 150, 75, 1, 150, 99]
    weights = default_metric_weights(problem)
    got = layer_tree(problem, grid, states).nearest(1, queries, widths, weights)
    tied = []
    for q, width, pos in zip(queries, widths, got):
        dist = np.zeros(width)
        for k, weight in enumerate(weights):
            dist = dist + (states[:width, k] - q[k]) ** 2 * weight
        nearest = np.flatnonzero(dist == dist.min())
        assert pos == nearest[0]
        tied.append(len(nearest) > 1)
    assert sum(tied) > 100 and all(tied[j] for j in (61, 63, 65, 68))  # the full width, either side of 64


def ulps(values, steps):
    """`values` moved `steps` units in the last place, up or down per entry."""
    out = values.copy()
    for _ in range(int(np.abs(steps).max(initial=0))):
        moving = np.abs(steps) > 0
        out[moving] = np.nextafter(out[moving], np.sign(steps[moving]) * np.inf)
        steps = steps - np.sign(steps)
    return out


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_nearest_near_ties_match_the_exact_scan(problem, grid, offset):
    # states a 2^-10 lattice (spreads of about 1e-3, exact at every offset)
    # around a large offset; queries on midpoints of two states tie them
    # exactly, and queries 1-4 ulp off a midpoint tie them up to rounding.
    # At 1e6 the screen's s_j cancel to noise at these spreads, so only the
    # exact recheck can order the nodes.  Tied rows sit on both sides of the
    # chunk edge at 64, the prefix widths vary within and across chunks, and
    # a NaN query takes the exact scan's answer.
    rng = np.random.default_rng(8)
    states = offset + rng.integers(-8, 9, size=(120, 2)) * 2.0**-10
    pairs = rng.integers(120, size=(200, 2))
    pairs[:, 1] = np.minimum(pairs[:, 1], pairs[:, 0] + 10)  # both ends of most pairs in small prefixes
    queries = (states[pairs[:, 0]] + states[pairs[:, 1]]) / 2
    queries[1::2] = ulps(queries[1::2], rng.integers(-4, 5, size=(100, 2)))
    queries[66] = np.nan, offset
    widths = np.maximum(pairs.max(axis=1) + 1, rng.integers(1, 121, size=200))
    widths[55:75] = 120
    weights = default_metric_weights(problem)
    got = layer_tree(problem, grid, states).nearest(1, queries, widths, weights)
    assert same_bits(got, nearest_reference(states, queries, widths, weights))


def test_nearest_screen_rechecks_ties_and_overflow_only(problem, grid, monkeypatch):
    # the screen settles a row that one node wins by far and hands every
    # row with an exact tie, a NaN or an overflow to the exact scan
    import fbrrt.tree

    rechecked = []

    def exact(XT, queries, widths, weights):
        rechecked.extend(queries.tolist())
        return scan(XT, queries, widths, weights)

    scan = fbrrt.tree._nearest_exact
    monkeypatch.setattr(fbrrt.tree, "_nearest_exact", exact)
    lattice = np.array([[a, b] for a in range(-3, 4) for b in range(-3, 4)], dtype=float)
    states = np.concatenate([lattice, [[1e11, 0.0]]])
    clear = lattice + [0.1, 0.23]  # each sees the prefix that its own node ends
    tied = lattice[lattice[:, 0] < 3] + [0.5, 0.0]  # midway between two lattice neighbours
    # (w * 1e300) * 1e11 overflows the screen to +inf, and its bound too; the exact distances all overflow
    queries = np.concatenate([[[1e300, 0.0], [np.nan, 0.0]], clear, tied])
    widths = np.concatenate([[len(states), len(lattice)], np.arange(1, len(lattice) + 1), np.full(len(tied), len(lattice))])
    weights = default_metric_weights(problem)
    with np.errstate(over="ignore", invalid="ignore"):
        got = layer_tree(problem, grid, states).nearest(1, queries, widths, weights)
        want = nearest_reference(states, queries, widths, weights)
    assert same_bits(got, want) and got[0] == 0
    assert np.array_equal(rechecked, np.concatenate([queries[:2], tied]), equal_nan=True)


def test_nearest_without_queries(problem, grid):
    # a layer with no RRT expansion still makes the call (eps_rrt = 0)
    out = layer_tree(problem, grid, np.zeros((3, 2))).nearest(1, np.empty((0, 2)), [], np.ones(2))
    assert same_bits(out, np.empty(0, dtype=np.intp))


def test_nearest_rejects_widths_beyond_the_layer(problem, grid):
    tree = layer_tree(problem, grid, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        tree.nearest(1, np.zeros((1, 2)), [4], np.ones(2))
    with pytest.raises(ValueError):
        tree.nearest(1, np.zeros((1, 2)), [0], np.ones(2))


def test_nearest_empty_layer_raises(problem, grid):
    tree = make_tree(problem, grid)
    with pytest.raises(ValueError):
        nearest_in_layer(tree, 1, np.zeros(2), np.ones(2))


def grow_random(problem, grid, M, seed=3):
    from fbrrt.forward import ForwardConfig, forward_expand

    tree = BranchTree(problem, grid)
    tree.add_root()
    forward_expand(tree, None, ForwardConfig(M, eps_rrt=0.5, eps_opt=0.0), np.random.default_rng(seed))
    return tree


def run_cost_scores(tree):
    return [None] + [tree.layer(i).run_costs.copy() for i in range(1, tree.grid.steps + 1)]


def test_prune_keep_all_is_identity(problem):
    grid = TimeGrid.from_horizon(problem.horizon, 5)
    tree = grow_random(problem, grid, 16)
    pruned = tree.prune(run_cost_scores(tree), keep_fraction=1.0)
    assert pruned.layer_sizes == tree.layer_sizes
    for i in range(grid.steps + 1):
        a, b = tree.layer(i), pruned.layer(i)
        assert np.array_equal(a.ids, b.ids)
        assert np.allclose(a.states, b.states)
        assert np.array_equal(a.run_costs, b.run_costs)


def test_prune_keeps_lowest_scores_with_ancestry():
    problem = make_double_integrator_l1()
    grid = TimeGrid.from_horizon(problem.horizon, 2)
    tree = BranchTree(problem, grid)
    tree.add_root()
    # two chains: controls (1,1) and (0,0); run costs favor the zero chain
    u1, u0 = np.array([1.0]), np.array([0.0])
    x0 = tree.layer_states(0)[0]
    a = add_edge(tree, 0, 0, u1, problem.drift(0, x0, u1), np.array([1.0, 1.0]))
    b = add_edge(tree, 0, 0, u0, problem.drift(0, x0, u0), np.array([2.0, 0.0]))
    add_edge(tree, 1, a, u1, problem.drift(0, tree.layer_states(1)[a], u1), np.array([1.0, 2.0]))
    add_edge(tree, 1, b, u0, problem.drift(0, tree.layer_states(1)[b], u0), np.array([2.0, 0.0]))
    scores = run_cost_scores(tree)
    pruned = tree.prune(scores, keep_fraction=0.5)
    # the cheap chain survives in full
    assert pruned.layer_sizes == [1, 1, 1]
    assert all(pruned.layer(i).run_costs[0] == 0.0 for i in range(3))


def test_prune_preserves_parent_invariant(problem):
    grid = TimeGrid.from_horizon(problem.horizon, 6)
    tree = grow_random(problem, grid, 32, seed=4)
    pruned = tree.prune(run_cost_scores(tree), keep_fraction=0.25)
    assert np.all(pruned.layer(0).parents == -1)
    for i in range(1, grid.steps + 1):
        assert pruned.layer_size(i) >= int(np.ceil(0.25 * 32))
        # every parent is a node of layer i - 1, appended before its child
        parents = pruned.layer(i).parents
        assert np.all((0 <= parents) & (parents < pruned.layer_size(i - 1)))
        assert np.all(pruned.layer(i - 1).ids[parents] < pruned.layer(i).ids)
    # every node traces to a root
    for i in range(grid.steps + 1):
        for j in range(pruned.layer_size(i)):
            assert pruned.layer(0).parents[root_path(pruned, i, j)[0]] == -1


def test_prune_missing_scores_rejected(problem):
    grid = TimeGrid.from_horizon(problem.horizon, 3)
    tree = grow_random(problem, grid, 8, seed=5)
    scores = run_cost_scores(tree)
    scores[2] = scores[2][:-1]
    with pytest.raises(ValueError):
        tree.prune(scores, keep_fraction=0.5)
    with pytest.raises(ValueError):
        tree.prune(run_cost_scores(tree), keep_fraction=0.0)


def prune_cases(problem):
    """Trees to prune: grown, pruned (layers of unequal width), regrown,
    chains, and a tree grown node by node under random parents."""
    from fbrrt.forward import ForwardConfig, forward_expand

    grid = TimeGrid.from_horizon(problem.horizon, 7)
    grown = grow_random(problem, grid, 40, seed=7)
    pruned = grown.prune(run_cost_scores(grown), 0.3)
    regrown = forward_expand(
        grown.prune(run_cost_scores(grown), 0.3), None, ForwardConfig(40, eps_rrt=0.5, eps_opt=0.0),
        np.random.default_rng(8),
    )
    chains = parallel_forward_baseline(problem, grid, None, ForwardConfig(target_width=24), np.random.default_rng(9))
    rng = np.random.default_rng(10)
    ragged = make_tree(problem, grid)
    for i in range(grid.steps):
        for _ in range(rng.integers(1, 30)):
            add_edge(ragged, i, rng.integers(ragged.layer_size(i)), np.array([1.0]), np.zeros(2), rng.normal(size=2))
    return {"grown": grown, "pruned": pruned, "regrown": regrown, "chains": chains, "ragged": ragged}


def tied_scores(tree, kind, rng):
    """Scores for layers 1..N: few distinct values, so many exact ties."""
    out = [None]
    for size in tree.layer_sizes[1:]:
        s = np.round(rng.normal(size=size))
        if kind == "inf":
            s[rng.uniform(size=size) < 0.3] = np.inf
            s[rng.uniform(size=size) < 0.2] = -np.inf
        elif kind == "zeros":
            s = np.where(rng.uniform(size=size) < 0.3, 1.0, 0.0)
            s[rng.uniform(size=size) < 0.5] = -0.0
        out.append(s)
    return out


@pytest.mark.parametrize("kind", ["rounded", "inf", "zeros"])
@pytest.mark.parametrize("case", ["grown", "pruned", "regrown", "chains", "ragged"])
def test_prune_matches_the_per_layer_stable_argsort(problem, case, kind):
    # threshold selection must keep exactly the nodes a stable argsort of
    # each layer keeps: ties go to the lowest positions, -0.0 ties +0.0
    tree = prune_cases(problem)[case]
    rng = np.random.default_rng(0)
    for keep_fraction in (1e-9, 0.3, 0.5, 0.999, 1.0):  # 1e-9 keeps one node per layer
        scores = tied_scores(tree, kind, rng)
        got = tree.prune(scores, keep_fraction)
        assert same_tree(got, reference_prune(tree, scores, keep_fraction))
        assert same_tree(got.prune(tied_scores(got, kind, rng), 1.0), got)


def test_prune_rejects_nan_scores(problem):
    grid = TimeGrid.from_horizon(problem.horizon, 4)
    tree = grow_random(problem, grid, 8, seed=5)
    scores = run_cost_scores(tree)
    scores[2][[0, 5]] = np.inf, -np.inf
    tree.prune(scores, 0.5)  # ±inf rank as numbers
    scores[3][4] = np.nan
    with pytest.raises(ValueError, match="layer 3"):
        tree.prune(scores, 0.5)
    scores[3][4], scores[4][7] = 0.0, np.nan  # a full-width layer
    with pytest.raises(ValueError, match="layer 4"):
        tree.prune(scores, 1.0)


def test_regrowing_a_pruned_tree_reserves_nothing(tmp_path, problem, monkeypatch):
    # the pruned tree keeps the grown tree's width, and regrows to the
    # bytes a tree pruned to its kept width regrows to
    from fbrrt.forward import ForwardConfig, forward_expand

    grid = TimeGrid.from_horizon(problem.horizon, 10)
    tree = grow_random(problem, grid, 48, seed=11)
    scores = run_cost_scores(tree)
    config = ForwardConfig(48, eps_rrt=0.5, eps_opt=0.0)
    want = forward_expand(reference_prune(tree, scores, 0.3), None, config, np.random.default_rng(12))
    reserves = []
    reserve = BranchTree._reserve
    monkeypatch.setattr(BranchTree, "_reserve", lambda self, width: reserves.append(width) or reserve(self, width))
    got = forward_expand(tree.prune(scores, 0.3), None, config, np.random.default_rng(12))
    assert reserves == []
    assert same_tree(got, want)
    got.dump_csv(tmp_path / "got.csv", scores)
    want.dump_csv(tmp_path / "want.csv", scores)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_dump_csv(tmp_path, problem):
    grid = TimeGrid.from_horizon(problem.horizon, 3)
    tree = grow_random(problem, grid, 4, seed=6)
    out = tmp_path / "tree.csv"
    tree.dump_csv(out, scores=run_cost_scores(tree))
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == [
        "id", "time_index", "parent_id", "x0", "x1", "k0", "k1", "u0", "run_cost", "rho",
    ]
    assert len(lines) == len(tree.nodes) + 1


def reference_csv(tree, scores) -> bytes:
    """The per-row writer `dump_csv` replaced: a float64 table in id order,
    one `%` per row, roots formatted without their -1 parent."""
    n, m = tree.problem.state_dim, tree.problem.control_dim
    blocks = []
    for i, size in enumerate(tree.layer_sizes):
        layer = tree.layer(i)
        rho = np.full(size, np.nan)
        if scores is not None and i < len(scores) and scores[i] is not None:
            rho[: min(len(scores[i]), size)] = scores[i][:size]
        parents = tree.layer(i - 1).ids[layer.parents] if i else np.full(size, -1)
        columns = [layer.ids, np.full(size, i), parents, layer.states, layer.drifts, layer.controls]
        blocks.append(np.column_stack(columns + [layer.run_costs, rho]))
    table = np.concatenate(blocks)
    table = table[np.argsort(table[:, 0], kind="stable")]
    header = [f"{c}{k}" for c, d in (("x", n), ("k", n), ("u", m)) for k in range(d)]
    values = ",%.12g" * (2 * n + m + 2) + "\r\n"
    row_format, root_format = "%d,%d,%d" + values, "%d,%d,%.0s" + values
    lines = [",".join(["id", "time_index", "parent_id"] + header + ["run_cost", "rho"]) + "\r\n"]
    lines += [(row_format if row[2] >= 0 else root_format) % tuple(row) for row in table.tolist()]
    return "".join(lines).encode()


def test_dump_csv_matches_the_per_row_writer(tmp_path):
    # Scratch mutations of `dump_csv` this test fails on: a block of 4095
    # rows or a block edge one row off, a root's parent printed as -1, a
    # `+ 0.0` on the float columns (prints -0.0 as 0), "%.12f" or "%s" for
    # the values, and rho aligned from the wrong end of a short score list.
    problem = make_double_integrator_l1(initial_state=(-0.0, 2.5e-7))
    grid = TimeGrid.from_horizon(problem.horizon, 9)
    tree = parallel_forward_baseline(problem, grid, None, ForwardConfig(target_width=512), np.random.default_rng(8))
    assert len(tree.nodes) == 5120  # a full 4096-row block and a partial one
    rng = np.random.default_rng(9)
    scores = [None] * 6
    scores[1] = rng.normal(size=512) * 10.0 ** rng.integers(-30, 30, size=512)  # exponent notation
    scores[3] = np.where(rng.uniform(size=512) < 0.5, -0.0, 1e-300)
    scores[4] = rng.normal(size=300)  # shorter than its layer
    scores[5] = np.array([np.inf, -np.inf, np.nan, 123456789012345.0, 0.1] * 103)[:512]
    # layers 0 and 2 are None, layers 6-9 have no entry
    out = tmp_path / "tree.csv"
    tree.dump_csv(out, scores=scores)
    text = out.read_bytes()
    assert b"-0," in text and b"e-" in text and b"e+" in text
    assert text == reference_csv(tree, scores)
    tree.dump_csv(out)
    assert out.read_bytes() == reference_csv(tree, None)
