"""Branch-sampled path tree: per-timestep particle layers with parent edges.

Each node carries the drift sample and control used on its incoming edge and
the running cost accumulated along its unique root path, so every node at
layer i represents one sampled path of the discrete path measure at t_i with
mass 1/M_i.

Storage is struct-of-arrays: one array per field with one row per layer,
layer i's nodes in positions 0..M_i-1 of row i.  Node ids count appends over
the whole tree, so they increase along every layer.  `TreeNode` records are
built on demand for callers that look at one node at a time.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional

import numpy as np

from .problem import ControlProblem, TimeGrid

_EPS = float(np.finfo(float).eps)


@dataclass
class TreeNode:
    id: int
    time_index: int
    state: np.ndarray  # (n,)
    parent: Optional[int]  # node id; None for roots
    control: Optional[np.ndarray]  # (m,) control on the incoming edge
    drift: Optional[np.ndarray]  # (n,) drift sample on the incoming edge
    run_cost: float


class Layer(NamedTuple):
    """Views of one layer's arrays in node order.

    The root layer has parent -1 and NaN control and drift.
    """

    ids: np.ndarray  # (M_i,) increasing node ids
    states: np.ndarray  # (M_i, n)
    parents: np.ndarray  # (M_i,) positions in layer i-1
    controls: np.ndarray  # (M_i, m) on the incoming edge
    drifts: np.ndarray  # (M_i, n) on the incoming edge
    run_costs: np.ndarray  # (M_i,)


class _View(Sequence):
    """Read-only sequence whose items are built on demand: `tree.nodes`
    (`TreeNode` records in id order) and `tree.layers` (node ids per layer)."""

    def __init__(self, length, item):
        self._length, self._item = length, item

    def __len__(self) -> int:
        return self._length()

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._item(j) for j in range(*k.indices(len(self)))]
        return self._item(k)


class BranchTree:
    """Layered tree over a time grid; single-writer during growth."""

    _FIELDS = ("_state", "_control", "_drift", "_run_cost", "_parent", "_id")

    def __init__(self, problem: ControlProblem, grid: TimeGrid):
        self.problem, self.grid = problem, grid
        n, m, layers = problem.state_dim, problem.control_dim, grid.steps + 1
        self._size, self._count, self._width = [0] * layers, 0, 0
        self._state, self._control, self._drift = (np.empty((layers, 0, d)) for d in (n, m, n))
        self._run_cost = np.empty((layers, 0))
        self._parent, self._id = np.empty((layers, 0), dtype=np.intp), np.empty((layers, 0), dtype=np.intp)
        # layer and position by node id; every node fills a slot, so layers * width entries suffice
        self._layer_of, self._pos_of = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        self._reserve(4)

    def _reserve(self, width: int):
        """Room for `width` nodes in every layer; nodes keep their positions and ids."""
        if width > self._width:
            for name in self._FIELDS + ("_layer_of", "_pos_of"):
                old = getattr(self, name)
                shape = (len(self._size), width) + old.shape[2:] if old.ndim > 1 else (len(self._size) * width,)
                setattr(self, name, np.empty(shape, dtype=old.dtype))
                getattr(self, name)[tuple(slice(k) for k in old.shape)] = old
            self._width = width

    @property
    def nodes(self) -> _View:
        return _View(lambda: self._count, lambda node_id: self._node_at(*self._position(node_id)))

    @property
    def layers(self) -> _View:
        """Node ids of every layer, in layer order; `layers[i]` is a list."""
        return _View(lambda: len(self._size), lambda i: self._id[i, : self._size[i]].tolist())

    def add_root(self, x0=None) -> int:
        return self.add_roots(np.asarray(self.problem.initial_state if x0 is None else x0, dtype=float)[None]).start

    def add_roots(self, states) -> range:
        """Append one root per row of `states`; returns their ids."""
        lo, ids = self._size[0], range(self._count, self._count + len(states))
        hi = lo + len(ids)
        if hi > self._width:
            self._reserve(max(hi, 2 * self._width))
        self._state[0, lo:hi] = states
        self._control[0, lo:hi] = self._drift[0, lo:hi] = np.nan
        self._run_cost[0, lo:hi], self._parent[0, lo:hi], self._id[0, lo:hi] = 0.0, -1, ids
        self._layer_of[ids.start : ids.stop], self._pos_of[ids.start : ids.stop] = 0, range(lo, hi)
        self._size[0], self._count = hi, ids.stop
        return ids

    def add_edge(self, parent_id: int, control, drift, child_state, cost_increment: float | None = None) -> int:
        """Append a child under `parent_id`; returns the child id.

        `cost_increment` is l(t_i, x_parent, u) * dt; computed from the
        problem when not supplied.
        """
        i, j = self._position(parent_id)
        if i >= self.grid.steps:
            raise ValueError("cannot expand a node at the terminal layer")
        # math.isfinite on a list of floats costs a tenth of np.isfinite on one short row
        if not all(map(math.isfinite, drift.tolist() if isinstance(drift, np.ndarray) else drift)):
            raise ValueError("drift must be finite")
        if cost_increment is None:
            control = np.asarray(control, dtype=float)
            cost_increment = float(self.problem.running_cost(i * self.grid.dt, self._state[i, j], control)) * self.grid.dt
        c, pos, node_id = i + 1, self._size[i + 1], self._count
        if pos == self._width:
            self._reserve(2 * pos)
        self._state[c, pos] = child_state
        self._control[c, pos] = control
        self._drift[c, pos] = drift
        self._run_cost[c, pos] = self._run_cost[i, j] + cost_increment
        self._parent[c, pos] = j
        self._id[c, pos] = node_id
        self._layer_of[node_id], self._pos_of[node_id] = c, pos
        self._size[c], self._count = pos + 1, node_id + 1
        return node_id

    def append_layer(self, i: int, parents, controls, drifts, states, cost_increments, ids):
        """Unchecked append of children under positions `parents` of
        non-terminal layer i, in order, with increasing node ids `ids`.

        For callers that validate drifts and states themselves and grow
        several layers at once: the ids of everything appended must in the
        end number the new nodes consecutively from the old node count.
        """
        c, lo = i + 1, self._size[i + 1]
        hi = lo + len(ids)
        # room for the new nodes and an id slot up to the largest new id, the last
        width = max(hi, (int(ids[-1]) + len(self._size)) // len(self._size))
        if width > self._width:
            self._reserve(max(width, 2 * self._width))
        self._state[c, lo:hi], self._control[c, lo:hi], self._drift[c, lo:hi] = states, controls, drifts
        self._run_cost[c, lo:hi] = self._run_cost[i][parents] + cost_increments
        self._parent[c, lo:hi], self._id[c, lo:hi] = parents, ids
        self._layer_of[ids], self._pos_of[ids] = c, np.arange(lo, hi)
        self._size[c], self._count = hi, self._count + len(ids)

    def layer_size(self, i: int) -> int:
        return self._size[i]

    @property
    def layer_sizes(self) -> list[int]:
        return list(self._size)

    def layer(self, i: int) -> Layer:
        fields = (self._id, self._state, self._parent, self._control, self._drift, self._run_cost)
        return Layer(*(a[i, : self._size[i]] for a in fields))

    def layer_states(self, i: int) -> np.ndarray:
        """(M_i, n) states of layer i (a view)."""
        return self._state[i, : self._size[i]]

    def layer_edges(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """`layer(i)`'s parents and run costs alone (views), without the
        other four fields."""
        size = self._size[i]
        return self._parent[i, :size], self._run_cost[i, :size]

    def _position(self, node_id) -> tuple[int, int]:
        if not -self._count <= node_id < self._count:
            raise IndexError(f"node {node_id} out of range")
        return self._layer_of.item(node_id % self._count), self._pos_of.item(node_id % self._count)

    def _node_at(self, i: int, j: int) -> TreeNode:
        root = i == 0
        return TreeNode(
            id=int(self._id[i, j]),
            time_index=i,
            state=self._state[i, j].copy(),
            parent=None if root else int(self._id[i - 1, self._parent[i, j]]),
            control=None if root else self._control[i, j].copy(),
            drift=None if root else self._drift[i, j].copy(),
            run_cost=float(self._run_cost[i, j]),
        )

    def nearest(self, i: int, queries, widths, metric_weights) -> np.ndarray:
        """For each row of `queries`, the position of the nearest node among
        the first `widths[q]` nodes of layer i; ties go to the lowest position.

        The answer is that of the exact scan (`_nearest_exact`): distances
        d_j = sum_k w_k (x_jk - q_k)^2 summed one dimension at a time, so a
        node's distance to a query rounds alike in any batch.  Most rows
        are settled by a screen instead: with s_j = (w*q).x_j - |x_j|^2_w / 2,
        d_j = |q|^2_w - 2 s_j, so the largest s_j is the nearest node, and a
        64-query chunk gets every s_j from one matrix product of [w*q, -1/2]
        (Q, n+1) and [x_j; |x_j|^2_w] (n+1, W).  A row keeps the screen's
        argmax only when it beats the runner-up by more than

            tau = 4 (n + 3) eps (|q|^2_|w| + max_j |x_j|^2_|w|),

        j over the query's prefix; any other row (NaN and overflow
        included) is rescanned exactly.  Why that suffices, with u = eps / 2
        and gamma_k = k u / (1 - k u): however the BLAS orders, blocks or
        fuses the n + 1 products of an entry, a computed s_j is off by at
        most gamma_{2n+2} (|q|^2 + M), M the max above (w*q and |x_j|^2_w
        carry 1 and n + 1 roundings, and |w_k q_k x_jk| <= |w_k| (q_k^2 +
        x_jk^2) / 2); the exact scan's d_j, four roundings per term and
        n - 1 additions, is off by at most gamma_{n+3} 2 (|q|^2 + M).  A
        screened gap g > tau between the best b and any j thus gives
        s_b - s_j > g - 2 gamma_{2n+2} (...), and the scan's d_j - d_b >=
        2 (s_b - s_j) - 4 gamma_{n+3} (...) > 2 tau - (12n + 20) u (...) =
        (2n + 14) eps (...), a margin the rounding of tau and g cannot use
        up: the scan's strict minimum is b, and no tie-break can move it.
        """
        widths = np.asarray(widths, dtype=np.intp)
        out = np.empty(len(widths), dtype=np.intp)
        if not len(widths):
            return out
        narrowest, widest = int(widths.min()), int(widths.max())
        if not 0 < narrowest <= widest <= self._size[i]:
            raise ValueError(f"layer {i} is empty" if not self._size[i] else f"prefix widths exceed layer {i}")
        weights = np.asarray(metric_weights, dtype=float)
        queries = np.asarray(queries, dtype=float)
        n, XT = len(weights), self._state[i, :widest].T
        squares = XT * XT
        nodes = np.empty((n + 1, XT.shape[1]))  # [x_j; |x_j|^2_w], one coordinate per row
        nodes[:n] = XT
        np.matmul(weights, squares, out=nodes[n])
        scaled = np.empty((len(widths), n + 1))  # [w*q, -1/2]
        np.multiply(queries, weights, out=scaled[:, :n])
        scaled[:, n] = -0.5
        magnitude = np.abs(weights)
        tau = (queries * queries) @ magnitude
        tau += np.maximum.accumulate(magnitude @ squares).take(widths - 1)  # the largest |x_j|^2 in each prefix
        tau *= 4 * (n + 3) * _EPS
        gap = np.empty(len(widths))
        if len(widths) <= 64:  # one chunk, bounded by the validation's extremes
            chunks = [(0, widest, narrowest)]
        else:
            starts = range(0, len(widths), 64)  # (64, width) temporaries
            chunks = zip(starts, np.maximum.reduceat(widths, starts).tolist(), np.minimum.reduceat(widths, starts).tolist())
        if narrowest < widest:
            # column indices and widths as int32: a broadcast int32 comparison takes half the time of an intp one
            columns, limits = np.arange(widest, dtype=np.int32), widths.astype(np.int32)
        for start, wide, narrow in chunks:
            stop = min(start + 64, len(widths))
            screen = scaled[start:stop] @ nodes[:, :wide]
            if narrow < wide:  # every query sees the columns before `narrow`
                np.copyto(screen[:, narrow:], -np.inf, where=columns[narrow:wide] >= limits[start:stop, None])
            flat, rows = screen.reshape(-1), np.arange(0, screen.size, wide)  # flat positions of the row starts
            best = screen.argmax(axis=1)
            out[start:stop] = best
            best += rows
            gap[start:stop] = flat.take(best)
            flat[best] = -np.inf  # knock the winners out; the row maxima left are the runners-up
            runner = screen.argmax(axis=1)  # an argmax and a take cost half a row max
            runner += rows
            gap[start:stop] -= flat.take(runner)
        unsure = np.flatnonzero(~(gap > tau))
        if len(unsure):
            out[unsure] = _nearest_exact(nodes[:n], queries.take(unsure, axis=0), widths.take(unsure), weights)
        return out

    def prune(self, scores: list[Optional[np.ndarray]], keep_fraction: float) -> "BranchTree":
        """Keep the lowest-scored ceil(keep_fraction * M_i) nodes per layer,
        closed under ancestry, and rebuild a compact tree.

        `scores` is indexed by layer; entries for layers 1..N must align with
        the layer node order and hold no NaN (ValueError); ±inf rank as
        numbers.  Equal scores rank by position, as a stable sort ranks
        them.  Kept nodes keep their order in a layer and in ids, their
        running costs, controls, and drifts.  The new tree has this tree's
        width, so regrowing it to the same width reserves nothing.
        """
        if not 0 < keep_fraction <= 1:
            raise ValueError("keep_fraction must be in (0, 1]")
        layers, width = len(self._size), self._width
        sizes = np.array(self._size)
        for i, size in enumerate(self._size[1:], 1):
            if size and (i >= len(scores) or scores[i] is None or len(scores[i]) != size):
                raise ValueError(f"missing or misaligned scores for layer {i}")
        # every layer's scores in one (layers, width) matrix, padded with +inf
        padded = np.full((layers, width), np.inf)
        columns = np.arange(width)
        filled = columns < sizes[:, None]
        filled[0] = False
        if filled.any():
            padded[filled] = np.concatenate([scores[i] for i, size in enumerate(self._size) if i and size])
        ranked = np.sort(padded, axis=1)
        if np.isnan(ranked[:, -1]).any():  # a NaN sorts last
            raise ValueError(f"NaN score in layer {int(np.argmax(np.isnan(ranked[:, -1])))}")
        # the n_keep-th lowest score of each layer, and the ties at it taken in position order
        n_keep = np.ceil(keep_fraction * sizes).astype(np.intp)
        threshold = ranked[np.arange(layers), np.maximum(n_keep - 1, 0)][:, None]
        keep = padded < threshold
        ties = padded == threshold
        keep |= ties & (np.cumsum(ties, axis=1) <= n_keep[:, None] - np.count_nonzero(keep, axis=1)[:, None])
        keep[0] = columns < sizes[0]
        for i in range(layers - 1, 0, -1):  # ancestry closure, from the last layer down
            keep[i - 1, self._parent[i][keep[i]]] = True

        # kept node (layer i, position j) moves to position rank[i, j] of its layer
        rank = np.cumsum(keep, axis=1) - 1
        kept = np.count_nonzero(keep, axis=1)
        # the flat source slot of every slot of the new tree; slots past a layer's size read slot 0
        source = np.zeros((layers, width), dtype=np.intp)
        source[columns < kept[:, None]] = np.flatnonzero(keep)
        out = BranchTree.__new__(BranchTree)
        out.problem, out.grid, out._width = self.problem, self.grid, width
        out._size = kept.tolist()
        for name in ("_state", "_control", "_drift"):
            old = getattr(self, name)
            setattr(out, name, old.reshape(layers * width, -1).take(source, axis=0))
        out._run_cost = self._run_cost.take(source)
        # parents move to their new positions in the layer before; the roots
        # keep -1, and "clip" keeps the unused slots' lookups in range
        above = self._parent.take(source) + (np.arange(layers) - 1)[:, None] * width
        out._parent = rank.take(above, mode="clip")
        out._parent[0] = -1
        # new ids count the kept nodes in old id order
        slot = self._layer_of[: self._count] * width + self._pos_of[: self._count]
        slot = slot[keep.take(slot)]
        out._count = len(slot)
        out._layer_of, out._pos_of = np.empty(layers * width, dtype=np.intp), np.empty(layers * width, dtype=np.intp)
        out._layer_of[: out._count], out._pos_of[: out._count] = slot // width, rank.take(slot)
        out._id = np.empty((layers, width), dtype=np.intp)
        np.put(out._id, out._layer_of[: out._count] * width + out._pos_of[: out._count], np.arange(out._count))
        return out

    def dump_csv(self, path, scores: list[Optional[np.ndarray]] | None = None):
        """Write (id, time_index, parent_id, x..., k..., u..., run_cost, rho) rows
        in id order; roots have an empty parent_id."""
        n, m = self.problem.state_dim, self.problem.control_dim
        rho = np.full(self._run_cost.shape, np.nan)
        for i, layer_scores in enumerate((scores or [])[: len(self._size)]):
            if layer_scores is not None:
                rho[i, : min(len(layer_scores), self._size[i])] = layer_scores[: self._size[i]]
        layer, pos = self._layer_of[: self._count], self._pos_of[: self._count]
        parent = np.where(layer > 0, self._id[layer - 1, self._parent[layer, pos]], -1)
        columns = [self._state, self._drift, self._control, self._run_cost, rho]
        header = [f"{c}{k}" for c, d in (("x", n), ("k", n), ("u", m)) for k in range(d)]
        row_format = "%d,%d,%s" + ",%.12g" * (2 * n + m + 2) + "\r\n"  # the csv module's default line end
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["id", "time_index", "parent_id"] + header + ["run_cost", "rho"]) + "\r\n")
            for start in range(0, self._count, 4096):  # a block at a time: no whole-file string
                stop = min(start + 4096, self._count)
                at = layer[start:stop], pos[start:stop]
                parents = [p if p >= 0 else "" for p in parent[start:stop].tolist()]
                values = np.column_stack([a[at] for a in columns]).T.tolist()
                rows = zip(range(start, stop), at[0].tolist(), parents, *values)
                fh.write(row_format * (stop - start) % tuple(chain.from_iterable(rows)))


def _nearest_exact(XT, queries, widths, weights) -> np.ndarray:
    """`BranchTree.nearest` by the exact scan over the prefix XT (n, W), one
    coordinate per row, so each row broadcasts contiguously against a
    chunk's queries."""
    out = np.empty(len(widths), dtype=np.intp)
    for start in range(0, len(widths), 64):  # (64, width) temporaries
        q, w = queries[start : start + 64], widths[start : start + 64]
        wide, narrow = w.max(), w.min()
        for k, weight in enumerate(weights):
            diff = XT[k, :wide] - q[:, k, None]
            diff *= diff
            diff *= weight
            dist = np.add(dist, diff, out=dist) if k else diff  # rounds as 0 + diff would
        if narrow < wide:  # every query sees the columns before `narrow`
            np.copyto(dist[:, narrow:], np.inf, where=np.arange(narrow, wide) >= w[:, None])
        dist.argmin(axis=1, out=out[start : start + 64])
    return out


def default_metric_weights(problem: ControlProblem) -> np.ndarray:
    """1 / roi-width^2 per dimension, so mixed-unit states compare fairly."""
    return 1.0 / problem.roi_widths**2
