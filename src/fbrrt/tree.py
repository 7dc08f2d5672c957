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
        non-terminal layer i, in order, with node ids `ids`.

        For callers that validate drifts and states themselves and grow
        several layers at once: the ids of everything appended must in the
        end number the new nodes consecutively from the old node count.
        """
        c, lo = i + 1, self._size[i + 1]
        hi = lo + len(ids)
        # room for the new nodes and an id slot up to the largest new id
        width = max(hi, (int(np.max(ids)) + len(self._size)) // len(self._size))
        if width > self._width:
            self._reserve(max(width, 2 * self._width))
        self._state[c, lo:hi], self._control[c, lo:hi], self._drift[c, lo:hi] = states, controls, drifts
        self._run_cost[c, lo:hi] = self._run_cost[i, parents] + cost_increments
        self._parent[c, lo:hi], self._id[c, lo:hi] = parents, ids
        self._layer_of[ids], self._pos_of[ids] = c, range(lo, hi)
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
        """(M_i,) parent positions and run costs of layer i (views)."""
        return self._parent[i, : self._size[i]], self._run_cost[i, : self._size[i]]

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

    def layer_nodes(self, i: int) -> list[TreeNode]:
        return [self._node_at(i, j) for j in range(self._size[i])]

    def nearest(self, i: int, query, metric_weights) -> tuple[TreeNode, int]:
        """Node of layer i minimizing the weighted squared Euclidean distance.

        Brute-force scan; ties resolve to the lowest node id (layers are in
        insertion = id order).
        """
        query = np.asarray(query, dtype=float)[None]
        node = self._node_at(i, int(self.nearest_positions(i, query, [self._size[i]], metric_weights)[0]))
        return node, node.id

    def nearest_positions(self, i: int, queries, widths, metric_weights) -> np.ndarray:
        """For each row of `queries`, the position of the nearest node among
        the first `widths[q]` nodes of layer i; ties go to the lowest position.

        Distances sum weighted squared differences one dimension at a time,
        so a node's distance to a query rounds alike in any batch.
        """
        widths = np.asarray(widths, dtype=np.intp)
        if len(widths) and not 0 < widths.min() <= widths.max() <= self._size[i]:
            raise ValueError(f"layer {i} is empty" if not self._size[i] else f"prefix widths exceed layer {i}")
        weights = np.asarray(metric_weights, dtype=float)
        out = np.empty(len(widths), dtype=np.intp)
        for start in range(0, len(widths), 32):  # (32, width) temporaries
            q, w = queries[start : start + 32], widths[start : start + 32]
            X, narrow = self._state[i, : w.max()], w.min()
            for k, weight in enumerate(weights):
                diff = X[:, k] - q[:, k, None]
                diff *= diff
                diff *= weight
                dist = np.add(dist, diff, out=dist) if k else diff  # rounds as 0 + diff would
            if narrow < len(X):  # every query sees the columns before `narrow`
                dist[:, narrow:][np.arange(narrow, len(X)) >= w[:, None]] = np.inf
            out[start : start + 32] = dist.argmin(axis=1)
        return out

    def prune(self, scores: list[Optional[np.ndarray]], keep_fraction: float) -> "BranchTree":
        """Keep the lowest-scored ceil(keep_fraction * M_i) nodes per layer,
        closed under ancestry, and rebuild a compact tree.

        `scores` is indexed by layer; entries for layers 1..N must align with
        the layer node order.  Kept nodes keep their order in a layer and in
        ids, their running costs, controls, and drifts.
        """
        if not 0 < keep_fraction <= 1:
            raise ValueError("keep_fraction must be in (0, 1]")
        keep = [np.ones(self._size[0], dtype=bool)]
        for i, size in enumerate(self._size[1:], 1):
            keep.append(np.zeros(size, dtype=bool))
            if not size:
                continue
            if i >= len(scores) or scores[i] is None or len(scores[i]) != size:
                raise ValueError(f"missing or misaligned scores for layer {i}")
            n_keep = int(np.ceil(keep_fraction * size))
            keep[i][np.argsort(np.asarray(scores[i]), kind="stable")[:n_keep]] = True
        for i in range(len(keep) - 1, 0, -1):  # ancestry closure, from the last layer down
            keep[i - 1][self._parent[i, : len(keep[i])][keep[i]]] = True
        out = BranchTree(self.problem, self.grid)
        out._reserve(max(int(k.sum()) for k in keep))
        for i, k in enumerate(keep):
            pos = np.flatnonzero(k)
            out._size[i] = len(pos)
            for name in ("_state", "_control", "_drift", "_run_cost"):
                getattr(out, name)[i, : len(pos)] = getattr(self, name)[i, pos]
            # parents move to their new positions: the count of kept nodes before them
            out._parent[i, : len(pos)] = np.cumsum(keep[i - 1])[self._parent[i, pos]] - 1 if i else -1
        # new ids count the kept nodes in old id order
        order = np.argsort(np.concatenate([self._id[i, : len(k)][k] for i, k in enumerate(keep)]))
        layer = np.repeat(np.arange(len(keep)), out._size)[order]
        position = np.concatenate([np.arange(size) for size in out._size])[order]
        out._count = len(order)
        out._layer_of[: out._count], out._pos_of[: out._count] = layer, position
        out._id[layer, position] = np.arange(out._count)
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


def default_metric_weights(problem: ControlProblem) -> np.ndarray:
    """1 / roi-width^2 per dimension, so mixed-unit states compare fairly."""
    return 1.0 / problem.roi_widths**2
