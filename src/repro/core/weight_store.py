"""Slot-indexed symmetric weight store behind the ER problem graph.

:math:`G_P` is complete at the default ``min_similarity=0.0``, so it is
kept as dense ``capacity x capacity`` matrices indexed by *slot*:

* ``weights`` — edge weights (0.0 means no edge, the diagonal is 0);
* ``pairs`` — memoized ``sim_p`` values (NaN means not computed), the
  pair cache that lets ``sel_cov`` re-insertions skip the distribution
  test;
* ``ranks`` — ``int32`` neighbour-order keys (see below).

Every vertex holds one slot. A removed vertex's edges are zeroed, but
its slot — and the cached pair values in it — can be kept, so that a
re-insertion of the same problem lands in the same slot with its pairs
intact; :meth:`release` frees the slot for reuse. Capacity doubles
when the slots run out, so the matrices take ``(2 * 8 + 4) *
capacity**2`` bytes of address space. Slots are taken lowest first,
and rows and columns at or above the high-water mark (one past the
highest slot ever taken) are never written: their weights stay zero
and a slot's pair entries are set when it is first taken, so unused
capacity is not resident memory.

Vertices iterate in insertion order, independent of slot reuse. That
order is the one the clustering kernels see (:meth:`dense`), so slot
bookkeeping never changes a clustering result. So does each vertex's
neighbour order, which the kernels follow when they re-queue nodes and
list candidate communities: a vertex's neighbours come in the order its
edges were created — the older vertices in the order :meth:`set_edges`
listed them when it was inserted, then the newer ones in insertion
order. ``ranks[s, t]`` is the sort key of ``t`` among ``s``'s
neighbours. It is kept up to date in O(capacity) per insertion: a new
vertex gets the next insertion stamp, sees every vertex by its stamp
and is seen by every vertex under its own stamp, and :meth:`set_edges`
gives the listed older neighbours negative keys in list order. So
:meth:`dense` never rebuilds the order, and while the slots are in
insertion order it returns views, not copies.
"""

from __future__ import annotations

import numpy as np

from ..graphcluster import Graph

__all__ = ["WeightStore"]

_INITIAL_CAPACITY = 16


class WeightStore:
    """Dense symmetric edge weights and pair cache over slot indices.

    Reads follow the :class:`~repro.graphcluster.Graph` API (``nodes``,
    ``neighbors``, ``edge_weight``, ``strength``, ``total_weight``,
    ``edges``, ``number_of_edges``, ``in``, ``len``); writes are whole
    rows or blocks.
    """

    def __init__(self):
        capacity = _INITIAL_CAPACITY
        self._weights = np.zeros((capacity, capacity))
        self._pairs = np.empty((capacity, capacity))
        self._ranks = np.zeros((capacity, capacity), dtype=np.int32)
        self._stamps = np.zeros(capacity, dtype=np.int32)
        self._clock = 0
        self._high = 0  # one past the highest slot ever taken
        self._live = {}   # vertex key -> slot, in insertion order
        self._slots = {}  # key -> slot for every held slot, live or not
        self._free = list(range(capacity - 1, -1, -1))
        self._vertices = None  # cached (keys, slots) of the live vertices
        self._dense = None     # cached dense() result
        # vertices whose edges were not created in insertion order
        self._created = set()

    @property
    def capacity(self):
        return len(self._weights)

    # -- slots -------------------------------------------------------------

    def _grow(self):
        """Double the capacity; the new slots become free. Each matrix
        is replaced before the next is copied, so only one old matrix
        is alive beside the new ones."""
        capacity = self.capacity
        size = 2 * capacity
        self._dense = None  # may hold views of the old matrices
        weights = np.zeros((size, size))
        weights[:capacity, :capacity] = self._weights
        self._weights = weights
        pairs = np.empty((size, size))
        pairs[:capacity, :capacity] = self._pairs
        self._pairs = pairs
        ranks = np.zeros((size, size), dtype=np.int32)
        ranks[:capacity, :capacity] = self._ranks
        self._ranks = ranks
        stamps = np.zeros(size, dtype=np.int32)
        stamps[:capacity] = self._stamps
        self._stamps = stamps
        self._free[:0] = range(size - 1, capacity - 1, -1)

    def add_node(self, key):
        """Make ``key`` a vertex (no-op if it is one); reuses the slot
        it still holds from before a removal. Returns the slot."""
        slot = self._live.get(key)
        if slot is not None:
            return slot
        slot = self._slots.get(key)
        if slot is None:
            if not self._free:
                self._grow()
            slot = self._free.pop()
            self._slots[key] = slot
        self._live[key] = slot
        high = self._high
        if slot >= high:  # first use: its pair row and column are unset
            high = self._high = slot + 1
            self._clear_pairs(slot)
        self._clock += 1
        self._stamps[slot] = self._clock
        self._ranks[slot, :high] = self._stamps[:high]
        self._ranks[:high, slot] = self._clock
        self._vertices = self._dense = None
        return slot

    def remove_node(self, key, keep_slot=False):
        """Drop vertex ``key`` and its edges. With ``keep_slot`` its
        slot and cached pairs stay until :meth:`release`."""
        slot = self._live.pop(key)
        self._vertices = self._dense = None
        self._created.discard(key)
        self._weights[slot, :self._high] = 0.0
        self._weights[:self._high, slot] = 0.0
        if not keep_slot:
            self.release(key)

    def release(self, key):
        """Free the slot of a non-vertex ``key`` and forget its pairs."""
        if key in self._live:
            raise ValueError(f"{key!r} is still a vertex")
        slot = self._slots.pop(key, None)
        if slot is not None:
            self._clear_pairs(slot)
            self._free.append(slot)

    def has_slot(self, key):
        """Whether ``key`` holds a slot (a vertex, or a removed one
        whose cached pairs are kept)."""
        return key in self._slots

    def forget_pairs(self, key):
        """Mark every cached pair involving ``key`` as not computed."""
        slot = self._slots.get(key)
        if slot is not None:
            self._clear_pairs(slot)

    def _clear_pairs(self, slot):
        high = self._high
        self._pairs[slot, :high] = np.nan
        self._pairs[:high, slot] = np.nan

    # -- writes ------------------------------------------------------------

    def _vertex_slots(self, keys):
        return np.fromiter(
            (self._live[key] for key in keys), dtype=np.int64,
            count=len(keys),
        )

    def set_edges(self, key, others, weights):
        """Create the edges ``key -- others[i]`` with ``weights[i]``
        for a just-inserted vertex ``key``; ``others`` is the order the
        edges were created in (``key``'s neighbour order)."""
        slot = self._live[key]
        slots = self._vertex_slots(others)
        self._weights[slot, slots] = weights
        self._weights[slots, slot] = weights
        self._ranks[slot, slots] = np.arange(-len(slots), 0)
        if np.any(np.diff(self._stamps[slots]) < 0):
            self._created.add(key)
        self._dense = None

    def set_pairs(self, key, others, values):
        """Cache ``sim_p(key, others[i]) = values[i]``."""
        if len(others):
            slot = self._slots[key]
            slots = np.fromiter(
                (self._slots[other] for other in others), dtype=np.int64,
                count=len(others),
            )
            self._pairs[slot, slots] = values
            self._pairs[slots, slot] = values

    def set_block(self, rows, weights=None, pairs=None):
        """Write ``weights`` / ``pairs`` between the vertices at the
        given insertion-order positions: ``rows`` is ``(k, 2)``, the
        values have length ``k`` and are written symmetrically."""
        _, slots = self._vertex_order()
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
        u, v = slots[rows[:, 0]], slots[rows[:, 1]]
        for matrix, values in ((self._weights, weights), (self._pairs, pairs)):
            if values is not None:
                matrix[u, v] = values
                matrix[v, u] = values
        self._dense = None

    def assign(self, weights, pairs=None):
        """Set the full weight (and pair) matrix of the vertices, in
        insertion order — the bulk build path."""
        _, slots = self._vertex_order()
        block = np.ix_(slots, slots)
        self._weights[block] = weights
        if pairs is not None:
            self._pairs[block] = pairs
        self._dense = None

    # -- reads -------------------------------------------------------------

    def _vertex_order(self):
        if self._vertices is None:
            self._vertices = (
                list(self._live),
                np.fromiter(self._live.values(), dtype=np.int64,
                            count=len(self._live)),
            )
        return self._vertices

    def pairs(self, key, others):
        """Cached ``sim_p(key, others[i])`` (NaN where not computed)."""
        slot = self._slots.get(key)
        if slot is None or not len(others):
            return np.full(len(others), np.nan)
        slots = np.fromiter(
            (self._slots.get(other, -1) for other in others),
            dtype=np.int64, count=len(others),
        )
        values = self._pairs[slot, slots]
        values[slots < 0] = np.nan
        return values

    def pair(self, key_a, key_b):
        """Cached ``sim_p(key_a, key_b)`` or ``None``."""
        value = self.pairs(key_a, [key_b])[0]
        return None if np.isnan(value) else float(value)

    def dense(self):
        """``(keys, A, loops, order)`` for the clustering kernels: the
        vertices in insertion order, their weight matrix, zero
        self-loops and the neighbour-order keys (``None`` when every
        vertex's neighbour order is insertion order). ``A`` and
        ``order`` are views while the slots are in insertion order;
        the result is cached until the next write."""
        if self._dense is None:
            keys, slots = self._vertex_order()
            n = len(keys)
            if np.array_equal(slots, np.arange(n)):
                matrix = self._weights[:n, :n]
                ranks = self._ranks[:n, :n]
            else:
                block = np.ix_(slots, slots)
                matrix = self._weights[block]
                ranks = self._ranks[block]
            order = ranks if self._created else None
            self._dense = (keys, matrix, np.zeros(n), order)
        return self._dense

    def dense_pairs(self):
        """Cached pair values between the vertices, insertion order."""
        _, slots = self._vertex_order()
        return self._pairs[np.ix_(slots, slots)]

    def __contains__(self, key):
        return key in self._live

    def __len__(self):
        return len(self._live)

    def nodes(self):
        return iter(self._vertex_order()[0])

    def edge_weight(self, u, v, default=0.0):
        slot_u, slot_v = self._live.get(u), self._live.get(v)
        if slot_u is None or slot_v is None:
            return default
        weight = float(self._weights[slot_u, slot_v])
        return weight if weight > 0 else default

    def neighbors(self, key):
        """``neighbour -> weight`` in insertion order."""
        keys, slots = self._vertex_order()
        row = self._weights[self._live[key], slots]
        return {keys[i]: float(row[i]) for i in np.flatnonzero(row)}

    def strength(self, key):
        return float(self._weights[self._live[key]].sum())

    def total_weight(self):
        return 0.5 * float(self._weights.sum())

    def edges(self):
        """Yield ``(u, v, weight)`` once per edge, ``u`` before ``v``
        in insertion order."""
        keys, matrix, _, _ = self.dense()
        rows, cols = np.nonzero(np.triu(matrix, 1))
        for i, j in zip(rows.tolist(), cols.tolist()):
            yield keys[i], keys[j], float(matrix[i, j])

    def number_of_edges(self):
        return int(np.count_nonzero(self._weights)) // 2

    def to_graph(self):
        """The vertices and edges as a dict :class:`Graph` with the same
        neighbour order, for the clustering algorithms that walk
        adjacency dicts."""
        keys, matrix, _, order = self.dense()
        graph = Graph()
        for key in keys:
            graph.add_node(key)
        # Re-create the edges in creation order: each vertex's edges to
        # older vertices as it was inserted.
        for row, key in enumerate(keys):
            columns = np.flatnonzero(matrix[row, :row])
            if order is not None:
                columns = columns[
                    np.argsort(order[row, columns], kind="stable")
                ]
            for column in columns.tolist():
                graph.add_edge(key, keys[column], float(matrix[row, column]))
        return graph
