"""Array kernels behind Louvain and Leiden.

Every clustering level works on a dense symmetric matrix ``A`` (zero
diagonal) plus a vector of self-loop weights, with communities as
``int`` labels. Node ``i``'s weight into each community is one
``np.bincount`` over its row, and aggregation is a one-hot product, so
a level costs a few vector operations per visited node instead of a
Python walk over its adjacency dict.

The kernels are drop-in replacements for the dict-of-dicts loops: they
shuffle the same node lists, re-queue neighbours and break ties by
first appearance in neighbour order under the same ``> best + 1e-12``
rule, and make the same ``rng.random()`` draws, so a seeded run returns
the partition the dict loops returned. Neighbour order is the order in
which a node's edges were created (adjacency-dict order): an optional
``order`` matrix holds ``order[u, v]``, the sort key of ``v`` among
``u``'s neighbours; ``None`` means matrix order. Aggregation derives the
quotient's neighbour order the way the dict quotient graph got it, from
the first edge joining two communities in edge-iteration order. A
zero-weight edge is no edge.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

__all__ = [
    "dense_view",
    "encode_partition",
    "node_mask",
    "first_appearance",
    "strengths_of",
    "move_nodes",
    "refine",
    "aggregate",
]

#: Slack of every gain comparison (as in the dict loops).
EPS = 1e-12


def dense_view(graph):
    """``(nodes, A, loops, order)`` for ``graph`` in node-insertion
    order.

    Graphs that keep a dense matrix expose it through ``dense()``; the
    dict :class:`~repro.graphcluster.Graph` is copied into one, with
    ``order`` from its adjacency dicts (``None`` when every adjacency
    is in node order). ``A`` has a zero diagonal and may be a view:
    callers never write to it.
    """
    dense = getattr(graph, "dense", None)
    if dense is not None:
        return dense()
    nodes = list(graph.nodes())
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    matrix = np.zeros((n, n))
    loops = np.zeros(n)
    order = np.zeros((n, n), dtype=np.int64)
    in_node_order = True
    for i, node in enumerate(nodes):
        previous = -1
        for rank, (neighbour, weight) in enumerate(
            graph.neighbors(node).items()
        ):
            j = index[neighbour]
            order[i, j] = rank
            in_node_order = in_node_order and j > previous
            previous = j
            if j == i:
                loops[i] = weight
            else:
                matrix[i, j] = weight
    return nodes, matrix, loops, None if in_node_order else order


def encode_partition(partition, nodes):
    """Map a ``node -> label`` dict onto ``int`` labels numbered by
    first appearance over ``nodes``; returns ``(labels, values)`` with
    ``values[i]`` the original label behind ``i``."""
    index = {}
    values = []
    labels = np.empty(len(nodes), dtype=np.int64)
    for i, node in enumerate(nodes):
        label = partition[node]
        code = index.get(label)
        if code is None:
            code = index[label] = len(values)
            values.append(label)
        labels[i] = code
    return labels, values


def node_mask(nodes, subset):
    """Boolean mask over ``nodes`` of the members of ``subset`` (nodes
    outside ``nodes`` are ignored)."""
    keep = set(subset)
    return np.fromiter(
        (node in keep for node in nodes), dtype=bool, count=len(nodes)
    )


def first_appearance(labels):
    """Relabel ``labels`` to ``0..C-1`` by first appearance; returns
    ``(compact, C)``."""
    _, first, inverse = np.unique(
        labels, return_index=True, return_inverse=True
    )
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    return rank[inverse.reshape(-1)], len(first)


def strengths_of(matrix, loops):
    """Weighted degrees; a self-loop counts twice."""
    return matrix.sum(axis=1) + 2.0 * loops


def _first_order(labels_of_neighbours):
    """Distinct labels in order of first appearance."""
    unique, first = np.unique(labels_of_neighbours, return_index=True)
    return unique[np.argsort(first, kind="stable")]


def _in_neighbour_order(order, node, neighbours):
    """``neighbours`` (ascending indices) sorted into ``node``'s
    neighbour order."""
    if order is None:
        return neighbours
    return neighbours[np.argsort(order[node, neighbours], kind="stable")]


def move_nodes(matrix, loops, labels, resolution, rng, queue_mask=None,
               on_move=None, order=None):
    """Queue-based fast local move over ``int`` ``labels`` (in place).

    ``queue_mask`` restricts the initial work queue (neighbours of moved
    nodes still join it). ``on_move(old, new, k, weight_old,
    weight_new, self_loop)`` is told about every accepted move.
    Returns ``(labels, moved_any)``.
    """
    strengths = strengths_of(matrix, loops)
    m = 0.5 * float(strengths.sum())
    if m <= 0:
        return labels, False
    n = len(labels)
    n_labels = int(labels.max()) + 1 if n else 0
    community_strength = np.bincount(
        labels, weights=strengths, minlength=n_labels
    )
    if queue_mask is None:
        nodes = list(range(n))
    else:
        nodes = np.flatnonzero(queue_mask).tolist()
    rng.shuffle(nodes)
    queue = deque(nodes)
    queued = np.zeros(n, dtype=bool)
    queued[nodes] = True
    two_m = 2 * m
    moved_any = False
    while queue:
        node = queue.popleft()
        queued[node] = False
        current = labels[node]
        k = strengths[node]
        row = matrix[node]
        weight_to = np.bincount(labels, weights=row, minlength=n_labels)
        community_strength[current] -= k
        gains = weight_to - resolution * k * community_strength / two_m
        current_gain = gains[current]
        best = current
        present = weight_to > 0
        present[current] = False
        candidates = np.flatnonzero(present)
        if candidates.size:
            candidate_gains = gains[candidates]
            top = int(candidate_gains.argmax())
            best_gain = candidate_gains[top]
            if best_gain > current_gain + EPS:
                candidate_gains[top] = current_gain
                if best_gain > candidate_gains.max() + EPS:
                    best = candidates[top]
                else:  # a near-tie: scan in neighbour order
                    best_gain = current_gain
                    neighbours = _in_neighbour_order(
                        order, node, np.flatnonzero(row)
                    )
                    for community in _first_order(labels[neighbours]):
                        if community != current and (
                            gains[community] > best_gain + EPS
                        ):
                            best_gain = gains[community]
                            best = community
        community_strength[best] += k
        if best != current:
            labels[node] = best
            moved_any = True
            if on_move is not None:
                on_move(current, best, k, weight_to[current],
                        weight_to[best], loops[node])
            requeue = _in_neighbour_order(
                order, node,
                np.flatnonzero((row > 0) & (labels != best) & ~queued),
            )
            queue.extend(requeue.tolist())
            queued[requeue] = True
    return labels, moved_any


def refine(matrix, loops, labels, resolution, rng, theta, order=None):
    """Leiden refinement; returns node-index labels of the refined
    communities, which nest inside ``labels``' communities.

    Inside each community, still-singleton well-connected nodes merge
    into a neighbouring sub-community drawn with probability
    proportional to ``exp(gain / theta)`` over positive-gain candidates
    (``theta <= 0``: the best one).
    """
    n = len(labels)
    refined = np.arange(n)
    strengths = strengths_of(matrix, loops)
    m = 0.5 * float(strengths.sum())
    if m <= 0:
        return refined
    two_m = 2 * m
    for community in _first_order(labels):
        members = np.flatnonzero(labels == community)
        size = len(members)
        if size == 1:
            continue
        inner = matrix[np.ix_(members, members)]
        inner_order = None if order is None else order[np.ix_(members, members)]
        member_strength = strengths[members]
        community_strength = sum(member_strength.tolist())
        weight_into_community = inner.sum(axis=1)
        sub_strength = member_strength.copy()
        sub_size = np.ones(size, dtype=np.int64)
        sub = np.arange(size)
        visit = list(range(size))
        rng.shuffle(visit)
        for i in visit:
            if sub[i] != i or sub_size[i] != 1:
                continue
            k = member_strength[i]
            threshold = resolution * k * (community_strength - k) / two_m
            if weight_into_community[i] < threshold - EPS:
                continue
            row = inner[i]
            neighbours = _in_neighbour_order(inner_order, i, np.flatnonzero(row))
            if not neighbours.size:
                continue
            neighbour_labels = sub[neighbours]
            weight_to = np.bincount(
                neighbour_labels, weights=row[neighbours], minlength=size
            )
            candidates = _first_order(neighbour_labels)
            candidates = candidates[candidates != i]
            gains = (
                weight_to[candidates]
                - resolution * k * sub_strength[candidates] / two_m
            )
            positive = gains > EPS
            candidates = candidates[positive].tolist()
            gains = gains[positive].tolist()
            if not candidates:
                continue
            if theta <= 0:
                choice = candidates[max(range(len(gains)),
                                        key=gains.__getitem__)]
            else:
                scaled = [g / theta for g in gains]
                peak = max(scaled)
                weights = [math.exp(s - peak) for s in scaled]
                r = rng.random() * sum(weights)
                acc = 0.0
                choice = candidates[-1]
                for candidate, w in zip(candidates, weights):
                    acc += w
                    if r <= acc:
                        choice = candidate
                        break
            sub_strength[choice] += k
            sub_size[choice] += 1
            sub_strength[i] = 0.0
            sub_size[i] = 0
            sub[i] = choice
        refined[members] = members[sub]
    return refined


def aggregate(matrix, loops, labels, n_labels, order=None):
    """Quotient graph over ``int`` ``labels`` (``0..n_labels-1``);
    returns ``(A, loops, order)`` of the quotient.

    Weights between communities are summed; a community's self-loop is
    its intra-community edge weight plus its members' self-loops, the
    convention under which strengths are preserved. Two communities
    become neighbours at the first edge between them in edge-iteration
    order (each edge once, from its earlier endpoint, in that node's
    neighbour order), which fixes the quotient's neighbour order.
    """
    onehot = np.zeros((len(labels), n_labels))
    onehot[np.arange(len(labels)), labels] = 1.0
    quotient = onehot.T @ (matrix @ onehot)
    new_loops = 0.5 * quotient.diagonal() + np.bincount(
        labels, weights=loops, minlength=n_labels
    )
    np.fill_diagonal(quotient, 0.0)

    u, v = np.nonzero(np.triu(matrix, 1))  # row-major: u, then v
    rank = np.arange(len(u))
    if order is not None:
        rank[np.lexsort((order[u, v], u))] = np.arange(len(u))
    a, b = labels[u], labels[v]
    across = a != b
    a, b, rank = a[across], b[across], rank[across]
    quotient_order = np.full((n_labels, n_labels), len(u), dtype=np.int64)
    np.minimum.at(quotient_order, (a, b), rank)
    np.minimum.at(quotient_order, (b, a), rank)
    return quotient, new_loops, quotient_order
