"""Louvain community detection (Blondel et al. 2008).

Shared machinery for :mod:`repro.graphcluster.leiden`: the fast local
move phase, here at the ``node -> label`` dict boundary over the array
kernels of :mod:`repro.graphcluster.dense`. Louvain itself is exposed
because the paper's pre-experiments compared Leiden against
alternatives.
"""

from __future__ import annotations

import numpy as np

from ..ml.utils import check_random_state
from .dense import (
    aggregate,
    dense_view,
    encode_partition,
    first_appearance,
    move_nodes,
    node_mask,
)
from .quality import communities_from_partition

__all__ = ["louvain", "local_move"]


def local_move(graph, partition, resolution=1.0, rng=None, nodes=None,
               aggregates=None):
    """Queue-based fast local move.

    Each node is repeatedly offered its best neighbouring community by
    modularity gain; neighbours of moved nodes are re-queued. Terminates
    because every accepted move strictly increases modularity.

    Parameters
    ----------
    nodes : iterable, optional
        Bounded work-queue variant: seed the queue with only these
        nodes instead of every node of the graph. Neighbours of moved
        nodes still join the queue, so improvements propagate outward
        exactly as in the full sweep — the incremental reclustering
        path uses this to touch only the region around an insertion.
        The seed queue is canonicalised to graph insertion order before
        the shuffle, so passing a set (hash-ordered) cannot leak
        ``PYTHONHASHSEED`` into seeded results.
    aggregates : ModularityAggregates, optional
        Delta-tracked per-community ``(L_c, K_c)`` sums, updated in
        O(1) per accepted move. Must have been built against (a
        superset sharing labels with) ``partition``; afterwards its
        ``quality()`` reflects the returned partition without any
        O(edges) modularity pass.

    Returns
    -------
    (dict, bool)
        The mutated ``partition`` and whether any node moved.
    """
    rng = check_random_state(rng)
    keys, matrix, loops, order = dense_view(graph)
    labels, values = encode_partition(partition, keys)
    queue_mask = None if nodes is None else node_mask(keys, nodes)
    on_move = None
    if aggregates is not None:
        def on_move(old, new, k, weight_old, weight_new, self_loop):
            aggregates.move(
                values[old], values[new], float(k), float(weight_old),
                float(weight_new), float(self_loop),
            )
    labels, moved = move_nodes(
        matrix, loops, labels, resolution, rng, queue_mask, on_move, order
    )
    if moved:
        for key, code in zip(keys, labels.tolist()):
            partition[key] = values[code]
    return partition, moved


def louvain(graph, resolution=1.0, random_state=None, max_levels=20):
    """Run Louvain; returns a list of node-set communities."""
    rng = check_random_state(random_state)
    keys, matrix, loops, order = dense_view(graph)
    mapping = np.arange(len(keys))  # original node -> aggregate node
    for _ in range(max_levels):
        labels, moved = move_nodes(
            matrix, loops, np.arange(len(matrix)), resolution, rng,
            order=order,
        )
        labels, n_labels = first_appearance(labels)
        mapping = labels[mapping]
        if not moved:
            break
        if n_labels == len(matrix):
            break
        matrix, loops, order = aggregate(
            matrix, loops, labels, n_labels, order
        )
    return communities_from_partition(dict(zip(keys, mapping.tolist())))
