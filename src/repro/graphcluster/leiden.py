"""Leiden community detection (Traag, Waltman & van Eck, 2019).

MoRER clusters the ER problem similarity graph with Leiden (§4.3) because
it guarantees well-connected communities, unlike Louvain which can produce
internally disconnected ones. The implementation follows the paper's
three phases:

1. **fast local move** (shared with Louvain),
2. **refinement** — inside every community, nodes are re-merged bottom-up
   but only into *well-connected* sub-communities, chosen randomly among
   positive-gain candidates,
3. **aggregation** on the *refined* partition, seeding the next level's
   local move with the unrefined communities.
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
    refine,
)
from .louvain import local_move
from .quality import (
    communities_from_partition,
    modularity,
    partition_from_communities,
)

__all__ = ["leiden", "incremental_leiden"]


def leiden(
    graph,
    resolution=1.0,
    random_state=None,
    max_levels=20,
    theta=0.01,
    seed_partition=None,
    queue_nodes=None,
):
    """Run Leiden; returns a list of node-set communities.

    Parameters
    ----------
    graph : repro.graphcluster.Graph
        Weighted undirected graph (or any graph with ``dense()``, such
        as the ER problem graph's weight store).
    resolution : float
        Modularity resolution :math:`\\gamma`; larger values yield more,
        smaller communities.
    random_state : int or numpy.random.Generator, optional
        Seeds node orders and the randomised refinement merges.
    max_levels : int
        Safety bound on aggregation levels.
    theta : float
        Temperature of the randomised merge step; ``theta <= 0`` makes
        refinement greedy (deterministic best-gain merges).
    seed_partition : dict, optional
        Warm start: a ``node -> community label`` map the first local
        move starts from instead of singletons. Nodes absent from the
        map start as singletons. Labels must not collide with the ids
        of unlisted nodes.
    queue_nodes : iterable, optional
        Restrict the first level's local-move work queue to these nodes
        (moves still cascade to neighbours). Only meaningful together
        with ``seed_partition`` — with a singleton start every node
        must be queued for the result to make sense.
    """
    rng = check_random_state(random_state)
    keys, matrix, loops, order = dense_view(graph)
    # mapping: original node -> node of the current level it is in.
    mapping = np.arange(len(keys))
    if seed_partition is None:
        labels = np.arange(len(keys))
    else:
        labels, _ = encode_partition(
            {key: seed_partition.get(key, key) for key in keys}, keys
        )
    queue_mask = None if queue_nodes is None else node_mask(keys, queue_nodes)
    for level in range(max_levels):
        labels, moved = move_nodes(
            matrix, loops, labels, resolution, rng,
            queue_mask if level == 0 else None, order=order,
        )
        if not moved or len(np.unique(labels)) == len(matrix):
            break
        refined = refine(
            matrix, loops, labels, resolution, rng, theta, order
        )
        refined, n_refined = first_appearance(refined)
        mapping = refined[mapping]
        # Seed the next level's local move with the *unrefined*
        # communities (each refined community starts inside its coarse
        # community).
        seed = np.empty(n_refined, dtype=np.int64)
        seed[refined] = labels
        matrix, loops, order = aggregate(
            matrix, loops, refined, n_refined, order
        )
        labels, _ = first_appearance(seed)
    return communities_from_partition(
        dict(zip(keys, labels[mapping].tolist()))
    )


def incremental_leiden(
    graph,
    previous_communities,
    changed_nodes=(),
    resolution=1.0,
    random_state=None,
    max_levels=20,
    theta=0.01,
    tolerance=None,
    reference_modularity=None,
    aggregates=None,
):
    """Locally updated Leiden partition after a small graph change.

    Seeds the partition with ``previous_communities`` — either an
    iterable of node collections or a ready ``node -> label`` map
    (nodes the previous clustering did not cover start as singletons)
    — and runs one bounded local move whose work queue holds only
    ``changed_nodes`` and their graph neighbours, so an insertion
    re-examines the neighbourhood it perturbed instead of sweeping the
    whole graph. Refinement and aggregation are deliberately skipped —
    with a near-converged seed they re-derive the seed at full-graph
    cost — which is what makes the update sublinear in practice;
    quality is guarded by the fallback below, not by Leiden's per-run
    guarantees.

    When ``tolerance`` and ``reference_modularity`` are given and the
    updated partition's modularity falls more than ``tolerance`` below
    the reference (normally the last full run's modularity), the local
    update is discarded and a full :func:`leiden` run decides — the
    safety valve against drift accumulating over many local updates.
    With ``aggregates`` (delta-tracked per-community ``(L_c, K_c)``
    sums, see :class:`~repro.graphcluster.ModularityAggregates`) that
    check reads the running sums instead of paying an O(edges)
    :func:`modularity` pass; the aggregates must have been built
    against the seed's labels with the seed covering *every* node of
    the graph (uncovered nodes get singleton labels the aggregates
    would know nothing about), and on fallback they are re-derived
    against the full result. MoRER's journal-replay path
    (:meth:`~repro.core.partition_state.PartitionState.replay`) calls
    :func:`local_move` with aggregates directly — this entry point is
    the standalone equivalent for callers that manage their own seeds.
    Callers should additionally force a periodic full run (MoRER's
    ``full_recluster_every``), since modularity alone cannot see every
    kind of degradation (e.g. internally disconnected communities).

    Returns a list of node-set communities, like :func:`leiden`.
    """
    rng = check_random_state(random_state)
    if isinstance(previous_communities, dict):
        seed = previous_communities
    else:
        seed = {}
        for community in previous_communities:
            label = None
            for node in community:
                if label is None:
                    label = node
                seed[node] = label
    partition = {node: seed.get(node, node) for node in graph.nodes()}
    queue_nodes = set()
    for node in changed_nodes:
        if node in graph:
            queue_nodes.add(node)
            queue_nodes.update(graph.neighbors(node))
    partition, _ = local_move(
        graph, partition, resolution, rng, nodes=queue_nodes,
        aggregates=aggregates,
    )
    communities = communities_from_partition(partition)
    if tolerance is not None and reference_modularity is not None:
        if aggregates is not None:
            quality = aggregates.quality(resolution)
        else:
            quality = modularity(graph, communities, resolution)
        if quality < reference_modularity - tolerance:
            communities = leiden(graph, resolution, rng, max_levels, theta)
            if aggregates is not None:
                # The local moves already mutated the aggregates
                # against the now-discarded partition: re-derive them
                # from the full result so the caller's quality() reads
                # stay truthful.
                aggregates.rebuild(
                    graph, partition_from_communities(communities)
                )
    return communities
