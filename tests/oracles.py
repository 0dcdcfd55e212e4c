"""Dict-of-dicts reference implementations of the clustering kernels.

These are the adjacency-dict local move, Leiden refinement and graph
aggregation that :mod:`repro.graphcluster.dense` replaced. They walk
:class:`~repro.graphcluster.Graph` adjacency dicts node by node and
serve as equivalence oracles: the array kernels must return the same
partitions from the same seed (``tests/test_dense_kernels.py``).

Neighbour order here is adjacency-dict order. The array kernels follow
the same order through the ``order`` keys of
:func:`~repro.graphcluster.dense.dense_view`, so the two must agree on
any edge-insertion order; the equivalence suite adds edges in random
order so that adjacency order differs from node order.
"""

from __future__ import annotations

import math
from collections import deque

from repro.graphcluster import Graph, ModularityAggregates
from repro.graphcluster.quality import communities_from_partition
from repro.ml.utils import check_random_state


def aggregate(graph, partition):
    """Quotient graph over ``partition`` (a ``node -> community`` map):
    summed weights between communities, intra-community weight as
    self-loops; nodes are the community labels."""
    quotient = Graph()
    for node in graph.nodes():
        quotient.add_node(partition[node])
    for u, v, weight in graph.edges():
        quotient.increment_edge(partition[u], partition[v], weight)
    return quotient


def from_partition(graph, partition):
    """:class:`ModularityAggregates` by one walk over the edges."""
    intra = {}
    strength = {}
    for node, label in partition.items():
        strength[label] = strength.get(label, 0.0) + graph.strength(node)
    for u, v, weight in graph.edges():
        label = partition[u]
        if u == v or partition[v] == label:
            intra[label] = intra.get(label, 0.0) + weight
    return ModularityAggregates(graph.total_weight(), intra, strength)


def local_move(graph, partition, resolution=1.0, rng=None, nodes=None,
               aggregates=None):
    """Queue-based fast local move; returns ``(partition, moved_any)``."""
    rng = check_random_state(rng)
    m = graph.total_weight()
    if m <= 0:
        return partition, False

    strengths = {node: graph.strength(node) for node in graph.nodes()}
    community_strength = {}
    for node, community in partition.items():
        community_strength[community] = (
            community_strength.get(community, 0.0) + strengths[node]
        )

    if nodes is None:
        nodes = list(graph.nodes())
    else:
        keep = set(nodes)
        nodes = [node for node in graph.nodes() if node in keep]
    rng.shuffle(nodes)
    queue = deque(nodes)
    queued = set(nodes)
    moved_any = False
    while queue:
        node = queue.popleft()
        queued.discard(node)
        current = partition[node]
        k = strengths[node]

        weight_to = {}
        for neighbour, weight in graph.neighbors(node).items():
            if neighbour == node:
                continue
            community = partition[neighbour]
            weight_to[community] = weight_to.get(community, 0.0) + weight
        weight_to.setdefault(current, 0.0)

        community_strength[current] -= k
        best_gain = (
            weight_to[current]
            - resolution * k * community_strength[current] / (2 * m)
        )
        best_community = current
        for community, weight in weight_to.items():
            if community == current:
                continue
            gain = (
                weight
                - resolution * k * community_strength[community] / (2 * m)
            )
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_community = community
        community_strength[best_community] = (
            community_strength.get(best_community, 0.0) + k
        )
        if best_community != current:
            partition[node] = best_community
            moved_any = True
            if aggregates is not None:
                aggregates.move(
                    current, best_community, k,
                    weight_to[current], weight_to[best_community],
                    graph.edge_weight(node, node),
                )
            for neighbour in graph.neighbors(node):
                if (
                    neighbour != node
                    and partition[neighbour] != best_community
                    and neighbour not in queued
                ):
                    queue.append(neighbour)
                    queued.add(neighbour)
    return partition, moved_any


def refine(graph, partition, resolution, rng, theta):
    """Leiden refinement; returns a ``node -> refined label`` map."""
    m = graph.total_weight()
    refined = {node: node for node in graph.nodes()}
    if m <= 0:
        return refined

    strengths = {node: graph.strength(node) for node in graph.nodes()}
    communities = {}
    for node, community in partition.items():
        communities.setdefault(community, []).append(node)

    for members in communities.values():
        if len(members) == 1:
            continue
        member_set = set(members)
        community_strength = sum(strengths[n] for n in members)

        weight_into_community = {}
        for node in members:
            total = 0.0
            for neighbour, weight in graph.neighbors(node).items():
                if neighbour in member_set and neighbour != node:
                    total += weight
            weight_into_community[node] = total

        sub_strength = {node: strengths[node] for node in members}
        sub_size = {node: 1 for node in members}

        order = list(members)
        rng.shuffle(order)
        for node in order:
            if refined[node] != node or sub_size[node] != 1:
                continue
            k = strengths[node]
            threshold = resolution * k * (community_strength - k) / (2 * m)
            if weight_into_community[node] < threshold - 1e-12:
                continue

            weight_to = {}
            for neighbour, weight in graph.neighbors(node).items():
                if neighbour in member_set and neighbour != node:
                    label = refined[neighbour]
                    weight_to[label] = weight_to.get(label, 0.0) + weight
            candidates = []
            gains = []
            for label, weight in weight_to.items():
                if label == node:
                    continue
                gain = weight - resolution * k * sub_strength[label] / (2 * m)
                if gain > 1e-12:
                    candidates.append(label)
                    gains.append(gain)
            if not candidates:
                continue
            if theta <= 0:
                best = max(range(len(gains)), key=gains.__getitem__)
                choice = candidates[best]
            else:
                scaled = [g / theta for g in gains]
                peak = max(scaled)
                weights = [math.exp(s - peak) for s in scaled]
                total = sum(weights)
                r = rng.random() * total
                acc = 0.0
                choice = candidates[-1]
                for candidate, w in zip(candidates, weights):
                    acc += w
                    if r <= acc:
                        choice = candidate
                        break
            sub_strength[choice] += k
            sub_size[choice] += 1
            sub_strength[node] = 0.0
            sub_size[node] = 0
            refined[node] = choice
    return refined


def leiden(graph, resolution=1.0, random_state=None, max_levels=20,
           theta=0.01, seed_partition=None, queue_nodes=None):
    """Leiden over adjacency dicts; returns node-set communities."""
    rng = check_random_state(random_state)
    mapping = {node: node for node in graph.nodes()}
    current = graph
    if seed_partition is None:
        partition = {node: node for node in graph.nodes()}
    else:
        partition = {
            node: seed_partition.get(node, node) for node in graph.nodes()
        }
    for level in range(max_levels):
        partition, moved = local_move(
            current, partition, resolution, rng,
            nodes=queue_nodes if level == 0 else None,
        )
        n_communities = len(set(partition.values()))
        if not moved or n_communities == len(current):
            break
        refined = refine(current, partition, resolution, rng, theta)
        for node in mapping:
            mapping[node] = refined[mapping[node]]
        aggregated = aggregate(current, refined)
        seed = {}
        for node in current.nodes():
            seed[refined[node]] = partition[node]
        current = aggregated
        partition = seed
    for node in mapping:
        mapping[node] = partition[mapping[node]]
    return communities_from_partition(mapping)


def louvain(graph, resolution=1.0, random_state=None, max_levels=20):
    """Louvain over adjacency dicts; returns node-set communities."""
    rng = check_random_state(random_state)
    mapping = {node: node for node in graph.nodes()}
    current = graph
    for _ in range(max_levels):
        level_partition = {node: node for node in current.nodes()}
        level_partition, moved = local_move(
            current, level_partition, resolution, rng
        )
        for node in mapping:
            mapping[node] = level_partition[mapping[node]]
        if not moved:
            break
        aggregated = aggregate(current, level_partition)
        if len(aggregated) == len(current):
            break
        current = aggregated
    return communities_from_partition(mapping)
