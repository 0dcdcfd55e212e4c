"""Array clustering kernels ≡ the dict-of-dicts reference (tests/oracles.py).

Generated weighted graphs carry self-loops, isolated nodes, node ids of
mixed, mutually unorderable types and edges added in random order, so
adjacency-dict order is not node order. Weights are multiples of 1/4:
every sum is exact in any order, so the array kernels must match the
oracles bit for bit, ties included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ERProblemGraph
from repro.core.weight_store import WeightStore
from repro.graphcluster import (
    Graph,
    ModularityAggregates,
    leiden,
    local_move,
    louvain,
    modularity,
)
from repro.graphcluster.dense import aggregate, dense_view, first_appearance
from repro.graphcluster.quality import communities_from_partition
from tests import oracles
from tests.conftest import make_problem_family

#: Distinct ids of different types (no ordering between them).
NODE_IDS = [0, "a", 1, ("t", 2), "b", 3, frozenset({4}), "c", 5, 6.5,
            ("t", 7), "d", 8, 9, "e", 10, ("t", 11), 12]


@st.composite
def weighted_graphs(draw, min_nodes=1, max_nodes=14, dyadic=True,
                    max_weight=8):
    n = draw(st.integers(min_nodes, max_nodes))
    nodes = (NODE_IDS + list(range(100, 100 + n)))[:n]
    density = draw(st.floats(0.1, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    graph = Graph()
    for node in nodes:
        graph.add_node(node)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for index in rng.permutation(len(pairs)):
        i, j = pairs[index]
        if rng.random() < (0.15 if i == j else density):
            weight = (
                int(rng.integers(1, max_weight + 1)) / 4 if dyadic
                else float(rng.uniform(0.01, 1.0))
            )
            u, v = (nodes[i], nodes[j]) if rng.random() < 0.5 else (
                nodes[j], nodes[i]
            )
            graph.add_edge(u, v, weight)
    return graph


def _seed_partition(graph, seed, n_labels=4):
    """A warm start over a few shared labels (strings, never node ids)."""
    rng = np.random.default_rng(seed)
    return {
        node: f"L{int(rng.integers(0, n_labels))}" for node in graph.nodes()
    }


def _assert_same_aggregates(ours, reference):
    assert ours.m == reference.m
    labels = set(ours.strength) | set(reference.strength)
    for label in labels:
        assert ours.strength.get(label, 0.0) == reference.strength.get(
            label, 0.0
        )
        assert ours.intra.get(label, 0.0) == reference.intra.get(label, 0.0)
    assert ours.intra_total == pytest.approx(reference.intra_total, abs=1e-12)
    assert ours.strength_sq == pytest.approx(reference.strength_sq, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(weighted_graphs(), st.integers(0, 10_000),
       st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.01, 0.0, 1.0]))
def test_leiden_matches_reference(graph, seed, resolution, theta):
    ours = leiden(graph, resolution, seed, theta=theta)
    reference = oracles.leiden(graph, resolution, seed, theta=theta)
    assert ours == reference


@settings(max_examples=30, deadline=None)
@given(weighted_graphs(min_nodes=25, max_nodes=60, max_weight=2),
       st.integers(0, 10_000))
def test_leiden_matches_reference_on_larger_tied_graphs(graph, seed):
    """Few distinct weights on larger graphs: many exact gain ties
    (broken in neighbour order) and several aggregation levels."""
    assert leiden(graph, 1.0, seed) == oracles.leiden(graph, 1.0, seed)


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(), st.integers(0, 10_000), st.sampled_from([0.5, 1.0]))
def test_louvain_matches_reference(graph, seed, resolution):
    assert louvain(graph, resolution, seed) == oracles.louvain(
        graph, resolution, seed
    )


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(), st.integers(0, 10_000), st.data())
def test_leiden_warm_start_with_queue_matches_reference(graph, seed, data):
    nodes = list(graph.nodes())
    seed_partition = _seed_partition(graph, seed)
    for node in data.draw(st.sets(st.sampled_from(nodes))):
        del seed_partition[node]  # unlisted nodes start as singletons
    queue = data.draw(st.sets(st.sampled_from(nodes)))
    ours = leiden(graph, 1.0, seed, seed_partition=seed_partition,
                  queue_nodes=queue)
    reference = oracles.leiden(graph, 1.0, seed,
                               seed_partition=seed_partition,
                               queue_nodes=queue)
    assert ours == reference


@settings(max_examples=80, deadline=None)
@given(weighted_graphs(), st.integers(0, 10_000), st.data())
def test_local_move_threads_aggregates_like_reference(graph, seed, data):
    partition = _seed_partition(graph, seed)
    queue = data.draw(
        st.none() | st.sets(st.sampled_from(list(graph.nodes())))
    )
    ours_aggregates = ModularityAggregates.from_partition(graph, partition)
    reference_aggregates = oracles.from_partition(graph, partition)
    _assert_same_aggregates(ours_aggregates, reference_aggregates)

    ours, ours_moved = local_move(
        graph, dict(partition), 1.0, np.random.default_rng(seed),
        nodes=queue, aggregates=ours_aggregates,
    )
    reference, reference_moved = oracles.local_move(
        graph, dict(partition), 1.0, np.random.default_rng(seed),
        nodes=queue, aggregates=reference_aggregates,
    )
    assert ours == reference and ours_moved == reference_moved
    _assert_same_aggregates(ours_aggregates, reference_aggregates)
    _assert_same_aggregates(
        ModularityAggregates.from_partition(graph, ours),
        oracles.from_partition(graph, reference),
    )


@settings(max_examples=80, deadline=None)
@given(weighted_graphs(dyadic=False), st.integers(0, 10_000))
def test_from_partition_quality_is_modularity(graph, seed):
    partition = _seed_partition(graph, seed)
    aggregates = ModularityAggregates.from_partition(graph, partition)
    communities = communities_from_partition(partition)
    assert aggregates.quality(1.0) == pytest.approx(
        modularity(graph, communities, 1.0), abs=1e-12
    )
    reference = oracles.from_partition(graph, partition)
    assert aggregates.m == pytest.approx(reference.m, abs=1e-12)
    for label, value in reference.strength.items():
        assert aggregates.strength[label] == pytest.approx(value, abs=1e-12)
        assert aggregates.intra.get(label, 0.0) == pytest.approx(
            reference.intra.get(label, 0.0), abs=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(weighted_graphs(dyadic=False), st.integers(0, 10_000))
def test_leiden_matches_reference_on_continuous_weights(graph, seed):
    assert leiden(graph, 1.0, seed) == oracles.leiden(graph, 1.0, seed)


@settings(max_examples=80, deadline=None)
@given(weighted_graphs(), st.integers(0, 10_000))
def test_aggregate_matches_reference_quotient_graph(graph, seed):
    """Same weights, self-loops and neighbour order as the dict
    quotient graph (whose nodes are the community labels)."""
    nodes, matrix, loops, order = dense_view(graph)
    labels = np.random.default_rng(seed).integers(0, 5, len(nodes))
    labels, n_labels = first_appearance(labels)
    quotient, quotient_loops, quotient_order = aggregate(
        matrix, loops, labels, n_labels, order
    )
    reference = oracles.aggregate(graph, dict(zip(nodes, labels.tolist())))
    assert list(reference.nodes()) == list(range(n_labels))
    for c in range(n_labels):
        neighbours = np.flatnonzero(quotient[c])
        neighbours = neighbours[np.argsort(quotient_order[c, neighbours])]
        expected = reference.neighbors(c)
        assert quotient_loops[c] == expected.get(c, 0.0)
        assert neighbours.tolist() == [d for d in expected if d != c]
        assert quotient[c, neighbours].tolist() == [
            expected[d] for d in expected if d != c
        ]


def test_aggregate_sums_weights_and_keeps_self_loop_convention():
    graph = Graph()
    for node in "abcd":
        graph.add_node(node)
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("a", "c", 3.0)
    graph.add_edge("b", "c", 2.0)
    graph.add_edge("c", "d", 0.5)
    graph.add_edge("d", "d", 1.5)
    _, matrix, loops, _ = dense_view(graph)
    quotient, quotient_loops, _ = aggregate(
        matrix, loops, np.array([0, 0, 1, 1]), 2
    )
    reference = oracles.aggregate(graph, {"a": 0, "b": 0, "c": 1, "d": 1})
    assert quotient[0, 1] == quotient[1, 0] == reference.edge_weight(0, 1)
    assert quotient_loops.tolist() == [
        reference.edge_weight(0, 0), reference.edge_weight(1, 1)
    ]
    assert quotient.diagonal().tolist() == [0.0, 0.0]


# -- the ER problem graph's weight store -----------------------------------


@pytest.mark.parametrize("use_index", [False, True])
def test_er_graph_clusters_like_reference_on_its_materialised_graph(
    use_index,
):
    """With the sketch prefilter an inserted problem's edges are created
    in candidate order, not insertion order; the store keeps that
    neighbour order, and the materialised dict graph reproduces it."""
    problems = make_problem_family(40)
    graph = ERProblemGraph.build(
        problems[:24], "ks", use_index=use_index, n_candidates=6
    )
    graph.add_problem(problems[24])
    graph.add_problems(problems[25:32])
    graph.remove_problem(problems[3].key)
    graph.add_problem(problems[3])  # a re-insertion: slot reused
    graph.add_problems(problems[32:])
    materialised = graph.graph.to_graph()
    nodes = list(graph.graph.nodes())
    assert list(materialised.nodes()) == nodes
    position = {key: i for i, key in enumerate(nodes)}
    in_node_order = all(
        [position[v] for v in materialised.neighbors(key)]
        == sorted(position[v] for v in materialised.neighbors(key))
        for key in nodes
    )
    assert in_node_order != use_index
    for key in graph.graph.nodes():
        assert materialised.neighbors(key) == pytest.approx(
            graph.graph.neighbors(key)
        )
    for seed in range(5):
        for algorithm in (oracles.leiden, oracles.louvain):
            assert graph.cluster(algorithm.__name__, 1.0, seed) == [
                set(community)
                for community in algorithm(materialised, 1.0, seed)
            ]


def test_weight_store_reuses_slots_and_doubles_capacity():
    store = WeightStore()
    initial = store.capacity
    extra = [f"v{i}" for i in range(initial)]
    for key in ["a", "b", "c"] + extra:
        store.add_node(key)
    assert store.capacity == 2 * initial
    store.set_edges("a", ["b", "c"], [0.5, 0.25])
    store.set_pairs("a", ["b"], [0.5])
    store.remove_node("a", keep_slot=True)
    assert "a" not in store and store.has_slot("a")
    assert store.neighbors("b") == {}
    store.add_node("a")  # same slot, pair intact, edges gone
    assert store.pair("a", "b") == 0.5
    assert list(store.nodes()) == ["b", "c"] + extra + ["a"]
    store.remove_node("a")
    assert not store.has_slot("a")
    store.add_node("z")  # takes a's freed slot, with no stale pair
    assert store.pair("z", "b") is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_weight_store_neighbour_order_matches_dict_graph(seed):
    """Random insertions (edges listed in random order), removals with
    and without kept slots, releases and re-insertions past a capacity
    doubling: the store's dense view and neighbour order equal a dict
    graph's given the same edge-creation sequence, a cached view equals
    a fresh one, and the pair cache holds exactly the pairs of held
    slots."""
    rng = np.random.default_rng(seed)
    store, reference = WeightStore(), Graph()
    removed = []
    cached = {}  # frozenset({a, b}) -> cached pair value

    def forget(key):
        for pair in [pair for pair in cached if key in pair]:
            del cached[pair]

    for step in range(int(rng.integers(5, 60))):
        action = rng.random()
        live = list(reference.nodes())
        if action < 0.2 and live:
            key = live[int(rng.integers(len(live)))]
            keep = bool(rng.random() < 0.5)
            store.remove_node(key, keep_slot=keep)
            reference.remove_node(key)
            if keep:
                removed.append(key)
            else:
                forget(key)
        elif action < 0.3 and removed:
            key = removed.pop(int(rng.integers(len(removed))))
            store.release(key)
            forget(key)
        else:
            if removed and rng.random() < 0.5:
                key = removed.pop(int(rng.integers(len(removed))))
            else:
                key = f"p{step}"
            others = [v for v in rng.permutation(live).tolist()
                      if rng.random() < 0.6]
            weights = [int(rng.integers(1, 9)) / 4 for _ in others]
            store.add_node(key)
            if rng.random() < 0.5:
                store.dense()  # a cached view must not outlive the write
            store.set_edges(key, others, weights)
            reference.add_node(key)
            for other, weight in zip(others, weights):
                reference.add_edge(key, other, weight)
            paired = [v for v in live + removed if rng.random() < 0.5]
            values = [float(step)] * len(paired)
            store.set_pairs(key, paired, values)
            cached.update((frozenset((key, v)), step) for v in paired)
        held = list(reference.nodes()) + removed
        for key in held:
            assert store.pairs(key, held).tolist() == pytest.approx(
                [cached.get(frozenset((key, v)), np.nan) for v in held],
                nan_ok=True,
            )
        keys, matrix, loops, order = store.dense()
        assert store.dense() is store.dense()
        ref_keys, ref_matrix, ref_loops, _ = dense_view(reference)
        assert keys == ref_keys
        assert np.array_equal(matrix, ref_matrix)
        assert not loops.any() and not ref_loops.any()
        for row, key in enumerate(keys):
            neighbours = np.flatnonzero(matrix[row])
            if order is not None:
                neighbours = neighbours[
                    np.argsort(order[row, neighbours], kind="stable")
                ]
            assert [keys[i] for i in neighbours.tolist()] == list(
                reference.neighbors(key)
            )
    assert list(store.to_graph().edges()) == list(reference.edges())


def test_weight_store_dense_follows_insertion_order_not_slots():
    store = WeightStore()
    for key in "abc":
        store.add_node(key)
    store.set_edges("a", ["b", "c"], [1.0, 2.0])
    store.remove_node("a")
    store.add_node("d")  # reuses slot 0
    store.set_edges("d", ["b"], [3.0])
    keys, matrix, loops, order = store.dense()
    assert keys == ["b", "c", "d"]
    assert matrix.tolist() == [[0, 0, 3], [0, 0, 0], [3, 0, 0]]
    assert loops.tolist() == [0, 0, 0]
    assert list(store.edges()) == [("b", "d", 3.0)]
    assert store.number_of_edges() == 1
    assert store.total_weight() == 3.0 and store.strength("d") == 3.0
