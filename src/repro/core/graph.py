"""The ER problem similarity graph :math:`G_P` (§4.3).

Vertices are ER problems (keyed by source pair), edges carry the
aggregated distribution similarity ``sim_p``. The graph is clustered
with Leiden by default and is extendable: new unsolved problems are
attached by comparing them against existing vertices (the ``sel_cov``
strategy of §4.5 reclusters after insertion).

Pairwise analysis is the O(P²·F) hot loop of construction, so the
graph keeps one :class:`~repro.core.signatures.ProblemSignature` per
problem (sorted columns, self-CDFs, histograms, stds computed once) and
evaluates edges with the tests' vectorized ``signature_similarity``
kernels. Edges and computed pair similarities live in one dense,
slot-indexed :class:`~repro.core.weight_store.WeightStore`; a removed
problem keeps its slot and cached pairs while its feature matrix lives,
so ``sel_cov`` re-insertions and repeated reclustering never repeat a
comparison.

Two mechanisms keep *insertion* sublinear in graph size at scale:

* a sketch-index prefilter (the same filter-then-verify pattern as
  repository search, see :mod:`repro.core.sketch_index`): once the
  graph outgrows ``index_threshold`` vertices, a new problem is
  compared — and connected — only to its ``n_candidates``
  sketch-nearest vertices instead of every vertex;
* warm-started reclustering: :meth:`cluster` accepts the previous
  partition (``seed_communities``) plus the inserted keys
  (``changed_keys``) and routes to
  :func:`~repro.graphcluster.incremental_leiden`, which re-examines
  only the perturbed neighbourhood.

Both are off below the threshold (and via ``use_index=False``), where
the exact all-vertices behaviour is preserved byte for byte. What stays
sublinear is the Python-level work: on the dense store a warm recluster
still sums the whole matrix once (the vertex strengths) and reads one
full row per visited vertex.

Mutation journal
----------------
Every :meth:`add_problem` / :meth:`add_problems` / :meth:`remove_problem`
appends a :class:`JournalEntry` recording the operation *and* the edges
it created or destroyed. A consumer caching a partition (MoRER's
:class:`~repro.core.partition_state.PartitionState`) remembers the
:attr:`version` it last synced at (its *cursor*) and later *replays*
``journal_since(cursor)`` — batch-folding inserts and removals into its
partition and modularity aggregates without touching the graph history.
Removals therefore no longer invalidate warm starts: the replay drops
the vertex from the seed and queues its recorded neighbours. Consumed
entries are reclaimed with :meth:`trim_journal`; :meth:`build` advances
the version without journaling (bulk construction is an epoch boundary,
``can_replay`` is false across it).
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from ..graphcluster import CLUSTERING_ALGORITHMS, incremental_leiden
from .config import DEFAULT_INDEX_THRESHOLD, check_index_settings
from .distribution import make_distribution_test
from .problem import ERProblem
from .signatures import (
    ProblemSignature,
    SignatureStore,
    pairwise_similarities,
    search_similarities,
    supports_signatures,
)
from .sketch_index import SketchIndex
from .weight_store import WeightStore

__all__ = ["ERProblemGraph", "JournalEntry"]


class JournalEntry:
    """One graph mutation: the operation, the vertex, and its edges.

    ``edges`` maps neighbour key -> weight — the edges *created* by an
    insert or *destroyed* by a removal — which makes the journal
    self-contained: replaying it needs no access to graph state at the
    time of the mutation (the graph may have changed arbitrarily
    since).
    """

    __slots__ = ("op", "key", "edges")

    INSERT = "insert"
    REMOVE = "remove"

    def __init__(self, op, key, edges):
        self.op = op
        self.key = key
        self.edges = edges

    def to_json(self):
        """JSON-safe form for persistence."""
        return {
            "op": self.op,
            "key": list(self.key),
            "edges": [[list(k), w] for k, w in self.edges.items()],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            data["op"], tuple(data["key"]),
            {tuple(k): float(w) for k, w in data["edges"]},
        )

    def __repr__(self):
        return (
            f"JournalEntry({self.op!r}, {self.key!r}, "
            f"{len(self.edges)} edges)"
        )


class ERProblemGraph:
    """Similarity graph over ER problems.

    Parameters
    ----------
    test : distribution test or str
        Object with ``problem_similarity(features_a, features_b)`` or a
        Table 3 short name (``"ks"``, ``"wd"``, ``"psi"``, ``"c2st"``).
    min_similarity : float
        Edges at or below this weight are omitted; 0.0 (the default)
        keeps every positive similarity. Must be ``>= 0``: a weight of
        0.0 means "no edge".
    use_signatures : bool
        Evaluate edges through per-problem signatures and the memoized
        pair cache (the default). ``False`` preserves the naive path
        that recomputes every comparison from the raw matrices —
        reference behaviour for the equivalence suite and benchmarks.
    signature_cache_size : int
        Capacity of the LRU signature store.
    use_index : {"auto", True, False}
        Sketch-prefilter insertions: compare a new problem only against
        its sketch-nearest existing vertices. ``"auto"`` (the default)
        engages at ``index_threshold`` vertices; ``False`` always
        compares against every vertex (the exact §4.5 behaviour). The
        prefilter requires the signature path; with
        ``use_signatures=False`` insertions stay exact.
    index_threshold : int
        Vertex count at which ``"auto"`` starts prefiltering.
    n_candidates : int
        How many sketch-nearest vertices survive into the exact
        comparison (and edge creation); 0 means the per-insert default
        ``max(64, 4 * sqrt(vertices))``.
    sketch_bins : int
        Histogram bins per feature in the sketch vectors.
    """

    def __init__(self, test="ks", min_similarity=0.0, use_signatures=True,
                 signature_cache_size=4096, use_index="auto",
                 index_threshold=DEFAULT_INDEX_THRESHOLD, n_candidates=0,
                 sketch_bins=16):
        if isinstance(test, str):
            test = make_distribution_test(test)
        check_index_settings(use_index, index_threshold)
        if n_candidates < 0:
            raise ValueError("n_candidates must be >= 0")
        if not min_similarity >= 0:
            raise ValueError("min_similarity must be >= 0")
        self.test = test
        self.min_similarity = min_similarity
        self.use_signatures = bool(use_signatures) and supports_signatures(test)
        self.use_index = use_index
        self.index_threshold = int(index_threshold)
        self.n_candidates = int(n_candidates)
        # The pair cache stores one value under an order-normalized key,
        # so it is only sound for order-symmetric tests (KS/WD/PSI, not
        # C2ST, whose subsampling depends on argument order).
        self._cache_pairs = self.use_signatures and getattr(
            test, "symmetric", False
        )
        #: Edge weights and the memoized pair cache (see
        #: :class:`~repro.core.weight_store.WeightStore`).
        self.graph = WeightStore()
        # Mutation journal: entries cover versions
        # (_journal_offset, _journal_offset + len(_journal)]; bulk
        # construction advances the offset without entries.
        self._journal = []
        self._journal_offset = 0
        #: Runtime instrumentation (never persisted): how many pairwise
        #: test evaluations ran and how many sketch rows were derived
        #: from signatures — the persistence suite asserts a restored
        #: graph's first solve recomputes nothing it saved.
        self.stats = {"pair_evals": 0, "sketch_rows_built": 0}
        self._problems = {}
        self._signatures = SignatureStore(signature_cache_size)
        # key -> weakref of the feature matrix its cached pairs were
        # computed against; validates re-insertions independently of the
        # LRU signature store (eviction must not purge valid pairs).
        self._pair_witness = {}
        self._sketch_index = SketchIndex(n_bins=sketch_bins)
        self._index_pending = set()
        # Registered journal consumers (token -> cursor). Process-local
        # and never persisted: every consumer must re-register after a
        # restore. trim_journal() never reclaims past the slowest one.
        self._consumers = {}
        self._next_consumer_token = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, problems, test="ks", min_similarity=0.0, **kwargs):
        """Build the graph over an iterable of initial ER problems.

        On the signature path all signatures are computed up front
        (once per problem) and the edges come from one batched
        :func:`~repro.core.signatures.pairwise_similarities` kernel.
        """
        instance = cls(test, min_similarity, **kwargs)
        problems = list(problems)
        if not instance.use_signatures or len(problems) < 2:
            for problem in problems:
                instance.add_problem(problem)
            # Bulk construction is an epoch boundary: fold the entries
            # into the offset so no consumer replays the O(n²) build.
            instance.trim_journal(instance.version)
            return instance
        keys = []
        signatures = []
        for problem in problems:
            key = problem.key
            if key in instance._problems:
                raise ValueError(f"ER problem {key} already in the graph")
            instance.graph.add_node(key)
            instance._problems[key] = problem
            instance._journal_offset += 1
            keys.append(key)
            instance._validate_pair_cache(key, problem.features)
            instance._index_pending.add(key)
            signatures.append(
                instance._signatures.signature(key, problem.features)
            )
        # Asymmetric tests (C2ST) skip the matrix kernel: only the lower
        # triangle is consumed, and pairwise_similarities would have to
        # evaluate both orientations.
        if getattr(instance.test, "symmetric", False):
            lower = np.tril(pairwise_similarities(signatures, instance.test), -1)
        else:
            lower = np.zeros((len(keys), len(keys)))
            for i in range(len(keys)):
                for j in range(i):
                    lower[i, j] = instance.test.signature_similarity(
                        signatures[i], signatures[j]
                    )
        instance.stats["pair_evals"] += len(keys) * (len(keys) - 1) // 2
        similarities = lower + lower.T
        pairs = None
        if instance._cache_pairs:
            pairs = similarities.copy()
            np.fill_diagonal(pairs, np.nan)
        instance.graph.assign(
            np.where(similarities > instance.min_similarity, similarities, 0.0),
            pairs,
        )
        return instance

    def add_problem(self, problem):
        """Insert ``problem`` and weight edges to existing vertices.

        Below ``index_threshold`` (or with ``use_index=False``) the new
        vertex is compared against *every* existing vertex — the exact
        §4.5 integration. Past the threshold the sketch index prefilters
        ``n_candidates`` nearest vertices and only those are compared
        (and eligible for edges), keeping insertion cost bounded as the
        graph grows. The insertion (and the edges it created) is
        appended to the mutation journal.
        """
        key = problem.key
        if key in self._problems:
            raise ValueError(f"ER problem {key} already in the graph")
        signature = None
        if self.use_signatures:
            self._validate_pair_cache(key, problem.features)
            signature = self._signatures.signature(key, problem.features)
        self.graph.add_node(key)
        others = self._problems
        if signature is not None and self._prefilter_active():
            others = self._candidate_problems(signature)
        cached = None
        if self._cache_pairs:
            cached = self.graph.pairs(key, list(others)).tolist()
        edges = {}
        computed = {}
        for i, (other_key, other) in enumerate(others.items()):
            if signature is not None:
                similarity = None
                if cached is not None and not math.isnan(cached[i]):
                    similarity = cached[i]
                if similarity is None:
                    other_signature = self._signatures.signature(
                        other_key, other.features
                    )
                    similarity = self.test.signature_similarity(
                        signature, other_signature
                    )
                    self.stats["pair_evals"] += 1
                    computed[other_key] = similarity
            else:
                similarity = self.test.problem_similarity(
                    problem.features, other.features
                )
                self.stats["pair_evals"] += 1
            if similarity > self.min_similarity:
                edges[other_key] = float(similarity)
        if self._cache_pairs:
            self.graph.set_pairs(key, list(computed), list(computed.values()))
        self.graph.set_edges(key, list(edges), list(edges.values()))
        self._problems[key] = problem
        self._journal.append(JournalEntry(JournalEntry.INSERT, key, edges))
        if self.use_signatures:
            self._index_pending.add(key)

    def add_problems(self, problems):
        """Batch-insert several problems with one prefiltered edge pass.

        The batched form of :meth:`add_problem` behind
        :meth:`MoRER.solve_batch`: signatures are computed once for the
        whole batch, the sketch index is synced once, every member's
        candidate set is evaluated through the test's one-vs-many
        kernel (:func:`~repro.core.signatures.search_similarities`
        instead of one Python-level call per pair), and batch members
        are always compared against *each other* exactly (a batch is
        small; sequential insertion would have routed later members
        against earlier ones through the index anyway). One journal
        entry per member is appended, so partition replays see the
        batch as the equivalent insert sequence.
        """
        problems = list(problems)
        if not self.use_signatures or len(problems) < 2:
            for problem in problems:
                self.add_problem(problem)
            return
        keys = []
        batch_rows = {}
        for problem in problems:
            key = problem.key
            if key in self._problems or key in batch_rows:
                raise ValueError(f"ER problem {key} already in the graph")
            batch_rows[key] = len(keys)
            keys.append(key)
        existing = list(self._problems)
        prefilter = self._prefilter_active()
        if prefilter:
            self._sync_sketch_index()
        signatures = []
        for problem, key in zip(problems, keys):
            self._validate_pair_cache(key, problem.features)
            signatures.append(
                self._signatures.signature(key, problem.features)
            )
        n_candidates = self._resolve_candidates() if prefilter else 0
        for i, (problem, key) in enumerate(zip(problems, keys)):
            signature = signatures[i]
            if prefilter:
                candidates = self._sketch_index.query(signature, n_candidates)
            else:
                candidates = existing
            candidates = list(candidates) + keys[:i]
            self.graph.add_node(key)
            cached = np.full(len(candidates), np.nan)
            if self._cache_pairs:
                cached = self.graph.pairs(key, candidates)
            # Edges from cached pairs first, then the computed ones, each
            # in candidate order (the journal entry keeps this order).
            edges = {
                other_key: similarity
                for other_key, similarity in zip(candidates, cached.tolist())
                if similarity > self.min_similarity
            }
            uncached = [
                other_key
                for other_key, missing in zip(candidates, np.isnan(cached))
                if missing
            ]
            if uncached:
                uncached_signatures = [
                    signatures[batch_rows[other_key]]
                    if other_key in batch_rows
                    else self._signatures.signature(
                        other_key, self._problems[other_key].features
                    )
                    for other_key in uncached
                ]
                similarities = np.asarray(
                    search_similarities(
                        self.test, signature, uncached_signatures
                    ),
                    dtype=float,
                )
                self.stats["pair_evals"] += len(uncached)
                if self._cache_pairs:
                    self.graph.set_pairs(key, uncached, similarities)
                for other_key, similarity in zip(
                    uncached, similarities.tolist()
                ):
                    if similarity > self.min_similarity:
                        edges[other_key] = similarity
            self.graph.set_edges(key, list(edges), list(edges.values()))
            self._problems[key] = problem
            self._journal.append(
                JournalEntry(JournalEntry.INSERT, key, edges)
            )
            self._index_pending.add(key)

    def remove_problem(self, key):
        """Remove a problem vertex (used by repository maintenance).

        The problem's signature and memoized pair similarities are kept
        so re-inserting the same problem (``sel_cov`` churn) is free.
        The removal — with the destroyed edges — is journaled, so a
        cached partition *survives*: replay drops the vertex from the
        seed and queues its recorded neighbours instead of forcing a
        full recluster.
        """
        if key not in self._problems:
            raise KeyError(f"no ER problem {key} in the graph")
        edges = self.graph.neighbors(key)
        self.graph.remove_node(key, keep_slot=self._cache_pairs)
        del self._problems[key]
        self._journal.append(JournalEntry(JournalEntry.REMOVE, key, edges))
        self._sketch_index.discard(key)
        self._index_pending.discard(key)

    # -- mutation journal --------------------------------------------------

    @property
    def version(self):
        """Monotonic mutation count (inserts + removals ever applied)."""
        return self._journal_offset + len(self._journal)

    @property
    def journal_length(self):
        """Retained (not yet trimmed) journal entries."""
        return len(self._journal)

    def can_replay(self, cursor):
        """Whether every mutation after ``cursor`` is still journaled."""
        return self._journal_offset <= cursor <= self.version

    def journal_since(self, cursor):
        """Entries covering versions ``(cursor, version]``, oldest
        first; ``None`` when ``cursor`` predates the retained journal
        (or a :meth:`build` epoch boundary) and replay is impossible."""
        if not self.can_replay(cursor):
            return None
        return self._journal[cursor - self._journal_offset:]

    def trim_journal(self, cursor):
        """Reclaim entries every consumer has seen.

        ``cursor`` is the *caller's* own position; the effective
        compaction watermark is the minimum of it and every registered
        consumer's cursor (:meth:`register_consumer`), so independent
        consumers — the live partition cache, a background saver, a
        future replication shard — can trail the stream at their own
        pace without losing entries to each other's trims.
        """
        watermark = min([int(cursor), *self._consumers.values()])
        cut = min(watermark, self.version) - self._journal_offset
        if cut > 0:
            del self._journal[:cut]
            self._journal_offset += cut

    def register_consumer(self, cursor=None):
        """Register a journal consumer at ``cursor`` (default: now).

        Returns an opaque token for :meth:`advance_consumer` /
        :meth:`unregister_consumer`. While registered, the consumer's
        cursor bounds :meth:`trim_journal`'s compaction watermark, so
        entries it has not replayed yet survive other consumers'
        trims. Registrations are process-local — they are not part of
        :meth:`export_state` and must be re-established after
        :meth:`restore_state`.
        """
        if cursor is None:
            cursor = self.version
        cursor = int(cursor)
        if not self._journal_offset <= cursor <= self.version:
            raise ValueError(
                f"consumer cursor {cursor} is outside the retained "
                f"journal [{self._journal_offset}, {self.version}]"
            )
        token = self._next_consumer_token
        self._next_consumer_token += 1
        self._consumers[token] = cursor
        return token

    def advance_consumer(self, token, cursor=None):
        """Move a registered consumer's cursor forward (default: to the
        current :attr:`version` — "caught up")."""
        if token not in self._consumers:
            raise KeyError(f"unknown journal consumer token {token!r}")
        if cursor is None:
            cursor = self.version
        cursor = int(cursor)
        if cursor < self._consumers[token]:
            raise ValueError(
                f"consumer cursor may only advance "
                f"({self._consumers[token]} -> {cursor})"
            )
        if cursor > self.version:
            raise ValueError(
                f"consumer cursor {cursor} is past version {self.version}"
            )
        self._consumers[token] = cursor

    def consumer_cursor(self, token):
        """The registered cursor of a consumer token."""
        return self._consumers[token]

    def unregister_consumer(self, token):
        """Drop a consumer; its cursor no longer bounds compaction."""
        self._consumers.pop(token, None)

    # -- sketch prefilter --------------------------------------------------

    def _prefilter_active(self):
        """Whether insertions go through the sketch prefilter."""
        if not self.use_signatures or not self._problems:
            return False
        if self.use_index == "auto":
            return len(self._problems) >= self.index_threshold
        return bool(self.use_index)

    def _resolve_candidates(self):
        if self.n_candidates:
            return self.n_candidates
        return max(64, int(4 * math.sqrt(len(self._problems))))

    def _candidate_problems(self, signature):
        """The ``n_candidates`` sketch-nearest stored problems."""
        self._sync_sketch_index()
        keys = self._sketch_index.query(signature, self._resolve_candidates())
        return {key: self._problems[key] for key in keys}

    def _sync_sketch_index(self):
        """Fold pending vertices into the sketch matrix."""
        for key in list(self._index_pending):
            problem = self._problems.get(key)
            if problem is not None:
                self._sketch_index.add(
                    key, self._signatures.signature(key, problem.features)
                )
                self.stats["sketch_rows_built"] += 1
            self._index_pending.discard(key)

    # -- pair cache --------------------------------------------------------

    def pair_similarity(self, key_a, key_b):
        """Memoized ``sim_p`` between two stored problems.

        Unlike :meth:`similarity` this is the actual test value, not
        the thresholded edge weight; missing pairs are computed (and,
        for order-symmetric tests, cached) on demand in the
        ``(key_a, key_b)`` orientation.
        """
        if self._cache_pairs:
            cached = self.graph.pair(key_a, key_b)
            if cached is not None:
                return cached
        problem_a = self._problems[key_a]
        problem_b = self._problems[key_b]
        if self.use_signatures:
            similarity = self.test.signature_similarity(
                self._signatures.signature(key_a, problem_a.features),
                self._signatures.signature(key_b, problem_b.features),
            )
            if self._cache_pairs:
                self.graph.set_pairs(key_a, [key_b], [similarity])
        else:
            similarity = self.test.problem_similarity(
                problem_a.features, problem_b.features
            )
        self.stats["pair_evals"] += 1
        return similarity

    def _validate_pair_cache(self, key, features):
        """Forget ``key``'s memoized pairs unless they were computed
        against this exact feature matrix (identity via weakref, so an
        LRU-evicted signature does not invalidate valid pairs). The
        weakref's death callback releases a removed key's slot
        outright: once the matrix is garbage the cache can never be
        validated again, which bounds the pair cache to problems whose
        data is alive.
        """
        if not self._cache_pairs:
            return
        witness = self._pair_witness.get(key)
        if witness is None or witness() is not features:
            self.graph.forget_pairs(key)
            self._pair_witness[key] = weakref.ref(
                features,
                lambda ref, key=key: self._drop_dead_witness(key, ref),
            )

    def _drop_dead_witness(self, key, ref):
        # A vertex's own problem keeps its witness alive, so the key
        # is a removed one: its slot goes back to the free list.
        if self._pair_witness.get(key) is ref:
            del self._pair_witness[key]
            self.graph.release(key)

    # -- persistence -------------------------------------------------------

    def export_state(self):
        """``(meta, arrays)`` snapshot of the whole graph-side state.

        ``meta`` is JSON-safe (problem identities, pair ids, journal,
        settings); ``arrays`` maps names to ndarrays (features, labels,
        per-problem signature statistics, edges, the memoized pair
        cache and — when the prefilter is in play — the sketch matrix).
        :meth:`restore_state` rebuilds a graph whose first insertion
        recomputes none of it. Pairs involving removed problems are not
        persisted (their witness matrices don't survive the process
        anyway).
        """
        rows = {key: i for i, key in enumerate(self._problems)}
        meta = {
            "min_similarity": self.min_similarity,
            "use_signatures": self.use_signatures,
            "use_index": self.use_index,
            "index_threshold": self.index_threshold,
            "n_candidates": self.n_candidates,
            "sketch_bins": self._sketch_index.n_bins,
            "version": self.version,
            "journal": [entry.to_json() for entry in self._journal],
            "problems": [],
        }
        arrays = {}
        for i, (key, problem) in enumerate(self._problems.items()):
            meta["problems"].append({
                "source_a": problem.source_a,
                "source_b": problem.source_b,
                "feature_names": problem.feature_names,
                "pair_ids": (
                    None if problem.pair_ids is None
                    else [list(pair) for pair in problem.pair_ids]
                ),
            })
            arrays[f"features_{i}"] = problem.features
            if problem.labels is not None:
                arrays[f"labels_{i}"] = problem.labels
            if self.use_signatures:
                # Read through the store without inserting: saving a
                # graph larger than the LRU capacity must not thrash
                # live entries (evicted signatures are rebuilt locally
                # for the snapshot only).
                signature = self._signatures.get(key)
                if signature is None or signature.features is not (
                    problem.features
                ):
                    signature = ProblemSignature(problem.features)
                arrays[f"sig_sorted_{i}"] = signature.sorted_columns
                arrays[f"sig_cdf_{i}"] = signature.self_cdf
        # The store's vertex order is the problem order, so its matrix
        # positions are the snapshot's problem rows.
        _, weights, _, _ = self.graph.dense()
        upper = np.triu(np.ones(weights.shape, dtype=bool), 1)
        edge_rows = np.argwhere(upper & (weights > 0))
        arrays["edge_rows"] = edge_rows.astype(np.int64).reshape(-1, 2)
        arrays["edge_weights"] = weights[edge_rows[:, 0], edge_rows[:, 1]]
        pairs = self.graph.dense_pairs()
        pair_rows = np.argwhere(upper & ~np.isnan(pairs))
        arrays["pair_rows"] = pair_rows.astype(np.int64).reshape(-1, 2)
        arrays["pair_values"] = pairs[pair_rows[:, 0], pair_rows[:, 1]]
        if self._prefilter_active():
            self._sync_sketch_index()
            ids, sketch_rows = self._sketch_index.export_rows()
            arrays["sketch_order"] = np.asarray(
                [rows[key] for key in ids], dtype=np.int64
            )
            arrays["sketch_rows"] = sketch_rows
        return meta, arrays

    @classmethod
    def restore_state(cls, meta, arrays, test, **kwargs):
        """Rebuild a graph from an :meth:`export_state` snapshot.

        ``test`` must be (equivalent to) the distribution test the
        snapshot was taken under. Signatures, edges, the pair cache and
        the sketch matrix come back preloaded: the restored graph's
        signature store reports zero :attr:`SignatureStore.builds` and
        the first prefiltered insertion derives no sketch row.
        """
        instance = cls(
            test, meta["min_similarity"],
            use_signatures=meta["use_signatures"],
            use_index=meta["use_index"],
            index_threshold=meta["index_threshold"],
            n_candidates=meta["n_candidates"],
            sketch_bins=meta["sketch_bins"],
            **kwargs,
        )
        # The zero-rebuild guarantee needs every seeded signature to
        # actually fit: grow the LRU to the restored problem count.
        instance._signatures.max_size = max(
            instance._signatures.max_size, len(meta["problems"])
        )
        keys = []
        for i, spec in enumerate(meta["problems"]):
            labels = arrays.get(f"labels_{i}")
            pair_ids = spec["pair_ids"]
            problem = ERProblem(
                spec["source_a"], spec["source_b"], arrays[f"features_{i}"],
                labels,
                None if pair_ids is None else [tuple(p) for p in pair_ids],
                spec["feature_names"],
            )
            key = problem.key
            keys.append(key)
            instance.graph.add_node(key)
            instance._problems[key] = problem
            if instance.use_signatures:
                signature = ProblemSignature(problem.features)
                sorted_columns = arrays.get(f"sig_sorted_{i}")
                if sorted_columns is not None:
                    signature._sorted_columns = np.asarray(sorted_columns)
                self_cdf = arrays.get(f"sig_cdf_{i}")
                if self_cdf is not None:
                    signature._self_cdf = np.asarray(self_cdf)
                instance._signatures.put(key, signature)
            if instance._cache_pairs:
                instance._pair_witness[key] = weakref.ref(
                    problem.features,
                    lambda ref, key=key: instance._drop_dead_witness(
                        key, ref
                    ),
                )
        instance.graph.set_block(arrays["edge_rows"], arrays["edge_weights"])
        if instance._cache_pairs:
            instance.graph.set_block(
                arrays["pair_rows"], pairs=arrays["pair_values"]
            )
        if "sketch_rows" in arrays:
            instance._sketch_index.bulk_load(
                [keys[int(row)] for row in arrays["sketch_order"]],
                arrays["sketch_rows"],
            )
        elif instance.use_signatures:
            instance._index_pending.update(keys)
        instance._journal = [
            JournalEntry.from_json(entry) for entry in meta["journal"]
        ]
        instance._journal_offset = meta["version"] - len(instance._journal)
        return instance

    # -- access --------------------------------------------------------------

    def __contains__(self, key):
        return key in self._problems

    def __len__(self):
        return len(self._problems)

    def problem(self, key):
        """The :class:`ERProblem` stored under ``key``."""
        return self._problems[key]

    def problems(self):
        """All stored problems (dict view)."""
        return dict(self._problems)

    def similarity(self, key_a, key_b):
        """Edge weight between two problems (0.0 if below threshold)."""
        return self.graph.edge_weight(key_a, key_b)

    # -- clustering ----------------------------------------------------------

    def cluster(self, algorithm="leiden", resolution=1.0, random_state=None,
                seed_communities=None, changed_keys=()):
        """Partition the problems into clusters of similar ER tasks.

        Returns a list of sets of problem keys. Isolated vertices come
        back as singleton clusters.

        Parameters
        ----------
        seed_communities : list of sets, optional
            Warm start (Leiden only): the previous partition to update
            incrementally via
            :func:`~repro.graphcluster.incremental_leiden` instead of
            reclustering from scratch. Keys no longer in the graph are
            ignored; new keys start as singletons.
        changed_keys : iterable, optional
            Keys inserted (or whose edges changed) since
            ``seed_communities`` was computed; only they and their
            neighbours are re-examined.
        """
        if algorithm not in CLUSTERING_ALGORITHMS:
            raise KeyError(
                f"unknown clustering algorithm {algorithm!r}; choose from "
                f"{sorted(CLUSTERING_ALGORITHMS)}"
            )
        if len(self._problems) == 0:
            return []
        if seed_communities is not None:
            if algorithm != "leiden":
                raise ValueError(
                    "warm-started clustering (seed_communities) is only "
                    "supported with algorithm='leiden'"
                )
            communities = incremental_leiden(
                self.graph, seed_communities, changed_keys,
                resolution=resolution, random_state=random_state,
            )
            return [set(community) for community in communities]
        func = CLUSTERING_ALGORITHMS[algorithm]
        if algorithm in ("leiden", "louvain"):
            communities = func(
                self.graph, resolution=resolution, random_state=random_state
            )
        elif algorithm == "girvan_newman":
            communities = func(self.graph.to_graph())
        else:
            communities = func(self.graph.to_graph(), random_state=random_state)
        return [set(community) for community in communities]
