"""Bootstrap uncertainty active learning (Mozafari et al., PVLDB 2014).

The paper's second AL method (§4.4): ``k`` classifiers trained on
bootstrap resamples of the current training set vote on every unlabeled
feature vector; the vote split defines the uncertainty

.. math:: unc(w) = \\bar m(w) (1 - \\bar m(w))  \\qquad (Eq. 10)

MoRER extends the score with an IDF-style record-uniqueness weight
(Eqs. 11–12): vectors whose records occur in few clusters are more
informative for a cluster-specific model.
"""

from __future__ import annotations

import math

import numpy as np

from ..ml.forest import BaggingClassifier
from ..ml.tree import DecisionTreeClassifier
from ..ml.utils import check_random_state

__all__ = ["BootstrapActiveLearner", "record_uniqueness_scores"]


def record_uniqueness_scores(pair_ids, record_cluster_counts, n_clusters):
    """Per-vector uniqueness score ``s(w)`` (Eqs. 11–12).

    Parameters
    ----------
    pair_ids : sequence of (str, str)
        Record id pairs aligned with the vectors.
    record_cluster_counts : dict
        ``record_id -> number of clusters the record occurs in``.
    n_clusters : int
        Total number of clusters :math:`|\\mathcal{C_P}|`.

    Notes
    -----
    The paper writes Eq. 12 as ``log(|C_P|_r| / |C_P|)``; read as printed
    it is non-positive, so — following the stated IDF analogy (records
    as words, clusters as documents) — we use the IDF orientation
    ``log(|C_P| / |C_P|_r|)`` and normalise to ``[0, 1]``. Records seen
    in every cluster score 0 (uninformative), records unique to one
    cluster score 1.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    max_score = math.log(n_clusters) if n_clusters > 1 else 1.0
    scores = np.empty(len(pair_ids))
    for index, (source_record, target_record) in enumerate(pair_ids):
        s_src = _record_score(source_record, record_cluster_counts,
                              n_clusters, max_score)
        s_tgt = _record_score(target_record, record_cluster_counts,
                              n_clusters, max_score)
        scores[index] = 0.5 * (s_src + s_tgt)  # Eq. 11
    return scores


def _record_score(record_id, counts, n_clusters, max_score):
    occurrences = max(1, counts.get(record_id, 1))
    raw = math.log(n_clusters / occurrences) if n_clusters > 1 else 0.0
    return raw / max_score if max_score > 0 else 0.0


class BootstrapActiveLearner:
    """Uncertainty sampling with a bootstrap committee.

    Parameters
    ----------
    k : int
        Committee size. The paper sets k=100; the scaled-down default
        here is 10 (documented in docs/EXPERIMENTS.md), configurable
        back up.
    batch_size : int
        Labels queried per iteration.
    n_initial : int
        Random seed labels before the first committee is trained.
    use_record_score : bool
        Enable the Eq. 11–12 uniqueness weighting (requires pair ids
        and cluster counts at select time).
    random_state : int or numpy.random.Generator, optional
    """

    name = "bootstrap"

    def __init__(self, k=10, batch_size=25, n_initial=10,
                 use_record_score=False, random_state=None):
        if k < 2:
            raise ValueError("committee size k must be >= 2")
        self.k = k
        self.batch_size = batch_size
        self.n_initial = n_initial
        self.use_record_score = use_record_score
        self.random_state = random_state

    def select(self, features, oracle, budget, pair_ids=None,
               record_cluster_counts=None, n_clusters=None):
        """Spend ``budget`` labels; returns ``(indices, labels)``.

        Parameters
        ----------
        features : ndarray (n, t)
            Unlabelled pool.
        oracle : callable
            ``indices -> labels``; each call is charged against the
            budget (it models the human labeller).
        budget : int
            Maximum number of labels.
        pair_ids, record_cluster_counts, n_clusters
            Inputs for the uniqueness score when
            ``use_record_score=True``.
        """
        features = np.asarray(features, dtype=float)
        n = features.shape[0]
        budget = min(budget, n)
        if budget < 2:
            raise ValueError("budget must allow at least two labels")
        rng = check_random_state(self.random_state)

        uniqueness = None
        if self.use_record_score:
            if pair_ids is None or record_cluster_counts is None:
                raise ValueError(
                    "use_record_score=True requires pair_ids and "
                    "record_cluster_counts"
                )
            uniqueness = record_uniqueness_scores(
                pair_ids, record_cluster_counts, n_clusters or 1
            )

        n_seed = min(self.n_initial, budget)
        selected = seed_selection(features, n_seed, rng)
        labels = {int(i): int(label)
                  for i, label in zip(selected, oracle(selected))}
        labelled_mask = np.zeros(n, dtype=bool)
        labelled_mask[selected] = True

        while len(selected) < budget:
            batch = min(self.batch_size, budget - len(selected))
            known = np.asarray(selected, dtype=int)
            y_known = np.asarray([labels[int(i)] for i in known])
            if len(np.unique(y_known)) < 2:
                # Committee cannot vote without both classes; explore.
                chosen = _random_unlabelled(labelled_mask, batch, rng)
            else:
                committee = BaggingClassifier(
                    base_estimator=DecisionTreeClassifier(max_depth=8),
                    n_estimators=self.k,
                    random_state=int(rng.integers(0, 2**31 - 1)),
                ).fit(features[known], y_known)
                votes = committee.vote_matrix(features)
                vote_share = votes.mean(axis=0)
                uncertainty = vote_share * (1.0 - vote_share)  # Eq. 10
                if uniqueness is not None:
                    uncertainty = uncertainty * (0.5 + 0.5 * uniqueness)
                uncertainty[labelled_mask] = -1.0
                chosen = np.argsort(-uncertainty, kind="mergesort")[:batch]
                chosen = [int(i) for i in chosen if not labelled_mask[i]]
                if not chosen:
                    chosen = _random_unlabelled(labelled_mask, batch, rng)
            new_labels = oracle(chosen)
            for i, label in zip(chosen, new_labels):
                labels[int(i)] = int(label)
                labelled_mask[int(i)] = True
            selected.extend(int(i) for i in chosen)

        indices = np.asarray(selected, dtype=int)
        return indices, np.asarray([labels[int(i)] for i in indices])


def _random_unlabelled(labelled_mask, batch, rng):
    candidates = np.nonzero(~labelled_mask)[0]
    if len(candidates) == 0:
        return []
    take = min(batch, len(candidates))
    return [int(i) for i in rng.choice(candidates, size=take, replace=False)]


def seed_selection(features, n_seed, rng):
    """Similarity-guided seed labels for AL on imbalanced ER pools.

    Half the seeds come from the highest-mean-similarity vectors
    (likely matches) and half from random vectors — the bootstrapping
    heuristic the multi-source AL literature uses so the first
    committee sees both classes despite heavy non-match skew.
    """
    n = features.shape[0]
    n_seed = min(n_seed, n)
    mean_similarity = features.mean(axis=1)
    n_top = max(1, n_seed // 2)
    top = np.argsort(-mean_similarity, kind="mergesort")[:n_top]
    chosen = set(int(i) for i in top)
    while len(chosen) < n_seed:
        chosen.add(int(rng.integers(0, n)))
    return list(chosen)
