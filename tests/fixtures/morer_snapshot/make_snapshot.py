"""Write the MoRER snapshot fixture and the decisions it must keep.

Run from the repository root::

    PYTHONPATH=src:. python tests/fixtures/morer_snapshot/make_snapshot.py

The committed fixture was written while the ER problem graph was still
a dict-of-dicts graph with a dict pair cache, so it pins the on-disk
format those versions wrote. ``store/`` is the ``MoRER.save`` directory
of a fitted instance that has served a few ``sel_cov`` probes through
the sketch prefilter (a live warm partition, journal and pair cache);
``expected.json`` records what that instance then decided for
:func:`probes`, solved in order, one sequential solve each and then one
batch. Running the script again rewrites the fixture in the current
code's format, which defeats its purpose unless that format changed on
purpose.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from repro.core import MoRER
from tests.conftest import make_problem, make_problem_family

HERE = Path(__file__).resolve().parent


def probes(seed, prefix, n):
    return [
        make_problem(f"{prefix}{i}", f"{prefix}{i}b", shift=0.3 * (i % 2),
                     seed=seed + i)
        for i in range(n)
    ]


def outcome(result):
    """One solve's decision, as recorded in ``expected.json``."""
    predictions = np.asarray(result.predictions, dtype=np.int64)
    return {
        "retrained": bool(result.retrained),
        "new_model": bool(result.new_model),
        "cluster_id": result.cluster_id,
        "predictions": hashlib.sha256(predictions.tobytes()).hexdigest(),
    }


def main():
    morer = MoRER(
        b_total=200, b_min=10, selection="cov", t_cov=0.6, random_state=0,
        incremental_clustering=True, use_index=True, graph_candidates=6,
    ).fit(make_problem_family(10))
    for probe in probes(100, "X", 4):
        morer.solve(probe)
    store = HERE / "store"
    shutil.rmtree(store, ignore_errors=True)
    morer.save(store)

    expected = {"solves": [], "pair_evals": []}
    for probe in probes(700, "R", 4):
        before = morer.problem_graph.stats["pair_evals"]
        expected["solves"].append(outcome(morer.solve(probe)))
        expected["pair_evals"].append(
            morer.problem_graph.stats["pair_evals"] - before
        )
    before = morer.problem_graph.stats["pair_evals"]
    for result in morer.solve_batch(probes(900, "B", 3)):
        expected["solves"].append(outcome(result))
    expected["pair_evals"].append(
        morer.problem_graph.stats["pair_evals"] - before
    )
    expected["clusters"] = sorted(
        sorted(map(list, cluster)) for cluster in morer.clusters_
    )
    expected["total_labels_spent"] = morer.total_labels_spent()
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
