"""MoRER's clustering and decisions do not depend on PYTHONHASHSEED.

Problem keys are tuples of strings, whose hashes (and so the iteration
order of any set of them) change with the interpreter's hash seed. The
same seeded run is executed in two child interpreters under different
hash seeds; decisions, predictions and Leiden partitions must agree.
The corpus is synthetic (``tests.conftest``), not a dataset loader.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import numpy as np
from repro.core import MoRER
from tests.conftest import make_problem, make_problem_family

def probes(seed, prefix, n):
    return [make_problem(f"{prefix}{i}", f"{prefix}{i}b", shift=0.3 * (i % 2),
                         seed=seed + i) for i in range(n)]

morer = MoRER(b_total=200, b_min=10, selection="cov", t_cov=0.6,
              random_state=0, incremental_clustering=True, use_index=True,
              graph_candidates=6, full_recluster_every=3)
morer.fit(make_problem_family(16))
decisions = []
results = [morer.solve(p) for p in probes(100, "X", 5)]
results += morer.solve_batch(probes(300, "B", 4))
for result in results:
    decisions.append([bool(result.retrained), bool(result.new_model),
                      result.cluster_id,
                      np.asarray(result.predictions).tolist()])
graph = morer.problem_graph
partitions = [
    [sorted(map(list, c)) for c in graph.cluster("leiden", 1.0, seed)]
    for seed in range(3)
]
print(json.dumps({
    "decisions": decisions,
    "clusters": [sorted(map(list, c)) for c in morer.clusters_],
    "partitions": partitions,
    "counters": morer.counters,
}))
"""


def _run(hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_decisions_and_partitions_ignore_the_hash_seed():
    first, second = _run(0), _run(1)
    assert first["counters"]["warm_reclusters"] > 0
    assert first["counters"]["full_reclusters"] > 1
    assert first == second
