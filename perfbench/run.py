"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cov-stream --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload twice, untraced and then with every layer's public entry
points wrapped (see ``layers.py``), and prints every per-layer metric,
the share of the measured wall time the layer spans cover, and the
tracing overhead (traced minus untraced). The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it hold the run's detail
(tail percentiles and sample counts, checks, decisions hash, machine
and its speed). A traced dexter-pipeline run also records the decisions
of one unit under another string-hash seed (see ``HASH_SEED``).
The same detail, and in a traced run every span, is written under
``perfbench/out/``.

The program is imported from ``src/`` of the checkout this file sits
in; without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no program source at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402 - needs the checkout's src/ on the path
import measure  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DEXTER_UNIT_SECONDS, OUT_DIR, WORKLOADS  # noqa: E402

#: The interpreter's string-hash seed, unless ``--hash-seed`` names
#: another. The program's clustering depends on it, although
#: ``graphcluster/louvain.py`` promises that it cannot leak into seeded
#: results: the Dexter fit gave clusters of 26, 42 and 70 problems under
#: one hash seed and 25, 48 and 65 under another, and with them other
#: retrains, labels and times. Until that is fixed every run pins it,
#: so the bounds hold for this hash seed only.
HASH_SEED = 0
#: The other hash seed a traced dexter-pipeline run probes, to keep the
#: leak in sight. (dexter-pipeline is the workload whose decisions its
#: ``--seed`` does not change.)
PROBE_HASH_SEED = 1

#: F1 floors, each a little below the lowest value the workload gave on
#: ten seeds with the program as it stood when the benchmark was added.
F1_FLOOR = {
    "cov-stream": 0.80,
    "read-mix": 0.80,
    "dexter-pipeline": 0.98,
}

#: Every workload prints every end-to-end metric. ``setup_s`` is the
#: median over the run's segments of building a servable repository
#: (inputs in hand: fit, plus the service and gateway, or the Dexter
#: load); ``fit_s`` is the mean ``MoRER.fit`` time. ``solve_s`` is the
#: mean measured phase per segment: first due time to last answer
#: (cov-stream), the clients' closed loop (read-mix), summed ``cov``
#: solve time (dexter-pipeline). ``cov_*`` time ``cov`` solves (from the
#: due time on cov-stream), ``write_p50_ms`` the same from the send,
#: ``read_*`` ``base`` solves; ``throughput_rps`` counts answers inside
#: the measured phases.
END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "solve_s": "s",
    "cov_p50_ms": "ms",
    "cov_tail_ms": "ms",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "write_p50_ms": "ms",
    "throughput_rps": "1/s",
    "f1": "ratio",
    "labels_spent": "count",
    "peak_rss_mb": "MB",
}

#: The end-to-end metric a traced run compares with its untraced twin
#: to report the tracing overhead.
OVERHEAD_BASIS = {
    "cov-stream": "cov_p50_ms",
    "read-mix": "read_p50_ms",
    "dexter-pipeline": "solve_s",
}


def end_to_end(run):
    """Every end-to-end metric of ``run`` plus the tail details."""
    cov_tail = measure.tail_record(run.cov_latency)
    read_tail = measure.tail_record(run.read_latency)
    metrics = {
        "setup_s": statistics.median(run.setup_s),
        "fit_s": statistics.mean(run.fit_s),
        "solve_s": statistics.mean(run.phase_s),
        "cov_p50_ms": 1e3 * measure.p50(run.cov_latency),
        "cov_tail_ms": 1e3 * cov_tail["value"],
        "read_p50_ms": 1e3 * measure.p50(run.read_latency),
        "read_tail_ms": 1e3 * read_tail["value"],
        "write_p50_ms": 1e3 * measure.p50(run.write_latency),
        "throughput_rps": run.phase_completed / sum(run.phase_s),
        "f1": measure.f1_score(run.truth, run.predictions),
        "labels_spent": statistics.mean(run.labels_spent),
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    tails = {
        "cov_tail_ms": {**cov_tail, "value": metrics["cov_tail_ms"]},
        "read_tail_ms": {**read_tail, "value": metrics["read_tail_ms"]},
    }
    return metrics, tails


def checks(run, metrics, workload):
    """The run's output checks, by name."""
    result = dict(run.checks)
    result["f1_floor"] = metrics["f1"] >= F1_FLOOR[workload]
    result["answered"] = run.completed + run.failed == run.attempted
    return result


def record_of(run, workload):
    """Metrics, checks and detail of one workload run."""
    metrics, tails = end_to_end(run)
    verdicts = checks(run, metrics, workload)
    return {
        "metrics": metrics,
        "tails": tails,
        "checks": verdicts,
        "correct": all(verdicts.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "decisions_hash": measure.decisions_hash(run.decisions),
        "decisions": {
            "retrain": sum(bool(d[1]) for d in run.decisions),
            "new_model": sum(bool(d[2]) for d in run.decisions),
            "total": len(run.decisions),
        },
        "latency_ms": {
            name: [round(1e3 * v, 3) for v in values]
            for name, values in (
                ("cov", run.cov_latency), ("write", run.write_latency),
                ("read", run.read_latency),
            )
        },
        "setup_s_each": run.setup_s,
        "fit_s_each": run.fit_s,
        "solve_s_each": run.phase_s,
        **run.detail,
    }


def _without_samples(record):
    """``record`` minus the raw latency lists, for the detail line."""
    return {
        key: _without_samples(value) if isinstance(value, dict) else value
        for key, value in record.items() if key != "latency_ms"
    }


def traced_record(workload, args, untraced):
    """Run ``workload`` again with every layer wrapped; returns the
    per-layer metrics and the combined record of both runs."""
    tracer = layers.install(Tracer())
    try:
        run = workload(args.seed, args.seconds, tracer=tracer)
    finally:
        tracer.restore()
    traced = record_of(run, args.workload)
    per_layer = layers.per_layer_metrics(tracer, run)
    basis = OVERHEAD_BASIS[args.workload]
    before, after = untraced["metrics"][basis], traced["metrics"][basis]
    per_layer["trace.overhead_pct"] = 100.0 * (after - before) / before
    absent = dict(tracer.absent)
    if not run.graph_edges:
        absent["graph.edges"] = "ERProblemGraph.graph.number_of_edges"
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json",
              "w") as handle:
        json.dump(tracer.to_json(), handle)
    return per_layer, {
        "untraced": untraced,
        "traced": traced,
        "correct": untraced["correct"] and traced["correct"],
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "overhead": {
            "basis": basis, "untraced": before, "traced": after,
            "by_metric": {
                name: traced["metrics"][name] - value
                for name, value in untraced["metrics"].items()
            },
        },
        "decisions_identical": (
            untraced["decisions_hash"] == traced["decisions_hash"]
        ),
        "per_layer": per_layer,
        "absent_layers": absent,
        "spans": len(tracer.spans),
    }


def _stem(workload, seed, trace, hash_seed):
    stem = f"{workload}-seed{seed}-trace{trace}"
    return stem if hash_seed == HASH_SEED else f"{stem}-hash{hash_seed}"


def hash_seed_probe(args, untraced):
    """Run one dexter-pipeline unit in a child process under
    :data:`PROBE_HASH_SEED` and compare its decisions with this run's
    first unit. Detail only: a mismatch is the known defect described
    at :data:`HASH_SEED`, not a failed run."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(DEXTER_UNIT_SECONDS),
        "--trace", "0", "--hash-seed", str(PROBE_HASH_SEED),
    ]
    probe = {"hash_seed": PROBE_HASH_SEED}
    try:
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        path = OUT_DIR / (
            _stem(args.workload, args.seed, 0, PROBE_HASH_SEED) + ".json"
        )
        with open(path) as handle:
            theirs = json.load(handle)["unit_decisions_hash"][0]
    except (OSError, subprocess.SubprocessError, KeyError) as exc:
        probe["error"] = repr(exc)
        return probe
    ours = untraced["unit_decisions_hash"][0]
    probe.update(unit_decisions_hash=theirs, same_decisions=ours == theirs)
    return probe


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hash-seed", type=int, default=HASH_SEED,
                        help="string-hash seed to run under (see HASH_SEED)")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != str(args.hash_seed):
        os.environ["PYTHONHASHSEED"] = str(args.hash_seed)
        rest = sys.argv[1:] if argv is None else list(argv)
        os.execv(sys.executable, [sys.executable, __file__, *rest])

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    calibration = {"start": measure.calibration_ms()}
    record = record_of(workload(args.seed, args.seconds), args.workload)
    untraced = record
    if args.trace:
        values, record = traced_record(workload, args, record)
        units = layers.PER_LAYER_UNITS
    else:
        values, units = record["metrics"], END_TO_END_UNITS
    calibration["end"] = measure.calibration_ms()
    if (args.trace and args.workload == "dexter-pipeline"
            and args.hash_seed == HASH_SEED):
        record["hash_seed_probe"] = hash_seed_probe(args, untraced)
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, hash_seed=args.hash_seed,
        machine=measure.machine(calibration),
    )
    stem = _stem(args.workload, args.seed, args.trace, args.hash_seed)
    with open(OUT_DIR / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:>14.6g} {unit}")
    print(json.dumps(_without_samples(record), default=str))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
