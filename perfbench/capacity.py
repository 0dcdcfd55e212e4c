"""Find the ``cov`` rate the service sustains, to size cov-stream.

For each rate, a fresh repository of cov-stream's size takes a fixed
number of probes on a seeded Poisson schedule (``COV_RATE`` in
``workloads.py`` is set to about half the sustained rate). A rate is
sustained while the median latency of the stream's second half stays
near that of its first half; a growing backlog shows as a rising
ratio. A rate of ``inf`` sends every probe at once and measures the
drain rate with full batches. Usage, from the root of a checkout::

    python3 perfbench/capacity.py 8 16 24 32 inf
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import workloads as w  # noqa: E402
from measure import calibration_ms  # noqa: E402

from repro.service import MoRERService  # noqa: E402


def probe_rate(rate, n_probes, seed, n_problems=400):
    """One stream of ``n_probes`` at ``rate``; returns its summary."""
    rng = np.random.default_rng(seed)
    initial = w.synthetic_problems(rng, n_problems, "i")
    probes = w.synthetic_problems(rng, n_probes, "p", w.PROBE_PAIRS)
    length = n_probes / rate if np.isfinite(rate) else 0.0
    due = np.sort(rng.uniform(0.0, length, n_probes))
    morer, _ = w.fit_synthetic(initial)
    wal_dir = w._fresh_dir("capacity")
    service = MoRERService(morer, wal_dir=wal_dir, fsync_policy="always")
    run, drain = w.Run(), []
    try:
        w._stream(service, probes, due, run, drain)
    finally:
        service.close()
        shutil.rmtree(wal_dir, ignore_errors=True)
    latency = np.asarray(run.cov_latency)
    half = len(latency) // 2
    return {
        "rate": rate,
        "completed_per_s": run.completed / run.phase_s[-1],
        "drain_s": drain[-1],
        "p50_ms": 1e3 * float(np.median(latency)),
        "second_half_over_first": float(
            np.median(latency[half:]) / np.median(latency[:half])
        ),
        "failed": run.failed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rates", nargs="+", type=float)
    parser.add_argument("--probes", type=int, default=160)
    parser.add_argument("--seed", type=int, default=77)
    args = parser.parse_args(argv)
    print(f"calibration_ms {calibration_ms():.1f}")
    for rate in args.rates:
        result = probe_rate(rate, args.probes, args.seed)
        print(" ".join(
            f"{key} {value:.3g}" if isinstance(value, float)
            else f"{key} {value}" for key, value in result.items()
        ), flush=True)
    print(f"calibration_ms {calibration_ms():.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
