"""Summary statistics, correctness scores and the machine record."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import time

import numpy as np

#: Percentiles tried for a tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a percentile for it to count as the tail.
TAIL_MIN_BEYOND = 10


def p50(values):
    """Median of ``values`` (``nan`` when empty)."""
    return float(np.median(values)) if len(values) else float("nan")


def tail(values):
    """The highest percentile of ``values`` with at least
    :data:`TAIL_MIN_BEYOND` samples above it.

    Returns ``(value, percentile, samples, beyond)``. With fewer than
    ten samples above even the median, the median is returned and
    ``beyond`` says how thin it is.
    """
    values = np.asarray(values, dtype=float)
    for percentile in TAIL_LADDER:
        value = float(np.percentile(values, percentile))
        beyond = int(np.sum(values > value))
        if beyond >= TAIL_MIN_BEYOND:
            break
    return value, percentile, int(values.size), beyond


def tail_record(values):
    """:func:`tail` as a dict for the run's detail record."""
    value, percentile, samples, beyond = tail(values)
    return {
        "value": value, "percentile": percentile,
        "samples": samples, "beyond": beyond,
    }


def f1_score(truth, predictions):
    """F1 of pooled 0/1 ``predictions`` against ``truth``."""
    truth = np.concatenate([np.asarray(t, dtype=int) for t in truth])
    predictions = np.concatenate(
        [np.asarray(p, dtype=int) for p in predictions]
    )
    tp = int(np.sum((truth == 1) & (predictions == 1)))
    fp = int(np.sum((truth == 0) & (predictions == 1)))
    fn = int(np.sum((truth == 1) & (predictions == 0)))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def decisions_hash(decisions):
    """Order-free digest of ``(key, retrained, new_model)`` triples."""
    digest = hashlib.sha256()
    for key, retrained, new_model in sorted(decisions):
        digest.update(f"{key}|{int(retrained)}|{int(new_model)}\n".encode())
    return digest.hexdigest()[:16]


def peak_rss_mb():
    """Peak resident set size of this process so far, in MiB (Linux
    reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_ms(repeats=5):
    """Median time of a fixed pure-Python loop, in ms: the host's speed
    at the moment, so a slow host can be told apart from a slow
    program."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(time.perf_counter() - started)
    return 1e3 * statistics.median(times)


def machine(calibration):
    """What the numbers were measured on; ``calibration`` holds
    :func:`calibration_ms` readings taken during the run."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "calibration_ms": calibration,
    }
