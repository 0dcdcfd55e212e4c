"""Which public calls are wrapped for each layer, and the per-layer
metrics computed from the recorded spans.

Span names are ``<layer>.<what>``. The layer prefixes follow the
repository's modules: ``gateway`` (``service.http``), ``service``
(scheduler and read/write lock), ``wal`` (``durability``), ``graph``
(``core.graph``), ``kernel`` (``core.distribution``), ``cluster``
(``graphcluster`` and ``core.partition_state``), ``repo``
(``core.repository``), ``al`` (``baselines.bootstrap`` and
``core.budget``) and ``ml``.
"""

from __future__ import annotations

import itertools

import numpy as np

from measure import p50, tail
from spans import covered_seconds, self_times

LAYERS = (
    "gateway", "service", "wal", "graph", "kernel", "cluster", "repo",
    "al", "ml",
)

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER_UNITS = {
    "graph.build_s": "s",
    "graph.add_s": "s",
    "graph.add_calls": "count",
    "graph.problems_added": "count",
    "graph.edges": "count",
    "kernel.matrix_s": "s",
    "kernel.many_s": "s",
    "kernel.pair_s": "s",
    "cluster.full_calls": "count",
    "cluster.full_s": "s",
    "cluster.warm_calls": "count",
    "cluster.warm_s": "s",
    "cluster.warm_accept_ratio": "ratio",
    "cluster.full_tail_share": "ratio",
    "repo.search_calls": "count",
    "repo.search_s": "s",
    "al.select_calls": "count",
    "al.select_s": "s",
    "al.labels_queried": "count",
    "al.budget_s": "s",
    "ml.fit_calls": "count",
    "ml.fit_s": "s",
    "ml.predict_s": "s",
    "service.queue_wait_ms": "ms",
    "service.queue_wait_tail_ms": "ms",
    "service.ticks": "count",
    "service.tick_s": "s",
    "service.batch_size": "count",
    "service.batch_size_max": "count",
    "service.read_lock_wait_ms": "ms",
    "service.read_lock_wait_tail_ms": "ms",
    "wal.append_calls": "count",
    "wal.append_ms": "ms",
    "wal.bytes": "bytes",
    "gateway.overhead_ms": "ms",
    "trace.covered_share": "ratio",
    "trace.overhead_pct": "%",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
}


def install(tracer):
    """Wrap every layer's public entry points; returns ``tracer``.

    A target the program no longer has is recorded in
    ``tracer.absent`` and its layer reads as zero.
    """
    from repro.baselines.bootstrap import BootstrapActiveLearner
    from repro.core import morer as morer_module
    from repro.core.distribution import KolmogorovSmirnovTest
    from repro.core.graph import ERProblemGraph
    from repro.core.morer import MoRER
    from repro.core.partition_state import PartitionState
    from repro.core.repository import ModelRepository
    from repro.durability.wal import WriteAheadLog
    from repro.ml.forest import RandomForestClassifier
    from repro.ml.linear import LogisticRegression
    from repro.service.rwlock import ReadWriteLock

    ticks = itertools.count(1)
    wrap = tracer.wrap
    wrap(ReadWriteLock, "acquire_read", "service.read_lock_wait")
    wrap(ReadWriteLock, "acquire_write", "service.write_lock_wait",
         begins_trace=lambda args, kwargs: f"w{next(ticks)}")
    wrap(MoRER, "solve_batch", "service.tick",
         note=lambda args, kwargs, result: tuple(p.key for p in args[1]))
    wrap(WriteAheadLog, "append", "wal.append")
    wrap(ERProblemGraph, "build", "graph.build")
    wrap(ERProblemGraph, "add_problems", "graph.add",
         note=lambda args, kwargs, result: len(args[1]))
    wrap(ERProblemGraph, "add_problem", "graph.add",
         note=lambda args, kwargs, result: 1)
    wrap(KolmogorovSmirnovTest, "signature_similarity_matrix",
         "kernel.matrix")
    wrap(KolmogorovSmirnovTest, "signature_similarity_many", "kernel.many")
    wrap(KolmogorovSmirnovTest, "signature_similarity", "kernel.pair")
    wrap(ERProblemGraph, "cluster", "cluster.full")
    wrap(PartitionState, "from_full_run", "cluster.full_state")
    wrap(PartitionState, "replay", "cluster.replay")
    wrap(PartitionState, "accept", "cluster.accept")
    wrap(ModelRepository, "search", "repo.search")
    wrap(BootstrapActiveLearner, "select", "al.select",
         note=lambda args, kwargs, result: (
             0 if result is None else len(result[0])
         ))
    wrap(morer_module, "distribute_budget", "al.budget")
    for estimator in (LogisticRegression, RandomForestClassifier):
        wrap(estimator, "fit", "ml.fit")
        wrap(estimator, "predict", "ml.predict")
    return tracer


def wrap_gateway(tracer, service):
    """Time the gateway's call into ``service``; the trace id is the
    request's problem ``source_a``, which the workload keeps unique."""
    def request_id(args, kwargs):
        payload = args[0] if args else None
        if isinstance(payload, dict):
            return (payload.get("problem") or {}).get("source_a")
        return None

    tracer.wrap(service, "solve", "gateway.call", begins_trace=request_id,
                note=lambda args, kwargs, result: request_id(args, kwargs))


def _seconds(spans):
    return float(sum(span.end - span.start for span in spans))


def _outermost(spans, prefix, by_id):
    """Spans whose parent is not itself a ``prefix`` span (so nested
    calls into one layer are counted once)."""
    return [
        span for span in spans
        if span.parent is None
        or not by_id[span.parent].name.startswith(prefix)
    ]


def per_layer_metrics(tracer, run):
    """Per-layer numbers from ``tracer.spans`` and the traced
    :class:`~workloads.Run`. Layers with no spans read as zero.

    A ``cov`` request's queue wait runs from when it entered the service
    (``run.submitted``, or the gateway's call into the service for a
    request in ``run.request_keys``) to when the scheduler asked for
    the write lock for the tick that served it.
    """
    spans = tracer.spans
    by_id = {span.id: span for span in spans}
    named = {}
    for span in spans:
        named.setdefault(span.name, []).append(span)

    def get(name):
        return named.get(name, [])

    metrics = {}
    adds = _outermost(get("graph.add"), "graph.", by_id)
    metrics["graph.build_s"] = _seconds(get("graph.build"))
    metrics["graph.add_s"] = _seconds(adds)
    metrics["graph.add_calls"] = len(adds)
    metrics["graph.problems_added"] = int(sum(s.note for s in adds))
    metrics["graph.edges"] = int(run.graph_edges)
    for kind in ("matrix", "many", "pair"):
        metrics[f"kernel.{kind}_s"] = _seconds(
            _outermost(get(f"kernel.{kind}"), "kernel.", by_id)
        )

    full = get("cluster.full")
    replays = get("cluster.replay")
    accepts = get("cluster.accept")
    metrics["cluster.full_calls"] = len(full)
    metrics["cluster.full_s"] = _seconds(full) + _seconds(
        get("cluster.full_state")
    )
    metrics["cluster.warm_calls"] = len(replays)
    metrics["cluster.warm_s"] = _seconds(replays) + _seconds(accepts)
    metrics["cluster.warm_accept_ratio"] = (
        len(accepts) / len(replays) if replays else 0.0
    )
    metrics["cluster.full_tail_share"] = full_tail_share(
        run.cov_intervals, full
    )

    searches = get("repo.search")
    metrics["repo.search_calls"] = len(searches)
    metrics["repo.search_s"] = _seconds(searches)
    selects = get("al.select")
    metrics["al.select_calls"] = len(selects)
    metrics["al.select_s"] = _seconds(selects)
    metrics["al.labels_queried"] = int(sum(s.note or 0 for s in selects))
    metrics["al.budget_s"] = _seconds(get("al.budget"))
    fits = _outermost(get("ml.fit"), "ml.", by_id)
    metrics["ml.fit_calls"] = len(fits)
    metrics["ml.fit_s"] = _seconds(fits)
    metrics["ml.predict_s"] = _seconds(
        _outermost(get("ml.predict"), "ml.", by_id)
    )

    calls = get("gateway.call")
    writes = [span for span in calls if span.note in run.request_keys]
    submitted = dict(run.submitted)
    submitted.update(
        (run.request_keys[span.note], span.start) for span in writes
    )
    metrics.update(_service_metrics(get, submitted))
    appends = get("wal.append")
    metrics["wal.append_calls"] = len(appends)
    metrics["wal.append_ms"] = (
        1e3 * _seconds(appends) / len(appends) if appends else 0.0
    )
    metrics["wal.bytes"] = int(run.wal_bytes)
    metrics["gateway.overhead_ms"] = _p50_ms([
        run.client_latency[span.note] - (span.end - span.start)
        for span in calls if span.note in run.client_latency
    ])

    wall = sum(end - start for start, end in run.windows)
    metrics["trace.covered_share"] = sum(
        covered_seconds(spans, start, end) for start, end in run.windows
    ) / wall
    own = self_times(spans)
    # A gateway call for a ``cov`` write blocks on the scheduler's tick,
    # which the service spans already cover: only reads count as
    # gateway self time.
    blocked = {span.id for span in writes}
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = float(sum(
            own[span.id] for span in spans
            if span.name.split(".", 1)[0] == layer and span.id not in blocked
        ))
    return metrics


def _p50_ms(values):
    return 1e3 * p50(values) if values else 0.0


def _tail_ms(values):
    return 1e3 * tail(values)[0] if values else 0.0


def _service_metrics(get, submitted):
    """Scheduler numbers: a tick is one ``solve_batch`` call; it was
    picked up when its thread asked for the write lock (the span that
    opened the tick's trace)."""
    pickup = {}
    for span in get("service.write_lock_wait"):
        pickup[(span.thread, span.trace)] = span.start
    waits = []
    sizes = []
    busy = 0.0
    ends = {}
    for name in ("service.tick", "wal.append"):
        for span in get(name):
            key = (span.thread, span.trace)
            ends[key] = max(ends.get(key, span.end), span.end)
    for span in get("service.tick"):
        key = (span.thread, span.trace)
        started = pickup.get(key, span.start)
        sizes.append(len(span.note))
        busy += ends[key] - started
        waits.extend(
            started - submitted[problem_key]
            for problem_key in span.note if problem_key in submitted
        )
    read_waits = [s.end - s.start for s in get("service.read_lock_wait")]
    return {
        "service.queue_wait_ms": _p50_ms(waits),
        "service.queue_wait_tail_ms": _tail_ms(waits),
        "service.ticks": len(sizes),
        "service.tick_s": busy,
        "service.batch_size": float(np.mean(sizes)) if sizes else 0.0,
        "service.batch_size_max": max(sizes, default=0),
        "service.read_lock_wait_ms": _p50_ms(read_waits),
        "service.read_lock_wait_tail_ms": _tail_ms(read_waits),
    }


def full_tail_share(intervals, full_spans):
    """Share of the latency above the median that requests overlapping
    a full recluster carry: near 1 when full reclusters make the tail."""
    if not intervals:
        return 0.0
    median = p50([end - start for start, end in intervals])
    excess = hit = 0.0
    for start, end in intervals:
        extra = end - start - median
        if extra <= 0:
            continue
        excess += extra
        if any(s.start < end and s.end > start for s in full_spans):
            hit += extra
    return hit / excess if excess > 0 else 0.0
