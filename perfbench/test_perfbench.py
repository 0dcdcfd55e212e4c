"""Tests of the benchmark itself: span arithmetic, the tracer's
wrapping, tail selection, and a reduced-size run of each workload.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import concurrent.futures
import json

import layers
import measure
import numpy as np
import pytest
import run as bench
import workloads
from spans import Span, Tracer, covered_seconds, self_times, union_length


def _span(span_id, start, end, parent=None, name="x.y"):
    return Span(span_id, name, start, end, parent, None, 0, None)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),   # overlaps span 2
        _span(4, 8.0, 9.0, parent=1),
        _span(5, 2.0, 3.0, parent=2),
        _span(6, 8.5, 9.5, parent=4),   # runs past its parent's end
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0 - 0.5)
    assert own[5] == pytest.approx(1.0)
    assert own[6] == pytest.approx(1.0)
    assert covered_seconds(spans, 0.0, 20.0) == pytest.approx(10.0)
    assert covered_seconds(spans, 5.0, 12.0) == pytest.approx(5.0)
    assert union_length([]) == 0.0


class _Toy:
    def outer(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        return value * 2

    @classmethod
    def make(cls):
        return cls()


def test_tracer_nests_spans_and_restores_originals():
    originals = {name: _Toy.__dict__[name] for name in ("outer", "inner", "make")}
    tracer = Tracer()
    assert tracer.wrap(_Toy, "outer", "toy.outer",
                       begins_trace=lambda args, kwargs: f"t{args[1]}")
    assert tracer.wrap(_Toy, "inner", "toy.inner",
                       note=lambda args, kwargs, result: result)
    assert tracer.wrap(_Toy, "make", "toy.make")
    assert not tracer.wrap(_Toy, "missing", "toy.missing")
    try:
        assert _Toy.make().outer(3) == 7
    finally:
        tracer.restore()
    assert {name: _Toy.__dict__[name] for name in originals} == originals
    assert tracer.absent == {"toy.missing": f"{__name__}._Toy.missing"}
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["toy.inner"].parent == by_name["toy.outer"].id
    assert by_name["toy.inner"].trace == "t3"
    assert by_name["toy.inner"].note == 6
    assert by_name["toy.make"].parent is None
    json.dumps(tracer.to_json())


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, percentile, samples, beyond = measure.tail(np.arange(100.0))
    assert (percentile, samples, beyond) == (90.0, 100, 10)
    assert value == pytest.approx(89.1)
    assert measure.tail(np.arange(1000.0))[1] == 99.0
    # Too few samples for any tail: the median, flagged by ``beyond``.
    assert measure.tail(np.arange(5.0))[1:] == (50.0, 5, 2)


def _assert_complete(run, workload):
    record = bench.record_of(run, workload)
    assert run.failed == 0 and run.attempted > 0
    assert all(run.checks.values()), run.checks
    assert set(record["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(np.isfinite(v) and v > 0 for v in record["metrics"].values())
    return record


def _traced(workload, **kwargs):
    tracer = layers.install(Tracer())
    try:
        run = workloads.WORKLOADS[workload](tracer=tracer, **kwargs)
    finally:
        tracer.restore()
    from repro.core.graph import ERProblemGraph

    assert not hasattr(ERProblemGraph.cluster, "__wrapped__")
    assert tracer.absent == {}
    metrics = layers.per_layer_metrics(tracer, run)
    metrics["trace.overhead_pct"] = 0.0
    assert set(metrics) == set(layers.PER_LAYER_UNITS)
    return run, metrics


def test_cov_stream_reduced(monkeypatch):
    monkeypatch.setattr(workloads, "READ_BACK_WINDOW_S", 0.1)
    kwargs = dict(seed=5, seconds=1.5, n_problems=30, rate=10.0, segments=1)
    _assert_complete(workloads.cov_stream(**kwargs), "cov-stream")
    run, metrics = _traced("cov-stream", **kwargs)
    assert metrics["service.ticks"] >= 1
    assert metrics["wal.append_calls"] >= metrics["service.ticks"]
    assert metrics["graph.problems_added"] == 15
    # Searches come only from the one read-back per probe after the drain.
    assert metrics["repo.search_calls"] == 15


class _SilentService:
    """Accepts every request and never answers it."""

    def submit(self, request):
        return concurrent.futures.Future()


def test_cov_stream_reports_unanswered_requests(monkeypatch):
    monkeypatch.setattr(workloads, "ANSWER_TIMEOUT_S", 0.01)
    rng = np.random.default_rng(0)
    probes = workloads.synthetic_problems(rng, 3, "p", workloads.PROBE_PAIRS)
    run, drain = workloads.Run(), []
    workloads._stream(_SilentService(), probes, np.array([0.0, 0.01, 0.02]),
                      run, drain)
    assert (run.attempted, run.failed, run.completed) == (3, 3, 0)
    assert drain == [float("inf")]
    assert run.checks["drained_in_time"] is False


def test_read_mix_reduced():
    kwargs = dict(seed=5, seconds=1.0, n_problems=30,
                  requests_per_second=40.0, segments=1)
    _assert_complete(workloads.read_mix(**kwargs), "read-mix")
    run, metrics = _traced("read-mix", **kwargs)
    assert metrics["repo.search_calls"] == len(run.read_latency)
    assert metrics["gateway.overhead_ms"] > 0
    assert metrics["wal.append_calls"] == 0


def test_dexter_pipeline_reduced():
    kwargs = dict(seed=5, seconds=1.0, scale=0.1, b_total=200,
                  unit_seconds=1.0)
    run, metrics = _traced("dexter-pipeline", **kwargs)
    _assert_complete(run, "dexter-pipeline")
    assert metrics["al.select_calls"] >= 1
    assert metrics["ml.fit_calls"] >= metrics["al.select_calls"]
    assert metrics["service.ticks"] == 0
