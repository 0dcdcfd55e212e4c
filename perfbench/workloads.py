"""The three workloads. Each builds its inputs from the seed before any
timing starts, drives the program only through its public entry points,
and returns a :class:`Run` of raw measurements.

* ``cov-stream`` — open loop on the write path: one generator thread
  submits labelled ``cov`` probes to an in-process ``MoRERService``
  with a WAL at ``fsync_policy="always"``, on a seeded Poisson schedule
  at one fixed rate (the arrival times of a Poisson process conditioned
  on its count). It exercises sel_cov integration end to end: graph
  edge pass, warm journal replay, the periodic full recluster every 50
  inserts (which sets the tail), WAL fsync and scheduler coalescing. It
  does no repository search while the stream runs; after it has drained,
  each probe is read back once with ``base``, only so that the read
  metrics, which every workload must print, have a value here. The
  reads are paced over a few seconds so that one slow spell of the
  host does not set their median.
* ``read-mix`` — closed loop through the HTTP gateway: ``CLIENTS``
  ``ServiceClient`` connections each run a fixed seeded sequence of 90%
  ``base`` reads and 10% ``cov`` writes. A fixed count, not a fixed
  duration, so the number of writes does not follow speed.
* ``dexter-pipeline`` — batch, one thread, no service: the paper's
  MoRER run (bootstrap AL, ``b_total=1000``, random forest) on the
  synthetic Dexter corpus, then ``cov`` over every unsolved problem.
  The only workload where AL selection, training and retrains dominate.

Every workload runs in segments, each on a freshly set-up repository,
so set-up is measured several times per run. On the service workloads
no segment inserts enough probes into one cluster to push its Eq. 13
coverage past ``t_cov``: a retrain there (a bootstrap AL run over the
whole cluster) would cost far more than the stream it interrupts, and
the retrain path has its own workload.
"""

from __future__ import annotations

import concurrent.futures
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from layers import wrap_gateway
from measure import decisions_hash

from repro import MoRER
from repro.core import ERProblem
from repro.datasets import load_benchmark
from repro.service import (
    AccessLog,
    MoRERService,
    ServiceClient,
    ServiceError,
    ServiceHTTPServer,
    SolveRequest,
)

clock = time.perf_counter

#: Where runs write their WAL segments, stores and result files.
OUT_DIR = Path(__file__).resolve().parent / "out"

N_FEATURES = 4
N_REGIMES = 5
CLIENTS = 2
#: Record pairs of each initial problem and of each probe. Probes are
#: half-size so that a segment's probes keep every cluster's Eq. 13
#: coverage near 10%, far from ``t_cov``.
INITIAL_PAIRS = 40
PROBE_PAIRS = 20

#: cov-stream's offered rate, in probes per second. Measured with
#: ``capacity.py`` (160 probes per rate) on a 2-vCPU VM whose
#: calibration loop read 20-27 ms: the median latency of a stream's
#: second half stayed within 1.1x of its first half up to 16/s, read
#: 0.9-1.7x at 24/s and 2.3-5x at 32/s (a growing backlog), and a
#: burst drained at 54-60/s with full batches. 12/s is half the highest
#: rate with a flat backlog, and leaves room for the host's speed to
#: swing: at 16/s, runs during which the calibration loop read 25-31 ms
#: had a median latency 30-80% above runs that read 18-24 ms.
COV_RATE = 12.0
#: The last ``cov`` answer of a segment must arrive within this many
#: seconds of the last due time: about five of the longest full
#: reclusters seen at this size.
DRAIN_LIMIT_S = 5.0
#: How long the generator waits for any one answer before counting the
#: request as failed.
ANSWER_TIMEOUT_S = 120.0
#: Seconds over which cov-stream spreads each segment's read-back. The
#: reads are paced by busy-waiting: after a sleep each read paid a cold
#: start whose cost followed the host's noise (over ten repeats on a
#: 2-vCPU VM the read tail spread 0.41-0.49 between quartiles, against
#: 0.15 busy-waiting).
READ_BACK_WINDOW_S = 3.0
#: read-mix's share of ``cov`` writes in each client's sequence.
WRITE_SHARE = 0.1
#: Run seconds per dexter-pipeline unit (one load, fit and pass).
DEXTER_UNIT_SECONDS = 15.0


@dataclass
class Run:
    """Raw measurements of one workload run (times in seconds)."""

    setup_s: list = field(default_factory=list)
    fit_s: list = field(default_factory=list)
    #: Measured-phase time of each segment or pass.
    phase_s: list = field(default_factory=list)
    cov_latency: list = field(default_factory=list)
    write_latency: list = field(default_factory=list)
    read_latency: list = field(default_factory=list)
    completed: int = 0
    #: Requests answered inside the measured phases (for throughput).
    phase_completed: int = 0
    attempted: int = 0
    failed: int = 0
    labels_spent: list = field(default_factory=list)
    truth: list = field(default_factory=list)
    predictions: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    # Inputs for the per-layer numbers of a traced run.
    windows: list = field(default_factory=list)
    submitted: dict = field(default_factory=dict)
    cov_intervals: list = field(default_factory=list)
    client_latency: dict = field(default_factory=dict)
    #: Gateway request id -> problem key of each ``cov`` write.
    request_keys: dict = field(default_factory=dict)
    graph_edges: int = 0
    wal_bytes: int = 0

    def served(self, problem, predictions):
        """Record one served answer for the F1 and shape checks."""
        predictions = np.asarray(predictions)
        self.truth.append(problem.labels)
        self.predictions.append(predictions)
        self.check("prediction_shapes", predictions.shape == (problem.n_pairs,))

    def check(self, name, ok):
        """AND ``ok`` into check ``name``."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)


def synthetic_problem(rng, source_a, source_b, regime, n_pairs):
    """Labelled synthetic ER problem in one of ``N_REGIMES`` regimes:
    matches near 0.82, non-matches near 0.2, drawn closer together as
    the regime index grows."""
    shift = 0.35 * regime / (N_REGIMES - 1)
    n_matches = n_pairs // 2
    matches = np.clip(
        rng.normal(0.82 - shift, 0.07, (n_matches, N_FEATURES)), 0, 1
    )
    non_matches = np.clip(
        rng.normal(0.2 + shift, 0.08, (n_pairs - n_matches, N_FEATURES)),
        0, 1,
    )
    features = np.vstack([matches, non_matches])
    labels = np.concatenate([
        np.ones(n_matches, dtype=int),
        np.zeros(n_pairs - n_matches, dtype=int),
    ])
    order = rng.permutation(n_pairs)
    return ERProblem(source_a, source_b, features[order], labels[order])


def synthetic_problems(rng, n, prefix, n_pairs=INITIAL_PAIRS):
    """``n`` problems cycling through the regimes."""
    return [
        synthetic_problem(rng, f"{prefix}a{i}", f"{prefix}b{i}",
                          i % N_REGIMES, n_pairs)
        for i in range(n)
    ]


def fit_synthetic(initial):
    """Supervised logistic-regression repository over ``initial``;
    returns ``(morer, fit seconds)``."""
    morer = MoRER(
        selection="cov", model_generation="supervised",
        classifier="logistic_regression", random_state=0,
    )
    started = clock()
    morer.fit(initial)
    return morer, clock() - started


def graph_edges(morer):
    """Edge count of the ER problem graph, or 0 if the graph no longer
    exposes one (traced runs only: it reads below the public API)."""
    graph = getattr(morer.problem_graph, "graph", None)
    count = getattr(graph, "number_of_edges", None)
    return int(count()) if callable(count) else 0


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _fresh_dir(name):
    path = OUT_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- cov-stream ---------------------------------------------------------------

def cov_stream(seed, seconds, tracer=None, n_problems=400, rate=COV_RATE,
               segments=3):
    """Open-loop ``cov`` probes at ``rate`` per second for ``seconds``
    in total, split over ``segments`` freshly fitted repositories."""
    rng = np.random.default_rng(seed)
    length = seconds / segments
    n_probes = max(1, round(rate * length))
    plans = [
        (
            synthetic_problems(rng, n_problems, f"s{s}i"),
            synthetic_problems(rng, n_probes, f"s{s}p", PROBE_PAIRS),
            np.sort(rng.uniform(0.0, length, n_probes)),
        )
        for s in range(segments)
    ]
    run = Run()
    late = []
    drain = []
    for segment, (initial, probes, due) in enumerate(plans):
        wal_dir = _fresh_dir(f"wal-{segment}")
        started = clock()
        morer, fit_seconds = fit_synthetic(initial)
        service = MoRERService(morer, wal_dir=wal_dir, fsync_policy="always")
        run.setup_s.append(clock() - started)
        run.fit_s.append(fit_seconds)
        try:
            late.extend(_stream(service, probes, due, run, drain))
            _read_back(service, probes, run)
            stats = service.stats()
            run.labels_spent.append(stats.total_labels_spent)
            run.detail.setdefault("entries", []).append(stats.n_entries)
            if tracer is not None:
                run.graph_edges = max(run.graph_edges, graph_edges(morer))
        finally:
            service.close()
        run.wal_bytes += _dir_bytes(wal_dir)
        shutil.rmtree(wal_dir, ignore_errors=True)
    late_ms = 1e3 * np.asarray(late)
    run.detail["generator_late_ms"] = {
        "p50": float(np.median(late_ms)), "max": float(late_ms.max()),
    }
    run.detail["offered_rps"] = rate
    run.detail["drain_s"] = drain
    return run


def _stream(service, probes, due, run, drain):
    """Submit ``probes`` at their due offsets; returns send lateness and
    appends to ``drain`` how long after the last due time the last
    answer came."""
    n = len(probes)
    done = [None] * n
    futures = []
    late = []
    sends = []
    origin = clock() + 0.05
    for i, probe in enumerate(probes):
        target = origin + due[i]
        delay = target - clock()
        if delay > 0:
            time.sleep(delay)
        sent = clock()
        sends.append(sent)
        late.append(sent - target)
        run.submitted[probe.key] = sent
        run.attempted += 1
        future = service.submit(SolveRequest(problem=probe, strategy="cov"))
        future.add_done_callback(
            lambda _future, i=i: done.__setitem__(i, clock())
        )
        futures.append((future, target, sent))
    for i, (future, target, sent) in enumerate(futures):
        try:
            response = future.result(timeout=ANSWER_TIMEOUT_S)
        except (ServiceError, concurrent.futures.TimeoutError):
            run.failed += 1
            continue
        if done[i] is None:
            # The future wakes its waiters before it runs callbacks.
            done[i] = clock()
        run.completed += 1
        run.phase_completed += 1
        run.cov_latency.append(done[i] - target)
        run.write_latency.append(done[i] - sent)
        run.cov_intervals.append((target, done[i]))
        run.served(probes[i], response.predictions)
        run.decisions.append(
            (probes[i].key, response.retrained, response.new_model)
        )
    end = max((d for d in done if d is not None), default=origin)
    run.phase_s.append(end - origin)
    run.windows.append((origin, end))
    # An unanswered request leaves the lag unbounded.
    lag = end - (origin + due[-1]) if None not in done else float("inf")
    drain.append(lag)
    run.check("drained_in_time", lag <= DRAIN_LIMIT_S)
    # The schedule ends at due[-1]; sends that fell behind would stretch
    # it, so the achieved rate is the offered one only if they kept up.
    if n > 1:
        achieved = (n - 1) / max(sends[-1] - sends[0], 1e-9)
        offered = (n - 1) / max(due[-1] - due[0], 1e-9)
        run.check("rate_matches", abs(achieved / offered - 1.0) <= 0.05)
    return late


def _read_back(service, probes, run):
    """One ``base`` read of each (unlabelled) probe after the drain,
    evenly spaced over :data:`READ_BACK_WINDOW_S`."""
    started = clock()
    for k, probe in enumerate(probes):
        due = started + k * READ_BACK_WINDOW_S / len(probes)
        while clock() < due:
            pass
        run.attempted += 1
        t0 = clock()
        try:
            response = service.solve(
                SolveRequest(problem=probe.without_labels(), strategy="base")
            )
        except ServiceError:
            run.failed += 1
            continue
        run.read_latency.append(clock() - t0)
        run.completed += 1
        run.served(probe, response.predictions)
    # Left out of ``run.windows``: the pacing is idle time of the
    # benchmark's, not of any layer.
    run.detail.setdefault("read_back_s", []).append(clock() - started)


# -- read-mix -----------------------------------------------------------------

def read_mix(seed, seconds, tracer=None, n_problems=400,
             requests_per_second=100.0, segments=3):
    """``CLIENTS`` closed-loop HTTP clients, a fixed request count of
    ``requests_per_second * seconds`` split over ``segments``."""
    rng = np.random.default_rng(seed)
    total = round(requests_per_second * seconds)
    per_client = max(2, total // (segments * CLIENTS))
    n_writes = max(1, round(WRITE_SHARE * per_client))
    plans = []
    for s in range(segments):
        initial = synthetic_problems(rng, n_problems, f"s{s}i")
        sequences = []
        for c in range(CLIENTS):
            problems = synthetic_problems(
                rng, per_client, f"s{s}c{c}r", PROBE_PAIRS
            )
            writes = set(rng.choice(per_client, n_writes, replace=False))
            sequences.append([
                ("cov", p) if i in writes else ("base", p)
                for i, p in enumerate(problems)
            ])
        plans.append((initial, sequences))
    run = Run()
    for initial, sequences in plans:
        started = clock()
        morer, fit_seconds = fit_synthetic(initial)
        service = MoRERService(morer)
        server = ServiceHTTPServer(
            service, ("127.0.0.1", 0), access_log=AccessLog(level="off"),
        )
        serving = threading.Thread(target=server.serve_forever)
        serving.start()
        try:
            ServiceClient(server.url).wait_ready()
            run.setup_s.append(clock() - started)
            run.fit_s.append(fit_seconds)
            if tracer is not None:
                wrap_gateway(tracer, service)
            _closed_loop(server.url, sequences, run)
            run.labels_spent.append(service.stats().total_labels_spent)
            if tracer is not None:
                run.graph_edges = max(run.graph_edges, graph_edges(morer))
        finally:
            server.shutdown()
            server.server_close()
            serving.join()
            service.close()
    return run


def _closed_loop(url, sequences, run):
    barrier = threading.Barrier(len(sequences) + 1)
    results = [[] for _ in sequences]

    def client(index):
        connection = ServiceClient(url, retries=0, client_id=f"c{index}")
        barrier.wait()
        for strategy, problem in sequences[index]:
            sent = problem if strategy == "cov" else problem.without_labels()
            t0 = clock()
            try:
                response = connection.solve(
                    SolveRequest(problem=sent, strategy=strategy)
                )
            except ServiceError:
                response = None
            results[index].append((strategy, problem, t0, clock(), response))

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(len(sequences))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    origin = clock()
    for thread in threads:
        thread.join()
    end = clock()
    run.phase_s.append(end - origin)
    run.windows.append((origin, end))
    # Counted from the plan, so a client thread that died early shows
    # up as unanswered requests.
    run.attempted += sum(len(sequence) for sequence in sequences)
    for outcomes in results:
        for strategy, problem, t0, t1, response in outcomes:
            if response is None:
                run.failed += 1
                continue
            run.completed += 1
            run.phase_completed += 1
            run.client_latency[problem.source_a] = t1 - t0
            run.served(problem, response.predictions)
            if strategy == "cov":
                run.cov_latency.append(t1 - t0)
                run.write_latency.append(t1 - t0)
                run.cov_intervals.append((t0, t1))
                run.request_keys[problem.source_a] = problem.key
                run.decisions.append(
                    (problem.key, response.retrained, response.new_model)
                )
            else:
                run.read_latency.append(t1 - t0)


# -- dexter-pipeline ------------------------------------------------------------

def dexter_pipeline(seed, seconds, tracer=None, scale=1.0, b_total=1000,
                    unit_seconds=DEXTER_UNIT_SECONDS):
    """``round(seconds / unit_seconds)`` identical units, each: load the
    Dexter corpus and fit MoRER on its initial problems (the set-up),
    then serve every unsolved problem with ``cov`` in corpus order, and
    after each ``cov`` solve read back with ``base`` one problem the
    unit already served, drawn by the seed.

    The ``cov`` stream keeps the paper run's fixed order because the
    order decides where the retrains fall: with two seeded orders per
    run, ten seeds spread ``labels_spent`` by 24% and ``solve_s`` by 28%
    (distance between quartiles over the median), more than the bounds
    in ``BENCHMARK.json`` allow.
    """
    rng = np.random.default_rng(seed)
    run = Run()
    for unit in range(max(1, round(seconds / unit_seconds))):
        started = clock()
        _, _, split = load_benchmark("dexter", scale=scale, random_state=0)
        reads = [
            int(rng.integers(0, k + 1)) for k in range(len(split.unsolved))
        ]
        morer = MoRER(
            model_generation="al", al_method="bootstrap", b_total=b_total,
            classifier="random_forest", selection="cov", random_state=0,
        )
        if tracer is not None:
            tracer.set_trace(f"fit{unit}")
        fit_started = clock()
        morer.fit(split.initial)
        run.fit_s.append(clock() - fit_started)
        run.setup_s.append(clock() - started)
        _dexter_pass(morer, split.unsolved, reads, unit, run, tracer)
    return run


def _dexter_pass(morer, problems, reads, unit, run, tracer):
    origin = clock()
    busy = 0.0
    decisions = []
    for k, problem in enumerate(problems):
        if tracer is not None:
            tracer.set_trace(f"u{unit}-p{k}")
        run.attempted += 1
        t0 = clock()
        try:
            result = morer.solve(problem)
        except ValueError:
            run.failed += 1
            continue
        t1 = clock()
        busy += t1 - t0
        run.completed += 1
        run.phase_completed += 1
        run.cov_latency.append(t1 - t0)
        run.write_latency.append(t1 - t0)
        run.cov_intervals.append((t0, t1))
        run.served(problem, result.predictions)
        decisions.append((problem.key, result.retrained, result.new_model))
        run.decisions.append(((unit,) + decisions[-1][0],) + decisions[-1][1:])
        read = problems[reads[k]]
        if tracer is not None:
            tracer.set_trace(f"u{unit}-r{k}")
        run.attempted += 1
        t0 = clock()
        try:
            result = morer.solve(read.without_labels(), strategy="base")
        except ValueError:
            run.failed += 1
            continue
        run.read_latency.append(clock() - t0)
        run.completed += 1
        run.served(read, result.predictions)
    run.phase_s.append(busy)
    run.detail.setdefault("unit_decisions_hash", []).append(
        decisions_hash(decisions)
    )
    run.labels_spent.append(morer.total_labels_spent())
    run.windows.append((origin, clock()))
    if tracer is not None:
        run.graph_edges = max(run.graph_edges, graph_edges(morer))


WORKLOADS = {
    "cov-stream": cov_stream,
    "read-mix": read_mix,
    "dexter-pipeline": dexter_pipeline,
}
