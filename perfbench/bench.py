"""One benchmark run: set up, measure for a fixed window, check, report.

``run()`` returns a :class:`Result`; ``run.py`` is the command-line
front that prints it.  With ``trace=False`` the result holds the
end-to-end metrics; with ``trace=True`` the per-layer metrics of a
separate traced run (see ``layers.py``).
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import shutil
import statistics
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import repro

from load import Client, Tally, correct, direct, run_clients
from reference import Reference, Shadow
from system import ENGINE, Server
from workloads import CLIENTS, ORDER, QUERY, Workload, op_stream, relations, to_csv

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 9
#: Cache kinds whose hit ratio the traced run reports.
CACHE_KINDS = ("access", "forest", "preprocessing", "decompositions")


class Phases(dict):
    """Wall seconds per phase of a run (printed, to keep the run budget
    visible)."""

    @contextlib.contextmanager
    def __call__(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self[name] = self.get(name, 0.0) + time.perf_counter() - started


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit)
    metrics: dict
    #: name -> sample count, for the timings that are percentiles
    samples: dict = field(default_factory=dict)
    failures: Counter = field(default_factory=Counter)
    host: dict = field(default_factory=dict)
    #: (db_version, op, answer) of the first few wrong answers
    mismatches: list = field(default_factory=list)
    phases: Phases = field(default_factory=Phases)
    #: name -> (value, unit): figures printed but not reported as metrics
    printed: dict = field(default_factory=dict)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool = False,
    hook=direct,
) -> Result:
    """Run ``workload`` on ``seed`` for ``seconds``; see the module doc."""
    phases = Phases()
    with phases("reference"):
        rels = relations(workload, seed)
        reference = Shadow(rels) if workload.mix == "write" else Reference(rels)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        result = _run(workload, seed, seconds, trace, hook, rels, reference, work, phases)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.phases = phases
    return result


def _host(**facts) -> dict:
    import numpy

    return dict(
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        **facts,
    )


def _check(reference):
    return lambda version, key, result: correct(reference, key, result)


def _clients(workload, seed, rels, conns, check, hook, tracer=None):
    clients = []
    for index, conn in enumerate(conns):
        client = Client(
            conn, op_stream(workload, seed, index, rels), check, hook, tracer
        )
        client.prepare()
        clients.append(client)
    return clients


def _first_answer(reference, view, tally: Tally) -> None:
    """The set-up's first answer is checked like any read."""
    tally.attempted += 1
    first = view[0]
    if tuple(first) != reference[0]:
        tally.wrong(view.db_version, ("access", 0), first)


# -- the run -------------------------------------------------------------


def _run(workload, seed, seconds, trace, hook, rels, reference, work, phases) -> Result:
    csvs = {}
    for name, rows in rels.items():
        csvs[name] = work / f"{name}.csv"
        csvs[name].write_bytes(to_csv(rows))
    durable = workload.mix == "write"
    tally = Tally()
    setups = []
    server = tracer = None
    conns = []
    try:
        with phases("setup"):
            for attempt in range(1 if trace else SETUPS):
                if server is not None:
                    server.stop(graceful=False)
                wal = work / f"wal-{attempt}.log" if durable else None
                server = Server(ROOT, csvs, wal)
                with repro.connect(server.url) as conn:
                    view = conn.prepare(QUERY, order=list(ORDER))
                    _first_answer(reference, view, tally)
                    setups.append(time.perf_counter() - server.launched)
            admin = repro.connect(server.url)
            conns.append(admin)
            health = admin.health()
            before = admin.stats()
            if trace:
                from layers import TracingHTTPConnection

                tracer, cold_s, materialized = _ladder(rels, work, durable)
                for _ in range(CLIENTS):
                    conn = TracingHTTPConnection(server.url)
                    conn.tracer = tracer
                    conns.append(conn)
            else:
                conns += [repro.connect(server.url) for _ in range(CLIENTS)]
            check = (lambda *_: None) if durable else _check(reference)
            clients = _clients(workload, seed, rels, conns[1:], check, hook, tracer)
        with phases("window"):
            window, window_s = run_clients(clients, seconds)
        tally.merge(window)
        after = admin.stats()
        rss_mb = server.peak_rss_mb()
    finally:
        with phases("teardown"):
            for conn in conns:
                conn.close()
            if server is not None:
                server.stop()
            if tracer is not None:
                tracer.ladder.close()
    if durable:
        with phases("verify"):
            _verify_versions(reference, tally)
    wal_stats = after["store"].get("wal", {})
    host = _host(
        engine=health["engine"],
        front=health["front"],
        mode=health["mode"],
        workers=health["workers"],
        wal_fsync_batch=wal_stats.get("fsync_batch", "no wal"),
    )
    if trace:
        extra = _counters(before, after, window, tracer.ladder)
        extra["core.preprocessing.materialized_rows"] = (materialized, "rows/row")
        extra["server.boot_s"] = (server.boot_s, "s")
        extra["session.prepare_cold_s"] = (cold_s, "s")
        return _traced(workload, tracer, tally, extra, host)
    return _timed(tally, window_s, setups, rss_mb, host)


def _ladder(rels, work, durable):
    """The in-process rungs: a ServingCore over the same relations and
    engine (with its own WAL when the served one has one), set-up rungs
    timed on the way."""
    from repro.server.http import ServingCore
    from layers import Ladder, Tracer, setup_rungs

    tracer = Tracer()
    materialized = setup_rungs(tracer, rels, ENGINE)
    core = ServingCore(
        repro.Database(rels), engine=ENGINE, wal=str(work / "ladder.wal") if durable else None
    )
    conn = repro.Connection(repro.AccessSession(store=core.store))
    started = time.perf_counter()
    conn.prepare(QUERY, order=list(ORDER))
    cold_s = time.perf_counter() - started
    wal = repro.WriteAheadLog(work / "rung.wal") if durable else None
    tracer.ladder = Ladder(conn, core, wal, rels if durable else None)
    return tracer, cold_s, materialized


def _verify_versions(shadow: Shadow, tally: Tally) -> None:
    """Replay the acknowledged writes in version order on the shadow
    and check every read at the version its view was pinned to.

    Every version from 1 up must have been minted by exactly one write
    that changed the shadow; the other writes acknowledged at a
    version changed nothing (the store answers a write that changes
    nothing with the head version, unbumped; after a refused write the
    op stream can send one).  Anything else means a write was lost,
    doubled or applied silently.  Clients write disjoint cells, so the
    writes acknowledged at one version replay correctly in each
    client's own order, which ``tally.writes`` keeps.
    """
    by_version = defaultdict(list)
    for version, kind, name, rows in tally.writes:
        by_version[version].append((kind, name, rows))
    last = max(by_version, default=0)
    trusted = 0  # the shadow holds the database at this version

    def replay_through(version: int) -> None:
        nonlocal trusted
        while trusted < min(version, last):
            changed = [shadow.apply(*write) for write in by_version[trusted + 1]]
            if sum(changed) != 1:
                raise _Untrusted
            trusted += 1

    reads = sorted(tally.deferred, key=lambda r: r[0])
    checked = 0
    try:
        if any(shadow.apply(*write) for write in by_version[0]):
            raise _Untrusted
        for version, key, result in reads:
            replay_through(version)
            if version > last or not correct(shadow, key, result):
                tally.wrong(version, key, result)
            checked += 1
        replay_through(last)
        agrees = shadow.cross_check()
    except _Untrusted:
        agrees = False
        for version, key, result in reads[checked:]:  # cannot be checked
            tally.wrong(version, key, result)
    if not agrees:
        tally.failed += 1
        tally.failures["shadow mismatch"] += 1


class _Untrusted(Exception):
    """The acknowledged writes do not account for the versions."""


def _stat_delta(before: dict, after: dict, *path) -> int:
    """``after - before`` of one nested counter (0 where it is absent)."""
    for key in path:
        before, after = before.get(key) or {}, after.get(key) or {}
    return (after or 0) - (before or 0)


def _counters(before, after, tally: Tally, ladder) -> dict:
    writes = len(tally.writes)
    store_b, store_a = before["store"], after["store"]
    errors_b = before["server"]["http_errors"]
    errors_a = after["server"]["http_errors"]
    refused = errors_a.get("503", 0) - errors_b.get("503", 0)
    errors = sum(errors_a.values()) - sum(errors_b.values()) - refused
    user_bytes = sum(len(to_csv(rows)) for _, _, _, rows in tally.writes)
    extra = _cache_counters(store_b, store_a, writes)
    counters = ladder.core.store.engine.counters.snapshot()
    extra.update({
        "engine.rows_per_batch": (_ratio(counters.get("access_indices", 0), counters.get("access_batches", 0)), "rows"),
        "server.refused": (refused, "count"),
        "server.errors": (errors, "count"),
        "data.wal.bytes_per_user_byte": (
            _ratio(_stat_delta(store_b, store_a, "wal", "bytes_written"), user_bytes), "ratio"
        ),
        "data.wal.fsyncs_per_write": (
            _ratio(_stat_delta(store_b, store_a, "wal", "fsyncs"), writes), "count"
        ),
        "trace.ladder_out_of_step": (ladder.out_of_step, "count"),
    })
    return extra


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _cache_counters(store_b: dict, store_a: dict, writes: int) -> dict:
    """Store counters over the window; a hit ratio with no lookups is 0
    (the printed sample count shows the base)."""
    out = {}
    for kind in CACHE_KINDS:
        hits = _stat_delta(store_b, store_a, kind, "hits")
        lookups = hits + _stat_delta(store_b, store_a, kind, "misses")
        out[f"session.cache.hit_ratio.{kind}"] = (_ratio(hits, lookups), "ratio", lookups)
    out["session.artifacts_invalidated_per_write"] = (
        _ratio(_stat_delta(store_b, store_a, "artifacts_invalidated"), writes), "count"
    )
    out["data.columnar.full_reencodes"] = (_stat_delta(store_b, store_a, "full_reencodes"), "count")
    return out


# -- results --------------------------------------------------------------


def _timed(tally: Tally, window_s, setups, rss_mb, host) -> Result:
    """The end-to-end metrics, and the write timings as printed figures
    (see ``README.md``: CPU-bound on the reference host, not gated)."""
    ms = 1e3
    reads, writes = tally.read_s, tally.write_s
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "read_p50_ms": (percentile(reads, 50) * ms, "ms"),
        "read_p99_ms": (percentile(reads, 99) * ms, "ms"),
        "ops_per_s": ((len(reads) + len(writes)) / window_s, "1/s"),
        "rows_per_s": (tally.rows / window_s, "rows/s"),
    }
    printed = {}
    if writes:
        printed = {
            "write_p50_ms": (percentile(writes, 50) * ms, "ms"),
            "write_p90_ms": (percentile(writes, 90) * ms, "ms"),
        }
    samples = {
        "setup_s": len(setups),
        "read_p50_ms": len(reads),
        "read_p99_ms": len(reads),
        "write_p50_ms": len(writes),
        "write_p90_ms": len(writes),
    }
    return Result(
        correct=tally.correct,
        attempted=tally.attempted,
        failed=tally.failed,
        metrics=metrics,
        samples=samples,
        failures=tally.failures,
        host=host,
        mismatches=tally.mismatches,
        printed=printed,
    )


def _traced(workload, tracer, tally: Tally, extra: dict, host) -> Result:
    from layers import per_layer

    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.dump(traces / f"{workload.name}.jsonl")
    samples = {name: m[2] for name, m in extra.items() if len(m) > 2}
    metrics = per_layer(tracer, {name: m[:2] for name, m in extra.items()})
    return Result(
        correct=tally.correct,
        attempted=tally.attempted,
        failed=tally.failed,
        metrics=metrics,
        samples=samples,
        failures=tally.failures,
        host=host,
        mismatches=tally.mismatches,
    )
