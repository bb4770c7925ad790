"""The traced run: spans at every layer boundary, and the layer ladder.

The same request is timed as it enters each layer's public function:

    engine      Engine.batch_access / Engine.batch_rank
    core.access DirectAccess.tuples_at / ranks_of (and tuple_at /
                rank_of for one-row requests: ``core.access.point``)
    facade      AnswerView.tuples_at / ranks
    session     Connection.prepare (warm), protocol.execute
    server.core ServingCore.execute
    wire        HTTPConnection.request to the served process

The clients capture every protocol request they send
(``TracingHTTPConnection`` records it as a ``wire`` span), and each is
replayed on every in-process rung, over an in-process ``ServingCore``
built from the same relations with the same engine.  A rung's self
time is its time minus the rung below it on the same request.  The
spans stay in memory and are written out as JSON lines when the run
ends.

Nothing in the program is patched: the rungs are public entry points,
and ``TracingHTTPConnection`` is a subclass of the client's connection
class.  The ladder reads the ``DirectAccess`` behind a view through
the view's ``_access`` attribute rather than building a second copy.
"""

from __future__ import annotations

import gc
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import nullcontext

from repro import Database, Delta, EncodedDatabase, ReproError, use_engine
from repro.core.access import DirectAccess
from repro.core.preprocessing import Preprocessing
from repro.query import VariableOrder, parse_query
from repro.server.client import HTTPConnection
from repro.session.protocol import execute

from workloads import ORDER, QUERY

_now = time.perf_counter


class TracingHTTPConnection(HTTPConnection):
    """``repro.connect(url)``'s connection, recording each protocol
    request of the current op as a ``wire`` span."""

    tracer: "Tracer | None" = None

    def request(self, request):
        tracer = self.tracer
        op = tracer.current() if tracer is not None else None
        started = _now()
        response = super().request(request)
        if op is not None:
            tracer.wire(op, request, started, _now())
        return response


class Tracer:
    """Records spans; drives the in-process ladder after each op."""

    def __init__(self):
        #: Set once the program under test is up (see ``Ladder``).
        self.ladder: Ladder | None = None
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._write_lock = threading.Lock()

    # -- spans ---------------------------------------------------------

    def span(self, name, start, end, op, parent=None, **extra):
        span_id = next(self._ids)
        self.spans.append(
            dict(id=span_id, name=name, start=start, end=end, op=op,
                 parent=parent, **extra)
        )
        return span_id

    def timed(self, name, op, parent, call, **extra):
        started = _now()
        result = call()
        self.span(name, started, _now(), op, parent, **extra)
        return result

    # -- one op --------------------------------------------------------

    def begin(self) -> int:
        op = next(self._ids)
        self._local.op = op
        self._local.requests = []
        return op

    def current(self):
        return getattr(self._local, "op", None)

    def end(self, op, started, elapsed) -> None:
        self.span("op", started, started + elapsed, op)
        self._local.op = None

    def untraced_copy(self, op, call) -> None:
        """Time ``call`` again with span recording off (the overhead base)."""
        saved, self._local.op = getattr(self._local, "op", None), None
        started = _now()
        try:
            call()
        except (ReproError, OSError):
            pass  # the traced call's outcome is the one counted and checked
        elapsed = _now() - started
        self._local.op = saved
        self.span("op.untraced", started, started + elapsed, op)

    def writing(self, write: bool):
        """Serialize writes with their in-process replay, so the ladder's
        store mints the same versions as the served one."""
        return self._write_lock if write else nullcontext()

    def wire(self, op, request, started, ended) -> None:
        rows = _request_rows(request)
        rid = self.span("wire", started, ended, op, op, rows=rows)
        self._local.requests.append((rid, request))

    def read_ladder(self, op) -> None:
        """Replay the op's requests on the ladder.  A write holds the
        write lock from its served call to the end of its replay, so
        taking it here makes a read served at a version another client
        just minted wait until the ladder's store has minted it too."""
        with self._write_lock:
            for rid, request in self._local.requests:
                self.ladder.replay(self, op, rid, request)
        self._local.requests = []

    def write_ladder(self, op, version, key) -> None:
        self.ladder.write(self, op, version, key)
        self._local.requests = []

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, default=str) + "\n")


def _request_rows(request) -> int:
    if request.op == "access":
        return len(request.indices)
    if request.op == "rank":
        return len(request.answers) if request.answers is not None else 1
    return 0


class Ladder:
    """The in-process rungs: a ``ServingCore`` and a connection on its
    store, over the same relations and engine as the served process."""

    def __init__(self, conn, core, wal=None, relations=None):
        self.conn = conn
        self.core = core
        self.wal = wal
        self.out_of_step = 0
        if relations is not None:
            self.plain_db = Database(relations)
            self.encoded_db = EncodedDatabase(relations)

    def close(self) -> None:
        self.core.close()
        if self.wal is not None:
            self.wal.close()

    def replay(self, tracer, op, rid, request) -> None:
        timed = tracer.timed
        timed("server.core", op, rid, lambda: self.core.execute(request))
        timed("session.protocol", op, rid, lambda: execute(self.conn, request))
        version = request.db_version
        at = version if version is not None and version != self.conn.db_version else None
        view = timed(
            "session.prepare", op, rid,
            lambda: self.conn.prepare(QUERY, order=list(ORDER), at_version=at),
        )
        access = view._access
        engine = access.preprocessing.engine
        if request.op == "access":
            indices = list(request.indices)
            timed("facade", op, rid, lambda: view.tuples_at(indices))
            timed("core.access", op, rid, lambda: access.tuples_at(indices))
            if len(indices) == 1:
                timed("core.access.point", op, rid, lambda: access.tuple_at(indices[0]))
            timed("engine", op, rid, lambda: engine.batch_access(access, indices),
                  kind="access")
        elif request.op == "rank":
            rows = [tuple(r) for r in request.answers or (request.answer,)]
            timed("facade", op, rid, lambda: view.ranks(rows))
            timed("core.access", op, rid, lambda: access.ranks_of(rows))
            if len(rows) == 1:
                timed("core.access.point", op, rid, lambda: access.rank_of(rows[0]))
            timed("engine", op, rid, lambda: engine.batch_rank(access, rows),
                  kind="rank")
        view.close()

    def write(self, tracer, op, version, key) -> None:
        kind, name, rows = key
        delta = Delta(**{kind + "s": {name: rows}})
        timed = tracer.timed
        self.plain_db = timed("data.delta.apply", op, op, lambda: self.plain_db.apply(delta))
        self.encoded_db = timed(
            "data.columnar.apply", op, op, lambda: self.encoded_db.apply(delta)
        )
        timed("data.wal.append", op, op, lambda: self.wal.append_delta(delta, version))
        minted = timed("session.store_apply", op, op, lambda: self.core.store.apply(delta))
        if minted != version:
            self.out_of_step += 1
        timed("session.rebuild_after_write", op, op,
              lambda: self.conn.prepare(QUERY, order=list(ORDER)).close())


def setup_rungs(tracer, relations, engine) -> float:
    """Time the set-up layers once, in-process, on ``engine``; returns
    materialized bag rows per input row."""
    query = parse_query(QUERY)
    variables = VariableOrder(ORDER)
    timed = tracer.timed
    with use_engine(engine) as active:
        database = timed("data.load", 0, None, lambda: Database(relations))
        timed("engine.encode", 0, None, lambda: active.encode_database(database))
        pre = timed(
            "core.preprocessing", 0, None, lambda: Preprocessing(query, variables, database)
        )
        timed(
            "core.access.forest", 0, None,
            lambda: DirectAccess(query, variables, database, preprocessing=pre),
        )
    materialized = pre.materialized_size() / sum(len(r) for r in relations.values())
    del pre
    gc.collect()
    return materialized


# -- the per-layer metrics ------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(tracer, extra: dict) -> dict:
    """Per-layer metrics from the spans, plus the counters in ``extra``
    (name -> (value, unit, better))."""
    by_name = defaultdict(list)
    requests = {}  # request span id -> {"op", "rows", rung name -> seconds}
    for span in tracer.spans:
        duration = span["end"] - span["start"]
        by_name[span["name"]].append(duration)
        if span["name"] == "wire":
            requests[span["id"]] = {
                "op": span["op"], "rows": span["rows"], "kind": None, "wire": duration,
            }
        if span["parent"] in requests:
            request = requests[span["parent"]]
            request[span["name"]] = duration
            if span["name"] == "engine":
                request["kind"] = span["kind"]
    op_time = {s["op"]: s["end"] - s["start"] for s in tracer.spans if s["name"] == "op"}
    untraced = {
        s["op"]: s["end"] - s["start"] for s in tracer.spans if s["name"] == "op.untraced"
    }
    read_requests = [r for r in requests.values() if r["op"] in untraced]
    # Per-row figures are medians over requests of (time / rows), so
    # one request that lost the processor to the other client cannot
    # swing them.
    engine = defaultdict(list)
    access_self, facade_self, wire_per_row = [], [], []
    point_facade, protocol_self, core_self, wire_self = [], [], [], []
    top = defaultdict(float)
    for r in read_requests:
        n = r["rows"]
        top[r["op"]] += r["wire"]
        if r["kind"] is not None and n:
            engine[r["kind"]].append(r["engine"] / n)
            access_self.append((r["core.access"] - r["engine"]) / n)
            facade_self.append((r["facade"] - r["core.access"]) / n)
            if n == 1:
                point_facade.append(r["facade"] - r["core.access"])
        below = r["session.prepare"] + r.get("facade", 0.0)
        protocol_self.append(r["session.protocol"] - below)
        core_self.append(r["server.core"] - r["session.protocol"])
        if n:
            wire_per_row.append(r["wire"] / n)
        wire_self.append(r["wire"] - r["server.core"])
    remainder = [op_time[o] - top[o] for o in untraced if o in op_time]
    overhead = [op_time[o] - untraced[o] for o in untraced if o in op_time]
    us, ms = 1e6, 1e3

    def median_of(name, scale):
        return _median(by_name[name]) * scale

    metrics = {
        "engine.batch_access.us_per_row": (_median(engine["access"]) * us, "us/row"),
        "engine.batch_rank.us_per_row": (_median(engine["rank"]) * us, "us/row"),
        "core.access.self_us_per_row": (_median(access_self) * us, "us/row"),
        "core.access.point_us": (median_of("core.access.point", us), "us"),
        "facade.self_us_per_row": (_median(facade_self) * us, "us/row"),
        "facade.point_self_us": (_median(point_facade) * us, "us"),
        "session.prepare_warm_us": (median_of("session.prepare", us), "us"),
        "session.protocol.self_us": (_median(protocol_self) * us, "us"),
        "server.core.self_us": (_median(core_self) * us, "us"),
        "server.wire.self_us": (_median(wire_self) * us, "us"),
        "server.wire.us_per_row": (_median(wire_per_row) * us, "us/row"),
        "server.wire.requests_per_op": (
            len(read_requests) / len(untraced) if untraced else 0.0, "count"
        ),
        "data.load_s": (median_of("data.load", 1), "s"),
        "engine.encode_s": (median_of("engine.encode", 1), "s"),
        "core.preprocessing.s": (median_of("core.preprocessing", 1), "s"),
        "core.access.forest_s": (median_of("core.access.forest", 1), "s"),
        "data.delta.apply_us": (median_of("data.delta.apply", us), "us"),
        "data.columnar.apply_us": (median_of("data.columnar.apply", us), "us"),
        "data.wal.append_us": (median_of("data.wal.append", us), "us"),
        "session.store_apply_us": (median_of("session.store_apply", us), "us"),
        "session.rebuild_after_write_ms": (median_of("session.rebuild_after_write", ms), "ms"),
        "trace.remainder_us": (_median(remainder) * us, "us"),
        "trace.overhead_us": (_median(overhead) * us, "us"),
    }
    metrics.update(extra)
    return metrics
