"""Closed-loop clients: run a seeded op stream, time it, check it.

Each client owns one connection (``repro.connect(url)`` over one
keep-alive socket) and sends its next op only after the previous reply
arrived.  Only the call into the program is timed; resolving the op
before it and checking the answer after it happen outside the timed
region.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro import Delta, NotAnAnswerError, ReproError

from workloads import BULK, ORDER, QUERY, position

#: Rows kept for ops on "an answer already returned".
RECENT = 8

#: The op kinds that write: their latency counts toward ``write_*``,
#: every other op's toward ``read_*``.
WRITE_KINDS = ("insert", "delete")


def direct(call):
    """The default client-call seam: just make the call."""
    return call()


@dataclass
class Tally:
    """What one client saw inside the measurement window."""

    read_s: list = field(default_factory=list)
    write_s: list = field(default_factory=list)
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    #: (db_version, key, result) of reads, checked after the window.
    deferred: list = field(default_factory=list)
    #: (db_version, kind, relation, rows) of acknowledged writes.
    writes: list = field(default_factory=list)
    #: The first few wrong answers, for the report.
    mismatches: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        """No wrong answer and no shadow mismatch (refusals and transport
        errors are failures, not wrong answers)."""
        return self.failures["wrong answer"] + self.failures["shadow mismatch"] == 0

    def wrong(self, version, key, result) -> None:
        self.failed += 1
        self.failures["wrong answer"] += 1
        if len(self.mismatches) < 5:
            self.mismatches.append((version, key, result))

    def merge(self, other: "Tally") -> None:
        self.read_s += other.read_s
        self.write_s += other.write_s
        self.rows += other.rows
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.update(other.failures)
        self.deferred += other.deferred
        self.writes += other.writes
        self.mismatches += other.mismatches


def expected(reference, key):
    """The correct result of the resolved read ``key``."""
    kind = key[0]
    if kind == "access":
        return reference[key[1]]
    if kind == "rank":
        return reference.rank(key[1])
    if kind == "contains":
        return reference.rank(key[1]) is not None
    if kind == "prepare":
        return len(reference)
    if kind == "slice":
        return reference[key[1] : key[1] + BULK]
    if kind == "batch":
        return [reference[i] for i in key[1]]
    if kind == "ranks":
        return [reference.rank(row) for row in key[1]]
    raise ValueError(f"no expected result for {kind}")


def correct(reference, key, result) -> bool:
    want = expected(reference, key)
    if key[0] in ("slice", "batch"):
        return [tuple(row) for row in result] == want
    if key[0] == "access":
        return tuple(result) == want
    return result == want


class Client:
    """One closed-loop client over one connection.

    ``check(version, key, result)`` judges a read (``None`` = deferred
    until after the window); ``hook`` wraps every call into the program
    (the seam the self-tests use to slow, corrupt or refuse calls).
    """

    def __init__(self, conn, ops, check, hook=direct, tracer=None):
        self.conn = conn
        self.ops = ops
        self.check = check
        self.hook = hook
        self.tracer = tracer
        self.view = None
        self.recent: list = []
        self.last_bulk: list = []
        self.steps = 0

    def prepare(self) -> None:
        self.view = self.conn.prepare(QUERY, order=list(ORDER))

    def _resolve(self, op):
        """``(key, call)``: the op made concrete on the current view."""
        view = self.view
        kind = op[0]
        if not self.recent and (
            kind == "rank" or (kind == "contains" and op[1] >= 0)
        ):
            kind, op = "access", ("access", 0)  # nothing returned yet
        if kind == "access":
            i = position(op[1], len(view))
            return ("access", i), lambda: view[i]
        if kind == "rank":
            row = self.recent[-1 - op[1] % len(self.recent)]
            return ("rank", row), lambda: view.rank(row)
        if kind == "contains":
            row = op[2] if op[1] < 0 else self.recent[-1 - op[1] % len(self.recent)]
            return ("contains", row), lambda: row in view
        if kind == "prepare":
            def reprepare():
                self.prepare()
                return len(self.view)

            return ("prepare",), reprepare
        if kind == "slice":
            a = position(op[1], len(view) - BULK)
            return ("slice", a), lambda: view[a : a + BULK].to_list()
        if kind == "batch":
            n = len(view)
            idx = [position(u, n) for u in op[1]]
            return ("batch", idx), lambda: view.tuples_at(idx)
        if kind == "ranks":
            rows = list(self.last_bulk)
            random.Random(op[1]).shuffle(rows)
            return ("ranks", rows), lambda: view.ranks(rows)
        if kind in WRITE_KINDS:
            rows = op[2]
            delta = Delta(**{kind + "s": {op[1]: rows}})
            return (kind, op[1], rows), lambda: self.conn.apply(delta)
        raise ValueError(f"unknown op {op!r}")

    def step(self, tally: Tally) -> None:
        """Run one op; time it, count it, check (or defer) its result."""
        key, call = self._resolve(next(self.ops))
        kind = key[0]
        write = kind in WRITE_KINDS
        tally.attempted += 1
        tracer = self.tracer
        token = tracer.begin() if tracer else None
        # The untraced copy of a read runs before the traced call on
        # every other op and after it on the rest, so warm-up favours
        # neither.
        self.steps += 1
        copy_first = self.steps % 2
        # Re-preparing moves the client to a new view: never twice.
        copied = tracer is not None and kind not in WRITE_KINDS + ("prepare",)
        if copied and copy_first:
            tracer.untraced_copy(token, call)
        try:
            with tracer.writing(write) if tracer else nullcontext():
                started = time.perf_counter()
                try:
                    result = self.hook(call)
                except NotAnAnswerError:
                    if kind != "rank":
                        raise
                    result = None  # checked against the reference below
                elapsed = time.perf_counter() - started
                if tracer and write:
                    tracer.end(token, started, elapsed)
                    tracer.write_ladder(token, result, key)
        except (ReproError, OSError) as error:
            tally.failed += 1
            tally.failures[type(error).__name__] += 1
            self._recover()
            return
        if write:
            tally.write_s.append(elapsed)
            tally.writes.append((result, kind, key[1], key[2]))
            return
        if tracer:
            tracer.end(token, started, elapsed)
            if copied and not copy_first:
                tracer.untraced_copy(token, call)
        tally.read_s.append(elapsed)
        tally.rows += _rows(kind, result)
        version = self.view.db_version
        verdict = self.check(version, key, result)
        if verdict is None:
            tally.deferred.append((version, key, result))
        elif not verdict:
            tally.wrong(version, key, result)
        if kind == "access":
            self.recent = (self.recent + [tuple(result)])[-RECENT:]
        elif kind in ("slice", "batch"):
            self.last_bulk = [tuple(row) for row in result]
        if tracer:
            tracer.read_ladder(token)

    def _recover(self) -> None:
        """After a failed op, re-prepare so the next op has a fresh view."""
        try:
            self.prepare()
        except (ReproError, OSError):
            pass


def _rows(kind: str, result) -> int:
    """Answer rows (or ranks) one read delivered."""
    if kind in ("slice", "batch", "ranks"):
        return len(result)
    return 1


def run_clients(clients, seconds: float) -> tuple[Tally, float]:
    """Run every client closed-loop for ``seconds``.

    Ops that finish after the deadline are not counted.  Returns the
    merged tally and the measured window: from the start to the last
    counted completion, so rates are measured, not rounded to the
    nominal length.
    """
    tallies = [Tally() for _ in clients]
    start = time.perf_counter()
    deadline = start + seconds
    last = [start]
    errors: list = []

    def loop(client, tally):
        try:
            while time.perf_counter() < deadline:
                mark = (len(tally.read_s), len(tally.write_s), tally.rows)
                client.step(tally)
                done = time.perf_counter()
                if done > deadline:
                    # Finished past the deadline: uncount its timing.
                    del tally.read_s[mark[0]:]
                    del tally.write_s[mark[1]:]
                    tally.rows = mark[2]
                else:
                    last.append(done)
        except BaseException as error:  # surfaced by the caller
            errors.append(error)

    threads = [
        threading.Thread(target=loop, args=(c, t), daemon=True)
        for c, t in zip(clients, tallies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    merged = Tally()
    for tally in tallies:
        merged.merge(tally)
    return merged, max(last) - start
