"""Seeded inputs of the benchmark: the relations and each client's ops.

Everything here is a pure function of ``(workload, seed)``: the same
seed gives byte-identical relations and op streams, so a run can be
repeated exactly and a claim re-checked on a hold-out seed.  The
program under test only ever sees the generated relations (as CSV
files for ``repro serve``) and the requests the clients send.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

QUERY = "Q(x,y,z) :- R(x,y), S(y,z)"
#: The answer order of every workload (iota = 1: linear preprocessing).
ORDER = ("x", "y", "z")
#: Closed-loop clients per workload, one thread and one keep-alive
#: connection each.
CLIENTS = 2

#: Rows per bulk op (slices, index batches, rank batches).
BULK = 2048
#: Rows per write: one insert or delete of this many rows.
WRITE_ROWS = 10
#: Mixed-write op block per client: a write, a re-prepare at head,
#: then point reads on the fresh view.  A fixed block keeps every view
#: younger than the MVCC retention window (4 versions) with two
#: writing clients, so no read can go stale by construction.
WRITE_BLOCK = 10


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in ``README.md`` and
    ``BENCHMARK.json``."""

    name: str
    rows: int  # per relation
    domain: int
    mix: str  # "point", "bulk" or "write"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("point-wire", 20_000, 2_000, "point"),
        Workload("scan-wire", 20_000, 2_000, "bulk"),
        Workload("mixed-write", 20_000, 2_000, "write"),
    )
}


def relations(workload: Workload, seed: int) -> dict[str, list[tuple]]:
    """``R`` and ``S``: distinct pairs over ``[0, domain)``, sorted."""
    rng = random.Random(f"relations/{workload.rows}/{workload.domain}/{seed}")
    cells = workload.domain * workload.domain
    out = {}
    for name in ("R", "S"):
        picked = rng.sample(range(cells), workload.rows)
        out[name] = sorted(divmod(cell, workload.domain) for cell in picked)
    return out


def to_csv(rows) -> bytes:
    """The ``repro.data.io`` on-disk format of ``rows``."""
    return "".join(f"{a},{b}\n" for a, b in rows).encode()


# -- op streams ---------------------------------------------------------------
#
# An op is a plain tuple of ints (and one nested tuple), so a stream
# serializes to bytes with ``repr``.  Ops that act on an answer "already
# returned" name it by recency (0 = the latest answer this client got
# back) instead of by value, which keeps the stream independent of what
# the program answers: a wrong answer changes what is sent next, never
# the stream itself, and the verifier still catches it.


#: Positions are drawn as fractions ``u / SCALE`` of the view's length
#: and resolved by :func:`position` at read time, so a stream never
#: depends on an answer count (which writes move).
SCALE = 1 << 30


def position(u: int, length: int) -> int:
    return (u * length) // SCALE


def _point_op(rng: random.Random, domain: int) -> tuple:
    roll = rng.random()
    if roll < 0.5:
        return ("access", rng.randrange(SCALE))
    if roll < 0.75:
        return ("rank", rng.randrange(8))
    if rng.random() < 0.5:
        return ("contains", rng.randrange(8), None)
    triple = (rng.randrange(domain), rng.randrange(domain), rng.randrange(domain))
    return ("contains", -1, triple)


def _bulk_op(rng: random.Random) -> tuple:
    kind = rng.choices(("slice", "batch", "ranks"), (3, 3, 2))[0]
    if kind == "slice":
        return ("slice", rng.randrange(SCALE))
    if kind == "batch":
        return ("batch", tuple(rng.randrange(SCALE) for _ in range(BULK)))
    return ("ranks", rng.randrange(1 << 30))  # shuffle seed


#: Writes cycle through these, so every run has the same mix of write
#: kinds however many writes it makes.
WRITE_CYCLE = (("insert", "R"), ("insert", "S"), ("delete", "R"), ("delete", "S"))


def _write_op(
    rng: random.Random, client: int, owned: dict, domain: int, kind: str, name: str
) -> tuple:
    """A 10-row ``kind`` on ``name``, on rows only ``client`` ever touches.

    Each client owns the cells with ``(a + b) % 2 == client`` of both
    relations, so two concurrent writers never race on a row and every
    write changes the database (no effectively-empty deltas).
    """
    rows = owned[name]
    if kind == "delete":
        picked = rng.sample(sorted(rows), WRITE_ROWS)
        rows.difference_update(picked)
        return ("delete", name, tuple(picked))
    picked = set()
    while len(picked) < WRITE_ROWS:
        a = rng.randrange(domain)
        b = rng.randrange(domain)
        if (a + b) % 2 == client and (a, b) not in rows:
            picked.add((a, b))
    rows.update(picked)
    return ("insert", name, tuple(sorted(picked)))


def op_stream(workload: Workload, seed: int, client: int, base: dict):
    """Client ``client``'s endless op stream over relations ``base``."""
    rng = random.Random(f"ops/{workload.name}/{seed}/{client}")
    if workload.mix == "point":
        yield ("access", rng.randrange(SCALE))
        while True:
            yield _point_op(rng, workload.domain)
    elif workload.mix == "bulk":
        yield ("slice", rng.randrange(SCALE))
        while True:
            yield _bulk_op(rng)
    else:
        owned = {
            name: {row for row in rows if sum(row) % 2 == client}
            for name, rows in base.items()
        }
        for kind, name in itertools.cycle(WRITE_CYCLE):
            yield _write_op(rng, client, owned, workload.domain, kind, name)
            yield ("prepare",)
            yield ("access", rng.randrange(SCALE))
            for _ in range(WRITE_BLOCK - 3):
                yield _point_op(rng, workload.domain)
