"""The answers every read is checked against.

:class:`Reference` takes the answer set from a Python-engine
connection (``repro.connect(db, engine="python")``) over the same
relations, in the order every workload serves.

:class:`Shadow` is the mixed-write reference: a shadow database that
receives the same deltas, in the server's version order, and keeps the
sorted answers up to date by joining each delta's effective rows
against the other relation.  :meth:`Shadow.cross_check` recomputes the final answers
from scratch, so the incremental bookkeeping is itself checked once per
run.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict

from workloads import ORDER, QUERY


def python_engine_answers(relations: dict) -> list[tuple]:
    """Sorted answers of ``QUERY`` over ``relations`` in ``ORDER``."""
    import repro

    with repro.connect(repro.Database(relations), engine="python") as conn:
        return conn.prepare(QUERY, order=list(ORDER)).to_list()


class Reference:
    """Static sorted answers with O(1) rank lookup."""

    def __init__(self, relations: dict):
        self.answers = python_engine_answers(relations)
        self._rank = {row: i for i, row in enumerate(self.answers)}

    def __len__(self) -> int:
        return len(self.answers)

    def __getitem__(self, item):
        return self.answers[item]

    def rank(self, row) -> int | None:
        return self._rank.get(tuple(row))


class Shadow:
    """Answers of ``Q(x,y,z) :- R(x,y), S(y,z)`` in order ``x, y, z``,
    maintained under 10-row deltas."""

    def __init__(self, relations: dict):
        self.relations = {name: set(rows) for name, rows in relations.items()}
        self._r_by_y = defaultdict(set)
        self._s_by_y = defaultdict(set)
        for x, y in self.relations["R"]:
            self._r_by_y[y].add(x)
        for y, z in self.relations["S"]:
            self._s_by_y[y].add(z)
        self.answers = python_engine_answers(relations)

    def __len__(self) -> int:
        return len(self.answers)

    def __getitem__(self, item):
        return self.answers[item]

    def rank(self, row) -> int | None:
        row = tuple(row)
        i = bisect_left(self.answers, row)
        if i < len(self.answers) and self.answers[i] == row:
            return i
        return None

    def _joined(self, name: str, row: tuple) -> list[tuple]:
        if name == "R":
            x, y = row
            return [(x, y, z) for z in self._s_by_y[y]]
        y, z = row
        return [(x, y, z) for x in self._r_by_y[y]]

    def apply(self, kind: str, name: str, rows) -> bool:
        """Apply a write as the store does: inserts of present rows and
        deletes of absent ones change nothing.  Returns whether any row
        changed."""
        by_y = self._r_by_y if name == "R" else self._s_by_y
        present = self.relations[name]
        effective = [row for row in rows if (row in present) == (kind == "delete")]
        for row in effective:
            a, b = row
            if kind == "insert":
                self.relations[name].add(row)
                by_y[a if name == "S" else b].add(b if name == "S" else a)
                for answer in self._joined(name, row):
                    insort(self.answers, answer)
            else:
                for answer in self._joined(name, row):
                    del self.answers[bisect_left(self.answers, answer)]
                self.relations[name].discard(row)
                by_y[a if name == "S" else b].discard(b if name == "S" else a)
        return bool(effective)

    def cross_check(self) -> bool:
        """The maintained answers equal the join recomputed from scratch
        over the final relations (the version-0 answers came from the
        Python engine, so this checks the delta bookkeeping)."""
        s_by_y = defaultdict(list)
        for y, z in self.relations["S"]:
            s_by_y[y].append(z)
        fresh = sorted(
            (x, y, z) for x, y in self.relations["R"] for z in s_by_y[y]
        )
        return fresh == self.answers
