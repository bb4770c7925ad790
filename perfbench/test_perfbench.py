"""Self-tests of the benchmark: its gates can fail.

    python3 -m pytest perfbench -q

They run the real program at a small scale (a few hundred rows, one
set-up, one-second windows) on every workload of ``BENCHMARK.json``;
a few minutes in all.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import layers  # noqa: E402
import run as cli  # noqa: E402
from repro.errors import OverloadedError  # noqa: E402
from reference import Shadow  # noqa: E402
from workloads import CLIENTS, WORKLOADS, op_stream, relations, to_csv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
GATED = [w["name"] for w in SPEC["workloads"]]
SECONDS = 1.0


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(bench, "SETUPS", 1)


def small(name: str) -> bench.Workload:
    """The workload at a test scale: > 2048 answers, sub-second set-up."""
    return dataclasses.replace(WORKLOADS[name], rows=400, domain=40)


def corrupt(call):
    """Return every answer row with its first value shifted by one."""
    result = call()
    if isinstance(result, tuple):
        return (result[0] + 1,) + result[1:]
    if isinstance(result, list) and result and isinstance(result[0], tuple):
        return [(result[0][0] + 1,) + result[0][1:]] + result[1:]
    return result


def slow(seconds: float):
    def hook(call):
        time.sleep(seconds)
        return call()

    return hook


def refuse_every_third():
    calls = [0]

    def hook(call):
        calls[0] += 1
        if calls[0] % 3 == 0:
            raise OverloadedError("every worker queue is full")  # what a 503 raises
        return call()

    return hook


# -- inputs ----------------------------------------------------------------


def test_every_workload_is_gated():
    assert sorted(GATED) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", GATED)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = WORKLOADS[name]

    def inputs(seed: int) -> bytes:
        rels = relations(workload, seed)
        streams = [
            repr([next(stream) for _ in range(300)]).encode()
            for stream in (
                op_stream(workload, seed, client, rels)
                for client in range(CLIENTS)
            )
        ]
        return b"|".join([to_csv(rels["R"]), to_csv(rels["S"]), *streams])

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


# -- the gates -------------------------------------------------------------


@pytest.mark.parametrize("name", GATED)
def test_a_clean_run_is_correct(name):
    result = bench.run(small(name), seed=3, seconds=SECONDS)
    assert result.correct and result.failed == 0, result.failures
    assert set(result.metrics) == set(BOUNDS)
    assert all(value > 0 for value, _ in result.metrics.values())


@pytest.mark.parametrize("name", GATED)
def test_a_corrupted_answer_fails_the_run(name):
    result = bench.run(small(name), seed=3, seconds=SECONDS, hook=corrupt)
    assert not result.correct
    assert result.failures["wrong answer"] > 0


def test_a_corrupted_answer_fails_the_command(monkeypatch, capsys):
    small_workloads = {name: small(name) for name in WORKLOADS}
    monkeypatch.setattr("workloads.WORKLOADS", small_workloads)
    real_run = bench.run
    monkeypatch.setattr(
        bench, "run", lambda *args, **kw: real_run(*args, hook=corrupt, **kw)
    )
    code = cli.main(["--workload", "point-wire", "--seed", "3", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] > 0


def _acknowledged(rels, writes) -> bench.Tally:
    """``writes`` as clients record them, and two reads after the last
    one, answered correctly."""
    shadow = Shadow(rels)
    for _, kind, name, rows in writes:
        shadow.apply(kind, name, rows)
    head = max(version for version, *_ in writes)
    tally = bench.Tally()
    tally.writes = list(writes)
    tally.deferred = [(head, ("prepare",), len(shadow)), (head, ("access", 0), shadow[0])]
    return tally


def _verified(rels, writes) -> bench.Tally:
    tally = _acknowledged(rels, writes)
    bench._verify_versions(Shadow(rels), tally)
    return tally


def test_the_mixed_write_check_accepts_writes_that_change_nothing():
    rels = relations(small("mixed-write"), 3)
    fresh = next((a, 0) for a in range(40) if (a, 0) not in set(rels["R"]))
    writes = [
        (0, "delete", "S", ((99, 99),)),  # absent: acknowledged unbumped
        (1, "insert", "R", (fresh,)),
        (1, "insert", "R", (fresh,)),  # present by now: unbumped
        (2, "delete", "S", (rels["S"][0],)),
    ]
    assert _verified(rels, writes).failed == 0


def test_the_mixed_write_check_catches_a_lost_or_doubled_write():
    rels = relations(small("mixed-write"), 3)
    fresh = next((a, 0) for a in range(40) if (a, 0) not in set(rels["R"]))
    writes = [(1, "insert", "R", (fresh,)), (2, "delete", "S", (rels["S"][0],))]
    assert _verified(rels, writes).failed == 0
    lost = _acknowledged(rels, writes)
    del lost.writes[0]  # acknowledged, but the server never applied it
    bench._verify_versions(Shadow(rels), lost)
    assert lost.failures["shadow mismatch"] == 1
    doubled = [(1, "insert", "R", (fresh,)), (1, "delete", "S", (rels["S"][0],))]
    assert _verified(rels, doubled).failures["shadow mismatch"] == 1


@pytest.mark.parametrize("name", GATED)
def test_a_delay_around_the_client_call_moves_read_p50_past_its_bound(name):
    bound = BOUNDS["read_p50_ms"]["bound"]
    base = bench.run(small(name), seed=3, seconds=SECONDS).metrics["read_p50_ms"][0]
    # Three times the share the bound allows, so noise cannot hide it.
    delay_s = 3 * bound * base / 1e3
    delayed = bench.run(small(name), seed=3, seconds=SECONDS, hook=slow(delay_s))
    assert delayed.metrics["read_p50_ms"][0] > base * (1 + bound)


@pytest.mark.parametrize("name", GATED)
def test_a_refused_request_raises_failed_share(name):
    result = bench.run(small(name), seed=3, seconds=SECONDS, hook=refuse_every_third())
    assert result.failures["OverloadedError"] == result.failed > 0
    assert result.correct  # refused, not wrong: the answers given were right


@pytest.mark.parametrize("name", GATED)
def test_the_traced_run_reports_every_per_layer_metric(name):
    result = bench.run(small(name), seed=3, seconds=SECONDS, trace=True)
    assert result.correct and result.failed == 0, result.failures
    assert set(result.metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert result.metrics["trace.ladder_out_of_step"][0] == 0
    if name == "mixed-write":
        assert result.metrics["data.wal.fsyncs_per_write"][0] == 1.0


def test_a_slow_ladder_write_holds_back_reads_at_its_version(monkeypatch):
    """Client A's write replays on the ladder for a second after the
    server acknowledged it; client B, which re-prepares 0.3 s after its
    own write, meanwhile reads at the version A's write minted.  B's
    replay must wait until the ladder has minted that version too."""
    real_write = layers.Ladder.write

    def slow_write(self, *args):
        time.sleep(1.0)
        return real_write(self, *args)

    def late_reprepare(call):
        if call.__name__ == "reprepare":
            time.sleep(0.3)
        return call()

    monkeypatch.setattr(layers.Ladder, "write", slow_write)
    result = bench.run(
        small("mixed-write"), seed=3, seconds=3 * SECONDS, trace=True, hook=late_reprepare
    )
    assert result.correct and result.failed == 0, result.failures
    assert result.metrics["trace.ladder_out_of_step"][0] == 0


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "point-wire", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
