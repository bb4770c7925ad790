#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 [--workload scan-wire ...] [--save runs.json]

Runs ``run.py`` once per seed and workload (tracing off), then prints,
for every end-to-end metric, the median, the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, and that share against a third of the metric's
bound in ``BENCHMARK.json``.  It exits 1 if a run failed or a spread
exceeds its bound.  ``--save`` keeps the values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out += range(int(low), int(high or low) + 1)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    saved = {}
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        saved[workload] = values
        for seed in args.seeds:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stdout}{done.stderr}", flush=True)
                ok = False
                continue
            for name, metric in json.loads(lines[-1])["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items() if v), flush=True)
        for name, series in values.items():
            if len(series) < 2:
                continue
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median if median else float("inf")
            bound = bounds[name]
            verdict = "ok" if share <= bound / 3 else ("WIDE" if share <= bound else "OVER")
            if verdict == "OVER":
                ok = False
            print(f"  {workload:12s} {name:14s} median {median:12.4f}  "
                  f"IQR/median {share:7.4f}  bound {bound:.2f}  {verdict}", flush=True)
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
