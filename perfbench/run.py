#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one run of one workload.

    python3 perfbench/run.py --workload point-wire --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate
traced run that reports the per-layer metrics.  Every metric is printed
by name and unit; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every answer was checked and correct.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from bench import run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    share = result.failed / result.attempted if result.attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("host " + "  ".join(f"{k}={v}" for k, v in result.host.items()))
    print("phases " + "  ".join(f"{k}={v:.1f}s" for k, v in result.phases.items()))
    for name, (value, unit) in result.metrics.items():
        n = result.samples.get(name)
        print(f"  {name:40s} {value:14.4f} {unit}" + ("" if n is None else f"  (n={n})"))
    for name, (value, unit) in result.printed.items():
        n = result.samples.get(name)
        print(f"  {name:40s} {value:14.4f} {unit}  (n={n}; printed, not gated)")
    print(f"  {'failed_share':40s} {share:14.4f} ratio  "
          f"({result.failed} of {result.attempted} ops: "
          f"{dict(result.failures) or 'none failed'})")
    for version, key, answer in result.mismatches:
        print(f"  WRONG at db_version {version}: {str(key)[:200]} -> {str(answer)[:200]}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if result.correct and result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
