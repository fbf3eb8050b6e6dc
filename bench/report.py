"""Trace report: where each workload's experiment time goes, by sastra module.

    python3 bench/report.py [--seed 2000] [--workload NAME ...]

Run from the root of a sastra checkout.  Makes the traced run of each
workload (what ``run.py --trace 1`` does) and prints each module's self time,
its share of the traced experiment_s, and the tracing overhead: traced
experiment_s minus the untraced experiment_s of the same one-thread pass.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import MODULES, BenchError, run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def format_report(record: dict) -> str:
    m = record["per_layer"]
    traced = m["trace.experiment_s"]
    untraced = traced - m["trace.overhead_s"]
    lines = [
        f"{record['workload']} (seed {record['seed']}): check "
        f"{'PASS' if record['correct'] else 'FAIL'}, traced experiment_s {traced:.3f} s, "
        f"untraced {untraced:.3f} s, tracing overhead {m['trace.overhead_s']:+.3f} s "
        f"({m['trace.overhead_s'] / untraced:+.1%})",
        f"  {'module':<12} {'self_s':>9} {'share':>7}",
    ]
    total = 0.0
    for module in MODULES:
        s = m[f"{module}.self_s"]
        total += s
        lines.append(f"  {module:<12} {s:9.3f} {s / traced:7.1%}")
    lines.append(f"  {'sum':<12} {total:9.3f} {total / traced:7.1%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="self time per sastra module, per workload")
    ap.add_argument("--seed", type=int, default=2000)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sastra", "cli.py")):
        print(f"error: {root} is not a sastra checkout (no src/sastra/cli.py)", file=sys.stderr)
        return 2
    for name in args.workload or list(WORKLOADS):
        try:
            record = run(root, name, args.seed, 0.0, trace=True)
        except BenchError as exc:
            print(f"{name}: error: {exc}", file=sys.stderr)
            return 1
        print(format_report(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
