"""Opt-in acceptance timing: the wall time of each acceptance criterion.

    python3 bench/acceptance_times.py

Run from the root of a sastra checkout.  Runs ``tests/test_acceptance.py``
once under pytest, takes each test's outcome and its setup + call + teardown
time from pytest's own reports, prints them and writes them with the machine
fingerprint to ``.bench_out/acceptance_times.json``.  Report-only: not a
workload and not gated, because the suite takes minutes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from child import fingerprint  # noqa: E402
from run import git_commit  # noqa: E402

_DURATION = re.compile(r"^([0-9.]+)s (setup|call|teardown)\s+(\S+::\S+)")
_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR|SKIPPED) (\S+::\S+)")


def parse(output: str) -> dict:
    """Per test id: outcome and seconds, from `pytest -rA --durations=0` output."""
    tests: dict[str, dict] = {}
    for line in output.splitlines():
        m = _DURATION.match(line)
        if m:
            entry = tests.setdefault(m.group(3), {"outcome": None, "seconds": 0.0})
            entry["seconds"] += float(m.group(1))
            continue
        m = _OUTCOME.match(line)
        if m:
            tests.setdefault(m.group(2), {"outcome": None, "seconds": 0.0})["outcome"] = m.group(1)
    return tests


def main() -> int:
    root = os.getcwd()
    suite = os.path.join("tests", "test_acceptance.py")
    if not os.path.isfile(os.path.join(root, suite)):
        print(f"error: {root} has no {suite}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", suite, "-q", "-rA", "-p", "no:cacheprovider",
         "--durations=0", "--durations-min=0"],
        cwd=root, env=env, capture_output=True, text=True, check=False,
    )
    tests = parse(proc.stdout)
    if not tests:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        print("error: no acceptance timings found in pytest output", file=sys.stderr)
        return 1
    for test_id, entry in tests.items():
        print(f"{entry['seconds']:8.2f} s  {entry['outcome'] or '?':7}  {test_id}")
    total = sum(e["seconds"] for e in tests.values())
    print(f"{total:8.2f} s  total over {len(tests)} criteria (pytest exit {proc.returncode})")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "acceptance_times.json"), "w", encoding="utf-8") as fh:
        json.dump({"tests": tests, "total_s": total, "pytest_exit": proc.returncode,
                   "fingerprint": dict(fingerprint(), git_commit=git_commit(root))}, fh, indent=1)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
