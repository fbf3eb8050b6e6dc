"""sastra benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload restart_curve --seed 3 --seconds 10 --trace 0

Run from the root of a sastra checkout (``src/sastra`` must exist; nothing
is installed).  The workload seed is written into the generated config, which
is all the program receives.  ``--trace 0`` times set-up in several fresh
processes and repeats the experiment phase in one of them for ``--seconds``
(repeat j at seed + j * child.SUBSEED_STRIDE), then prints the end-to-end
metrics as medians over the repeats.  ``--trace 1`` runs one traced pass and
prints the per-layer metrics.  Every pass's report is checked for
correctness.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
every metric with its unit, the result digest and the machine fingerprint.
Scratch files go to ``.bench_work/`` and traces and results to
``.bench_out/`` under the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS, result_digest  # noqa: E402

DEADLINE_S = 170.0  # past this a run gives up with a nonzero exit instead of a result

# (name, unit) of every end-to-end metric, in print order
END_TO_END = [
    ("setup_s", "s"),
    ("experiment_s", "s"),
    ("samples_per_s", "1/s"),
    ("trials_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_trial_frac", "ratio"),
]
# failed_trial_frac is normally 0, so a relative bound cannot gate it; the
# JSON result carries it as "failed" out of "attempted" instead.
GATED = [name for name, _ in END_TO_END if name != "failed_trial_frac"]


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


MODULES = ("cli", "harness", "sa_solvers", "saa_solvers", "problems", "geometry", "sliding")
FAMILIES = ("gaussian_mean", "ridge", "lasso", "soft_svm", "norm_power",
            "finite_sum_quadratic")
SETS = ("unconstrained", "l2_ball", "l1_ball", "simplex")


def _per_layer_units() -> dict:
    """Unit of every per-layer metric, in print order."""
    units = {
        "cli.import_s": "s", "cli.build_problem_s": "s", "problems.ground_truth_s": "s",
        "problems.draw_block.calls": "count", "problems.draw_block.rows": "count",
        "problems.draw_block.self_s": "s", "problems.draw_block.us_per_row": "us",
        "problems.population_gap.calls": "count", "problems.population_gap.self_s": "s",
        "problems.population_gap.ms_per_call": "ms",
        "sa_solvers.sgd_run.calls": "count", "sa_solvers.sgd_run.steps": "count",
        "sa_solvers.sgd_run.self_s": "s", "sa_solvers.sgd_run.us_per_step": "us",
        "sa_solvers.restart_stage_plan.calls": "count",
        "sa_solvers.restart_stage_plan.self_s": "s",
        "sa_solvers.restarted_budget_run.calls": "count",
        "sa_solvers.restarted_budget_run.self_s": "s",
        "geometry.step.calls": "count", "geometry.step.self_s": "s",
        "geometry.project.calls": "count", "geometry.project.self_s": "s",
        "saa_solvers.build_empirical.calls": "count", "saa_solvers.build_empirical.self_s": "s",
        "saa_solvers.solve_erm.calls": "count", "saa_solvers.solve_erm.iterations": "count",
        "saa_solvers.solve_erm.self_s": "s", "saa_solvers.solve_erm.us_per_iteration": "us",
        "saa_solvers.solve_erm.certified_frac": "ratio",
        "saa_solvers.solve_erm.budget_exhausted": "count",
        "harness.probes": "count", "harness.trials": "count", "harness.run_trials.self_s": "s",
        "harness.trial_ms.p50": "ms", "harness.trial_ms.p90": "ms",
        "harness.write_report_s": "s", "harness.thread_speedup": "ratio",
    }
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    units["trace.experiment_s"] = "s"
    units["trace.overhead_s"] = "s"
    for family in FAMILIES:
        units[f"problems.draw_us.{family}"] = "us"
        units[f"problems.subgrad_us.{family}"] = "us"
    for kind in SETS:
        units[f"geometry.project_us.{kind}"] = "us"
        units[f"geometry.mirror_step_us.{kind}"] = "us"
    units["saa_solvers.vr_solve.ms_per_epoch"] = "ms"
    units["sliding.sliding_run.ms"] = "ms"
    units["sliding.grad_h_per_grad_g"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


def child_python() -> str:
    """This interpreter when it has numpy, else ``python`` from PATH."""
    if importlib.util.find_spec("numpy") is not None:
        return sys.executable
    return shutil.which("python") or sys.executable


def spawn(root: str, config: str, work: str, tag: str, deadline: float, *flags) -> dict:
    """Run child.py once; returns its result with ``setup_s`` timed from process start."""
    result_path = os.path.join(work, f"{tag}.json")
    cmd = [child_python(), os.path.join(BENCH_DIR, "child.py"), "--root", root,
           "--config", config, "--work", work, "--result", result_path, *flags]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(1.0, deadline - time.perf_counter())):
                raise BenchError(f"{tag}: set-up did not finish before the deadline")
            line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            raise BenchError(f"{tag}: child failed during set-up (exit {proc.wait()})")
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        if code != 0:
            raise BenchError(f"{tag}: child exited with status {code}")
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag}: run did not finish before the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = setup_s
    return result


def check_passes(workload, main: dict) -> tuple[list[str], dict, str]:
    """Check every pass's report; passes at one seed must give one digest.

    Returns the problems found, the first pass's check summary and its digest.
    """
    problems, summaries, digests = [], [], {}
    for p in main["passes"]:
        with open(p["report"], encoding="utf-8") as fh:
            report = fh.read()
        found, summary = workload.check(report, main["experiment"])
        summaries.append(summary)
        problems += [f"{p['label']}: {msg}" for msg in found]
        if p["failed"]:
            problems.append(f"{p['label']}: {p['failed']} of {p['trials']} trials failed")
        digests.setdefault(p["seed"], set()).add(result_digest(report))
    for seed, found in digests.items():
        if len(found) > 1:
            problems.append(f"passes at seed {seed} disagree: digests {sorted(found)}")
    first = digests[main["passes"][0]["seed"]]
    return problems, summaries[0], min(first)


def end_to_end(setups: list[float], main: dict, failed: int, attempted: int) -> dict:
    """Medians over the run's repeats; each repeat is one experiment at its own seed."""
    reps = main["passes"]
    return {
        "setup_s": statistics.median(setups),
        "experiment_s": statistics.median(p["experiment_s"] for p in reps),
        "samples_per_s": statistics.median(p["samples"] / p["experiment_s"] for p in reps),
        "trials_per_s": statistics.median(p["trials"] / p["experiment_s"] for p in reps),
        "cpu_s": statistics.median(p["cpu_s"] for p in reps),
        "peak_rss_mb": main["peak_rss_mb"],
        "failed_trial_frac": failed / attempted,
    }


def per_layer(main: dict) -> dict:
    default, one_thread, traced = main["passes"]
    out = dict(traced["layers"])
    out["cli.import_s"] = main["setup"]["cli.import_s"]
    out["cli.build_problem_s"] = main["setup"]["cli.build_problem_s"]
    out["problems.ground_truth_s"] = main["setup"]["problems.ground_truth_s"]
    out["harness.thread_speedup"] = one_thread["experiment_s"] / default["experiment_s"]
    # both passes run on one thread, so the difference is the tracing alone
    out["trace.overhead_s"] = traced["experiment_s"] - one_thread["experiment_s"]
    out.update(main["probes"])
    return out


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run(root: str, workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record (the JSON result is a subset)."""
    deadline = time.perf_counter() + DEADLINE_S
    workload = WORKLOADS[workload_name]
    work = os.path.join(root, ".bench_work", f"{workload_name}-seed{seed}-{os.getpid()}")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    try:
        config = os.path.join(work, "config.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text(seed))
        setups = []
        if trace:
            main = spawn(root, config, work, "traced", deadline, "--traced")
            shutil.copyfile(os.path.join(work, "spans.jsonl"),
                            os.path.join(out_dir, f"spans-{workload_name}-seed{seed}.jsonl"))
        else:
            for i in range(workload.setups - 1):
                setups.append(spawn(root, config, work, f"setup{i}", deadline,
                                    "--setup-only")["setup_s"])
            main = spawn(root, config, work, "main", deadline, "--seconds", str(seconds))
        setups.append(main["setup_s"])
        problems, summary, digest = check_passes(workload, main)
        attempted = sum(p["trials"] for p in main["passes"])
        failed = sum(p["failed"] for p in main["passes"])
        if problems:
            failed = attempted  # a run whose output check fails counts all its trials as failed
        record = {
            "workload": workload_name, "seed": seed, "trace": int(trace),
            "correct": not problems, "problems": problems, "summary": summary,
            "result_digest": digest,
            "attempted": attempted, "failed": failed,
            "end_to_end": end_to_end(setups, main, failed, attempted) if not trace else None,
            "per_layer": per_layer(main) if trace else None,
            "setups_s": setups,
            "passes": [{k: v for k, v in p.items() if k not in ("layers", "report")}
                       for p in main["passes"]],
            "fingerprint": dict(main["fingerprint"], git_commit=git_commit(root)),
        }
        with open(os.path.join(out_dir, f"result-{workload_name}-seed{seed}-trace{int(trace)}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sastra benchmark: one workload, one seed")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="experiment time to measure in an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sastra", "cli.py")):
        print(f"error: {root} is not a sastra checkout (no src/sastra/cli.py)", file=sys.stderr)
        return 2
    try:
        record = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"check {'PASS' if record['correct'] else 'FAIL'} {json.dumps(record['summary'])}")
    for msg in record["problems"]:
        print(f"  check failed: {msg}")
    print(f"result_digest {record['result_digest']}")
    print(f"trials attempted {record['attempted']} failed {record['failed']}")
    if args.trace:
        values = record["per_layer"]
        units = PER_LAYER
        keys = list(PER_LAYER)
    else:
        values = record["end_to_end"]
        units = dict(END_TO_END)
        keys = [name for name, _ in END_TO_END]
    for name in keys:
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    print(f"fingerprint {json.dumps(record['fingerprint'], sort_keys=True)}")
    shown = keys if args.trace else GATED
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in shown},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
