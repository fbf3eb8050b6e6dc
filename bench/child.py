"""One benchmark run of sastra in a fresh process: a set-up phase, then passes of the experiment.

Started by run.py, never by hand:

    python bench/child.py --root CHECKOUT --config CFG --work DIR --result OUT.json
                          [--setup-only] [--seconds S] [--traced]

Set-up phase: import sastra, parse the config, ``cli.build_problem``,
``cli.build_solver``, then one ``population_gap`` call that forces any lazy
ground truth.  The process prints ``READY`` when set-up is done, so the
parent times set-up from process start.

Experiment phase: the ``harness`` calls ``cli.dispatch`` makes for the
config's mode, with its seeds, then ``harness.write_report``.  Untraced, the
pass repeats until ``--seconds`` of experiment time are spent; repeat j runs
the config with its seed raised by j * SUBSEED_STRIDE, so one run averages
over several search paths.  Traced, it runs the config once with the
program's thread count, once with ``SASTRA_THREADS=1``, once traced (also on
one thread, which the span stack needs), then the fixed-size layer probes.
Measurements go to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time

# Seed offset between the repeats of one run.  A rate-curve search touches
# trial seeds up to about seed + 5 * 10^6, so repeats never share a stream.
SUBSEED_STRIDE = 10_000_000


class TrialLedger:
    """Counts what each run_trials call returns: one probe, its trials and failures."""

    def __init__(self):
        self.probes = 0
        self.trials = 0
        self.failed = 0
        self.samples = 0
        self.wall_ms: list[float] = []

    def wrap(self, run_trials):
        def counted(*args, **kwargs):
            results = run_trials(*args, **kwargs)
            self.probes += 1
            self.trials += len(results)
            self.failed += sum(1 for r in results if r.failed)
            self.samples += sum(r.n for r in results)
            self.wall_ms.extend(r.wall_ms for r in results)
            return results
        return counted


def experiment(harness, config, problem, solver, out_path) -> None:
    """The experiment phase of cli.dispatch for the config's mode."""
    e = config.section("experiment")
    seed = config.section("problem")["seed"]
    eps = e.get("epsilons")
    mode = e["mode"]
    if mode == "single-run":
        results = harness.run_trials(
            solver, problem, e["n"], e["trials"], seed, epsilon=eps[0] if eps else None
        )
        harness.assert_disjoint_streams(results)
        data = results
    elif mode == "sample-complexity":
        res = harness.find_sample_complexity(
            solver, problem, eps[0], e["beta"], trials=e["trials"],
            max_n=e["max_n"], base_seed=seed + 10_000,
        )
        k_at = next((k for (n_, k, _t) in reversed(res.probes) if n_ == res.n), 0)
        data = harness.SampleComplexityCurve(
            (harness.CurvePoint(eps[0], e["beta"], res.n, e["trials"], k_at, res.saturated),)
        )
    elif mode == "rate-curve":
        data = harness.measure_curve(
            solver, problem, eps, e["beta"], trials=e["trials"],
            max_n=e["max_n"], base_seed=seed + 10_000,
        )
    else:
        raise ValueError(f"mode {mode!r} is not a benchmark workload")
    harness.write_report(data, out_path)


def with_seed(config, seed: int):
    """The config with ``[problem] seed`` replaced, as the program would parse it."""
    problem = dict(config.problem, seed=seed)
    return dataclasses.replace(config, problem=tuple(sorted(problem.items())))


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(sastra, config, problem, solver, work, label, tracer=None, threads=None):
    """One experiment pass; returns its measurements and, traced, its layer metrics."""
    from spans import instrumentation, patched

    harness = sastra.harness
    ledger = TrialLedger()
    out_path = os.path.join(work, f"{label}.csv")
    saved_env = os.environ.get("SASTRA_THREADS")
    if threads is not None:
        os.environ["SASTRA_THREADS"] = str(threads)
    try:
        with patched([(harness, "run_trials", ledger.wrap(harness.run_trials))]):
            run, traced = experiment, []
            if tracer is not None:
                run = tracer.span("cli.experiment", experiment)
                traced = instrumentation(tracer, sastra, type(solver))
            with patched(traced):
                c0, t0 = time.process_time(), time.perf_counter()
                run(harness, config, problem, solver, out_path)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if saved_env is None:
            os.environ.pop("SASTRA_THREADS", None)
        else:
            os.environ["SASTRA_THREADS"] = saved_env
    measured = {
        "label": label, "seed": config.section("problem")["seed"], "report": out_path,
        "experiment_s": wall, "cpu_s": cpu,
        "probes": ledger.probes, "trials": ledger.trials, "failed": ledger.failed,
        "samples": ledger.samples,
    }
    if tracer is not None:
        measured["layers"] = layer_metrics(tracer, ledger)
    return measured


def layer_metrics(tracer, ledger) -> dict:
    """Per-layer metrics of one traced pass (see bench/README.md for the mapping)."""
    get = tracer.stat

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    out = {}
    for name in ("problems.draw_block", "problems.population_gap", "sa_solvers.sgd_run",
                 "sa_solvers.restart_stage_plan", "sa_solvers.restarted_budget_run",
                 "geometry.step", "geometry.project", "saa_solvers.build_empirical",
                 "saa_solvers.solve_erm"):
        out[f"{name}.calls"] = get(name).calls
        out[f"{name}.self_s"] = get(name).self_s
    draw, gap = get("problems.draw_block"), get("problems.population_gap")
    sgd, erm = get("sa_solvers.sgd_run"), get("saa_solvers.solve_erm")
    rows = draw.extra.get("rows", 0)
    steps = sgd.extra.get("steps", 0)
    iters = erm.extra.get("iterations", 0)
    out["problems.draw_block.rows"] = rows
    out["problems.draw_block.us_per_row"] = ratio(draw.self_s, rows, 1e6)
    out["problems.population_gap.ms_per_call"] = ratio(gap.self_s, gap.calls, 1e3)
    out["sa_solvers.sgd_run.steps"] = steps
    out["sa_solvers.sgd_run.us_per_step"] = ratio(sgd.total_s, steps, 1e6)
    out["saa_solvers.solve_erm.iterations"] = iters
    out["saa_solvers.solve_erm.us_per_iteration"] = ratio(erm.total_s, iters, 1e6)
    out["saa_solvers.solve_erm.certified_frac"] = ratio(erm.extra.get("certified", 0), erm.calls)
    out["saa_solvers.solve_erm.budget_exhausted"] = erm.extra.get("budget_exhausted", 0)
    out["harness.probes"] = ledger.probes
    out["harness.trials"] = ledger.trials
    out["harness.run_trials.self_s"] = get("harness.run_trials").self_s
    out["harness.trial_ms.p50"] = _percentile(ledger.wall_ms, 50)
    out["harness.trial_ms.p90"] = _percentile(ledger.wall_ms, 90)
    out["harness.write_report_s"] = get("harness.write_report").total_s
    modules = tracer.module_self_s()
    for module in ("cli", "harness", "sa_solvers", "saa_solvers", "problems", "geometry",
                   "sliding"):
        out[f"{module}.self_s"] = modules.get(module, 0.0)
    out["trace.experiment_s"] = get("cli.experiment").total_s
    return out


def fingerprint() -> dict:
    """Interpreter, numerical libraries and thread settings of this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.executable,
        "python_version": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "SASTRA_THREADS": os.environ.get("SASTRA_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(args.root, "src"))
    import sastra
    from sastra import cli

    t1 = time.perf_counter()
    with open(args.config, encoding="utf-8") as fh:
        config = cli.parse_config(fh.read())
    t2 = time.perf_counter()
    problem = cli.build_problem(config)
    t3 = time.perf_counter()
    solver = cli.build_solver(config)
    t4 = time.perf_counter()
    problem.population_gap(problem.default_x0())
    t5 = time.perf_counter()
    print("READY", flush=True)

    result = {
        "setup": {
            "cli.import_s": t1 - t0,
            "cli.parse_config_s": t2 - t1,
            "cli.build_problem_s": t3 - t2,
            "cli.build_solver_s": t4 - t3,
            "problems.ground_truth_s": t5 - t4,
        },
        "experiment": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in config.section("experiment").items()},
        "passes": [],
        "fingerprint": fingerprint(),
    }
    if not args.setup_only:
        passes = result["passes"]
        if args.traced:
            from spans import Tracer
            import layer_probes

            passes.append(run_pass(sastra, config, problem, solver, args.work, "default"))
            passes.append(run_pass(sastra, config, problem, solver, args.work, "one_thread",
                                   threads=1))
            tracer = Tracer()
            passes.append(run_pass(sastra, config, problem, solver, args.work, "traced",
                                   tracer=tracer, threads=1))
            tracer.write(os.path.join(args.work, "spans.jsonl"))
            result["probes"] = layer_probes.run_all(sastra)
        else:
            spent, seed = 0.0, config.section("problem")["seed"]
            while not passes or spent < args.seconds:
                j = len(passes)
                passes.append(run_pass(sastra, with_seed(config, seed + j * SUBSEED_STRIDE),
                                       problem, solver, args.work, f"rep{j}"))
                spent += passes[-1]["experiment_s"]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
