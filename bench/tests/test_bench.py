"""Tests of the benchmark itself: report equivalence, determinism, checks, metric names.

    python3 -m pytest bench/tests -q

The workload configs are shrunk here (fewer trials, a smaller soft_svm pool)
so the tests take seconds; the full workloads run through bench/run.py.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
import layer_probes  # noqa: E402
import run  # noqa: E402
import sastra  # noqa: E402
from sastra import cli  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_complexity,
    check_curve,
    check_trials,
    result_digest,
)

SHRINK = {
    "restart_curve": [("0.2, 0.1, 0.05, 0.025, 0.0125", "0.2, 0.1"), ("trials = 50", "trials = 6")],
    "svm_sgd": [("pool_size = 1000000", "pool_size = 5000"), ("n = 10000", "n = 300"),
                ("trials = 50", "trials = 4")],
    "ridge_erm": [("epsilons = 0.05", "epsilons = 0.3"), ("trials = 50", "trials = 5")],
}
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def small_config(name: str, seed: int = 2000) -> str:
    text = WORKLOADS[name].config_text(seed)
    for old, new in SHRINK[name]:
        assert old in text
        text = text.replace(old, new)
    return text


def build(text):
    config = cli.parse_config(text)
    return config, cli.build_problem(config), cli.build_solver(config)


@pytest.mark.parametrize("repeat", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_report_matches_cli(name, repeat, tmp_path, capsys):
    """Each repeat's report is the CLI's report for the config at the repeat's seed,
    byte for byte outside wall_ms."""
    seed = 2000 + repeat * child.SUBSEED_STRIDE
    cfg_path = tmp_path / "config.ini"
    cfg_path.write_text(small_config(name, seed), encoding="utf-8")
    config, problem, solver = build(small_config(name))
    ours = tmp_path / "ours.csv"
    child.experiment(sastra.harness, child.with_seed(config, seed), problem, solver, str(ours))
    theirs = tmp_path / "cli.csv"
    assert cli.main([WORKLOADS[name].command, "--config", str(cfg_path), "--out", str(theirs)]) == 0
    a, b = ours.read_text(encoding="utf-8"), theirs.read_text(encoding="utf-8")
    assert result_digest(a) == result_digest(b)
    if name != "svm_sgd":  # only trial reports carry wall_ms
        assert a == b


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_passes_agree_on_digest(name, tmp_path):
    """Two untraced passes, a one-thread pass and a traced pass give one digest."""
    config, problem, solver = build(small_config(name))
    work = str(tmp_path)
    passes = [
        child.run_pass(sastra, config, problem, solver, work, "a"),
        child.run_pass(sastra, config, problem, solver, work, "b"),
        child.run_pass(sastra, config, problem, solver, work, "one", threads=1),
        child.run_pass(sastra, config, problem, solver, work, "traced", tracer=Tracer(), threads=1),
    ]
    digests = {result_digest(open(p["report"], encoding="utf-8").read()) for p in passes}
    assert len(digests) == 1
    assert len({p["trials"] for p in passes}) == 1


def _curve(points, slope=None):
    lines = ["epsilon,beta,N,trials,successes"]
    lines += [f"{e!r},0.3,{n},50,{k}" for e, n, k in points]
    if slope is None:
        xs = [math.log(e) for e, _, _ in points]
        ys = [math.log(n) for _, n, _ in points]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    lines.append(f"# fit slope={slope!r} intercept=0.0 residual=0.0")
    return "\n".join(lines) + "\n"


CURVE_EXP = {"epsilons": [0.2, 0.1, 0.05, 0.025, 0.0125], "max_n": 1_000_000}
EPS = CURVE_EXP["epsilons"]


def test_check_curve_accepts_and_rejects():
    good = _curve([(e, round(20 / e), 40) for e in EPS])
    assert check_curve(good, CURVE_EXP)[0] == []
    steep = _curve([(e, round(2 / e**2), 40) for e in EPS])
    assert any("outside" in p for p in check_curve(steep, CURVE_EXP)[0])
    saturated = _curve([(e, min(round(20 / e), 1500), 40) for e in EPS[:-1]] + [(EPS[-1], 1_000_000, 12)])
    assert any("saturated" in p for p in check_curve(saturated, CURVE_EXP)[0])
    short = _curve([(e, round(20 / e), 30) for e in EPS])  # 30/50 < 1 - 0.3
    assert any("below 1 - beta" in p for p in check_curve(short, CURVE_EXP)[0])
    shifted_fit = _curve([(e, round(20 / e), 40) for e in EPS], slope=-0.5)
    assert any("refit" in p for p in check_curve(shifted_fit, CURVE_EXP)[0])


def _trials(gaps, n=10_000):
    lines = ["trial,seed,solver,problem,N,gap,wall_ms"]
    lines += [f"{t},{2000 + t},sgd[constant],soft_svm(n=10),{n},{g!r},1.000"
              for t, g in enumerate(gaps, 1)]
    return "\n".join(lines) + "\n"


TRIAL_EXP = {"trials": 50, "n": 10_000}


def test_check_trials_accepts_and_rejects():
    gaps = [0.0075 + 1e-5 * (t - 25) for t in range(50)]
    assert check_trials(_trials(gaps), TRIAL_EXP)[0] == []
    assert any("negative" in p for p in check_trials(_trials(gaps[:-1] + [-1e-3]), TRIAL_EXP)[0])
    assert any("failed" in p for p in check_trials(_trials(gaps[:-1] + [math.nan]), TRIAL_EXP)[0])
    assert any("median" in p for p in check_trials(_trials([3 * g for g in gaps]), TRIAL_EXP)[0])
    assert any("rows" in p for p in check_trials(_trials(gaps[:-1]), TRIAL_EXP)[0])


def test_check_complexity_accepts_and_rejects():
    exp = {"epsilons": [0.05], "max_n": 1_000_000}

    def report(n, k):
        return f"epsilon,beta,N,trials,successes\n0.05,0.1,{n},50,{k}\n# fit slope=nan intercept=nan residual=nan\n"

    assert check_complexity(report(609, 46), exp)[0] == []
    assert any("saturated" in p for p in check_complexity(report(1_000_000, 20), exp)[0])
    assert any("below 1 - beta" in p for p in check_complexity(report(609, 44), exp)[0])


def test_digest_ignores_wall_ms_only():
    gaps = [0.0075] * 3
    a = _trials(gaps, n=10)
    assert result_digest(a) == result_digest(a.replace("1.000", "9.999"))
    assert result_digest(a) != result_digest(a.replace("0.0075", "0.0076"))


def test_metric_names_and_emission(tmp_path):
    """Every metric is named validly, BENCHMARK.json agrees, a traced run emits them all."""
    names = [n for n, _ in run.END_TO_END] + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = dict(run.END_TO_END) | run.PER_LAYER
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert declared == {n: units[n] for n in declared}
    assert {m["name"] for m in spec["end_to_end"]} == set(run.GATED)
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)

    config, problem, solver = build(small_config("restart_curve"))
    work = str(tmp_path)
    tracer = Tracer()
    main = {
        "setup": {"cli.import_s": 0.1, "cli.build_problem_s": 0.01,
                  "problems.ground_truth_s": 0.0},
        "passes": [
            child.run_pass(sastra, config, problem, solver, work, "default"),
            child.run_pass(sastra, config, problem, solver, work, "one", threads=1),
            child.run_pass(sastra, config, problem, solver, work, "traced", tracer=tracer,
                           threads=1),
        ],
        "probes": layer_probes.run_all(sastra),
    }
    layers = run.per_layer(main)
    assert set(layers) == set(run.PER_LAYER)
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in layers.values())
    modules = sum(layers[f"{m}.self_s"] for m in run.MODULES)
    assert modules == pytest.approx(layers["trace.experiment_s"], rel=1e-9)
    assert layers["harness.trials"] == 6 * layers["harness.probes"]
    assert layers["geometry.step.calls"] == layers["sa_solvers.sgd_run.steps"]


def test_run_refuses_directory_without_program(tmp_path):
    """Outside a checkout the benchmark exits nonzero without printing a result."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                           "restart_curve", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
