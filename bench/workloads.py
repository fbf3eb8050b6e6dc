"""The benchmark's workloads: one sastra experiment config each, plus its output check.

A workload is a config template with the workload seed written into
``[problem] seed``; the program receives nothing but that generated config.
Each workload also names the ``sastra`` subcommand that runs the same config,
how many fresh processes measure set-up time, and the check that decides
whether the scientific output of a run is correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import statistics
from dataclasses import dataclass
from typing import Callable

# test_02's planted concept: 2 * 1/sqrt(10) in every coordinate.
_SVM_CONCEPT = ", ".join([repr(2.0 / math.sqrt(10.0))] * 10)

RESTART_CURVE = """\
[problem]
family = norm_power
dimension = 10
sigma = 1.0
s = 2.0
set = l2_ball
radius = 1.0
seed = {seed}

[solver]
algorithm = restart
multiplier = 1.0
start = boundary

[experiment]
mode = rate-curve
epsilons = 0.2, 0.1, 0.05, 0.025, 0.0125
beta = 0.3
trials = 50
"""

SVM_SGD = f"""\
[problem]
family = soft_svm
dimension = 10
x_star = {_SVM_CONCEPT}
pool_size = 1000000
pool_seed = 2024
seed = {{seed}}

[solver]
algorithm = sgd
schedule = constant
start = center

[experiment]
mode = single-run
trials = 50
n = 10000
"""

RIDGE_ERM = """\
[problem]
family = ridge
dimension = 20
sigma = 1.0
set = unconstrained
seed = {seed}

[solver]
algorithm = erm

[experiment]
mode = sample-complexity
epsilons = 0.05
beta = 0.1
trials = 50
"""

# Slope band of test_04 for s = 2: N(eps) ~ eps^-1.
CURVE_SLOPE_BAND = (0.75, 1.25)
# Median soft_svm gap at N = 10^4: 7.49e-3 at seed 2000, 7.44e-3 to 7.47e-3 at
# seeds 0-9.  The band is five times the truth's Monte Carlo error (2.8e-4)
# on either side, so exact ground truth must still pass it.
SVM_MEDIAN_GAP_BAND = (6.0e-3, 9.0e-3)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the sastra subcommand that runs the same config
    template: str
    setups: int  # fresh processes that time set-up in one untraced run
    check: Callable[[str, dict], tuple[list, dict]]
    why: str

    def config_text(self, seed: int) -> str:
        return self.template.format(seed=int(seed))


def _rows(report: str) -> tuple[list[str], list[list[str]], list[str]]:
    """Split a report into header, data rows and '#' comment lines."""
    lines = report.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(ln for ln in lines if ln and not ln.startswith("#")))
    if not rows:
        return [], [], comments
    return rows[0], rows[1:], comments


def _curve_points(report: str, experiment: dict, problems: list) -> list[dict]:
    header, rows, _ = _rows(report)
    if header != ["epsilon", "beta", "N", "trials", "successes"]:
        problems.append(f"unexpected curve header {header}")
        return []
    points = [
        {"epsilon": float(r[0]), "beta": float(r[1]), "n": int(r[2]),
         "trials": int(r[3]), "successes": int(r[4])}
        for r in rows
    ]
    for p in points:
        # a search that hits max_n is saturated; one that stops below it
        # stopped on a probe meeting the success criterion
        if p["n"] >= experiment["max_n"]:
            problems.append(f"eps {p['epsilon']}: search saturated at N={p['n']}")
        elif p["successes"] < (1.0 - p["beta"]) * p["trials"]:
            problems.append(
                f"eps {p['epsilon']}: {p['successes']}/{p['trials']} successes "
                f"at N={p['n']} is below 1 - beta"
            )
    return points


def _fit_slope(points: list[dict]) -> float:
    """Least-squares slope of log N on log eps, computed independently of sastra."""
    xs = [math.log(p["epsilon"]) for p in points]
    ys = [math.log(p["n"]) for p in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def check_curve(report: str, experiment: dict) -> tuple[list[str], dict]:
    """restart_curve: every point unsaturated and -slope inside test_04's band."""
    problems: list[str] = []
    points = _curve_points(report, experiment, problems)
    if len(points) != len(experiment["epsilons"]):
        return problems + [f"{len(points)} curve points, expected {len(experiment['epsilons'])}"], {}
    _, _, comments = _rows(report)
    fit = [c for c in comments if c.startswith("# fit slope=")]
    if len(fit) != 1:
        return problems + ["missing '# fit' line"], {}
    reported = float(fit[0].split()[2].split("=")[1])
    slope = _fit_slope(points)
    if not abs(reported - slope) <= 1e-9 * max(1.0, abs(slope)):
        problems.append(f"reported slope {reported} != refit {slope}")
    lo, hi = CURVE_SLOPE_BAND
    if not lo <= -slope <= hi:
        problems.append(f"exponent {-slope:.4f} outside [{lo}, {hi}]")
    return problems, {"slope": slope, "N": [p["n"] for p in points]}


def check_trials(report: str, experiment: dict) -> tuple[list[str], dict]:
    """svm_sgd: no failed trial, every gap >= 0, median gap inside the band."""
    header, rows, _ = _rows(report)
    if header != ["trial", "seed", "solver", "problem", "N", "gap", "wall_ms"]:
        return [f"unexpected trial header {header}"], {}
    if len(rows) != experiment["trials"]:
        return [f"{len(rows)} trial rows, expected {experiment['trials']}"], {}
    gaps = [float(r[5]) for r in rows]
    if any(not math.isfinite(g) for g in gaps):
        return [f"{sum(not math.isfinite(g) for g in gaps)} failed trials"], {}
    problems = []
    if min(gaps) < 0.0:
        problems.append(f"negative gap {min(gaps)}")
    if any(int(r[4]) != experiment["n"] for r in rows):
        problems.append("trial budget differs from the configured n")
    med = statistics.median(gaps)
    lo, hi = SVM_MEDIAN_GAP_BAND
    if not lo <= med <= hi:
        problems.append(f"median gap {med:.6g} outside [{lo}, {hi}]")
    return problems, {"median_gap": med}


def check_complexity(report: str, experiment: dict) -> tuple[list[str], dict]:
    """ridge_erm: search unsaturated, success fraction at N at least 1 - beta."""
    problems: list[str] = []
    points = _curve_points(report, experiment, problems)
    if len(points) != 1:
        return problems + [f"{len(points)} complexity rows, expected 1"], {}
    return problems, {"N": points[0]["n"], "successes": points[0]["successes"]}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "restart_curve", "curve", RESTART_CURVE, 5, check_curve,
            "thousands of short online runs, cheap closed-form truth: the "
            "per-step sgd_run loop dominates",
        ),
        Workload(
            "svm_sgd", "run", SVM_SGD, 1, check_trials,
            "the only expensive ground truth (10^6-sample pool): set-up, "
            "memory and 3.4 ms gap calls",
        ),
        Workload(
            "ridge_erm", "complexity", RIDGE_ERM, 5, check_complexity,
            "offline path: solve_erm iterations over frozen matrices, no "
            "online loop",
        ),
    )
}


def result_digest(report: str) -> str:
    """sha256 of a report with the wall_ms column removed (timings are not results)."""
    header, rows, _ = _rows(report)
    if "wall_ms" not in header:
        text = report
    else:
        drop = header.index("wall_ms")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        for ln in report.splitlines():
            if ln.startswith("#"):
                buf.write(ln + "\n")
                continue
            for row in csv.reader([ln]):
                w.writerow(row[:drop] + row[drop + 1:])
        text = buf.getvalue()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
