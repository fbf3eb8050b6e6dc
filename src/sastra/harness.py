"""Experiment engine: trials, success probabilities, sample-complexity search.

Trials run in order on one thread, seeded base+1..base+T, so a run depends
only on its config and seed, and trial streams never overlap.  Sample
complexity N(eps, beta) is located by doubling followed by geometric
bisection, each probe on its own disjoint seed block.  Rate exponents come
from least squares in log-log space.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NotApplicableError, SastraError
from .problems import ProblemInstance
from .sa_solvers import (
    AdaGrad,
    ConstantHorizon,
    Decreasing,
    InverseStrong,
    TargetAccuracy,
    batched_accelerated_run,
    minibatch_sizes,
    restarted_budget_run,
    sgd_run,
)
from . import saa_solvers as saa

__all__ = [
    "TrialResult",
    "CurvePoint",
    "SampleComplexityCurve",
    "ComplexityResult",
    "SgdSolver",
    "RestartSolver",
    "ErmSolver",
    "RegularizedErmSolver",
    "VrErmSolver",
    "BatchedAccelSolver",
    "run_trials",
    "success_probability",
    "find_sample_complexity",
    "measure_curve",
    "fit_rate",
    "write_report",
    "read_report",
    "assert_disjoint_streams",
]

TRIAL_HEADER = ["trial", "seed", "solver", "problem", "N", "gap", "wall_ms"]
CURVE_HEADER = ["epsilon", "beta", "N", "trials", "successes"]
# multiplicative resolution of the sample-complexity bisection
_RESOLUTION = 1.1


@dataclass(frozen=True)
class TrialResult:
    trial: int
    seed: int
    solver: str
    problem: str
    n: int
    gap: float
    wall_ms: float
    failed: bool = False
    diagnostic: str = ""

    def __post_init__(self):
        if not self.failed and self.gap < -1e-10:
            raise InputError(f"population gap {self.gap} below contract floor")


@dataclass(frozen=True)
class CurvePoint:
    epsilon: float
    beta: float
    n: int
    trials: int
    successes: int
    saturated: bool = False


@dataclass(frozen=True)
class SampleComplexityCurve:
    """Measured (eps, N) pairs with a log-log exponent fit when possible."""

    points: tuple
    slope: float = field(init=False)
    intercept: float = field(init=False)
    residual: float = field(init=False)

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        by_eps = sorted(pts, key=lambda p: -p.epsilon)
        for a, b in zip(by_eps, by_eps[1:]):
            if b.n < a.n:
                raise InputError(
                    "measured N must be non-increasing in epsilon "
                    f"(eps {a.epsilon}: N={a.n}, eps {b.epsilon}: N={b.n})"
                )
        if len(pts) >= 2:
            slope, intercept, residual = fit_rate(
                [(p.epsilon, p.n) for p in pts]
            )
        else:
            slope = intercept = residual = math.nan
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "residual", residual)


@dataclass(frozen=True)
class ComplexityResult:
    n: int
    saturated: bool
    probes: tuple  # ((n, successes, trials), ...)


# ---------------------------------------------------------------------------
# solver adapters: (problem, sample budget, stream, epsilon) -> point
# ---------------------------------------------------------------------------


def _start_point(problem: ProblemInstance, mode: str) -> np.ndarray:
    if mode == "center":
        return problem.default_x0()
    if mode == "boundary":
        set_ = problem.feasible_set
        e1 = np.zeros(problem.dimension)
        e1[0] = 1.0
        if set_.kind == "l2_ball" or set_.kind == "l1_ball":
            return set_.center + set_.radius * e1
        if set_.kind == "simplex":
            return e1
        return problem.x_star + e1
    raise InputError(f"unknown start mode {mode!r}")


@dataclass(frozen=True)
class SgdSolver:
    """Projected SGD / mirror descent under one of the stepsize policies."""

    schedule: str = "constant"  # constant | inverse_strong | decreasing | adagrad
    step_multiplier: float = 1.0
    start: str = "center"

    @property
    def id(self) -> str:
        return f"sgd[{self.schedule}]"

    def _make_schedule(self, problem, n):
        c = problem.constants()
        set_ = problem.feasible_set
        radius = set_.radius if set_.is_bounded else 1.0
        radius *= self.step_multiplier
        if self.schedule == "inverse_strong":
            if c.mu_p <= 0:
                raise NotApplicableError("1/(mu k) schedule needs mu_p > 0")
            return InverseStrong(c.mu_p)
        if self.schedule == "adagrad":
            return AdaGrad(R=radius)
        if not math.isfinite(c.M_p):
            raise NotApplicableError(f"{self.schedule} schedule needs finite M_p")
        if self.schedule == "constant":
            return ConstantHorizon(R=radius, M=c.M_p, N=n)
        if self.schedule == "decreasing":
            return Decreasing(R=radius, M=c.M_p)
        raise InputError(f"unknown schedule {self.schedule!r}")

    def run(self, problem, n, stream, epsilon=None) -> np.ndarray:
        x0 = _start_point(problem, self.start)
        trace, _ = sgd_run(problem, self._make_schedule(problem, n), n, stream, x0)
        return trace.averaged_point


@dataclass(frozen=True)
class RestartSolver:
    """Budgeted restart schedule under the growth condition."""

    beta: float = 0.3
    multiplier: float = 1.0
    start: str = "boundary"
    radius: float | None = None

    @property
    def id(self) -> str:
        return "restart"

    def run(self, problem, n, stream, epsilon=None) -> np.ndarray:
        x0 = _start_point(problem, self.start)
        r1 = self.radius
        if r1 is None:
            r1 = max(float(np.linalg.norm(x0 - problem.x_star)), 1e-8)
        trace, _ = restarted_budget_run(
            problem, n, self.beta, r1, stream, x0, multiplier=self.multiplier
        )
        return trace.averaged_point


@dataclass(frozen=True)
class ErmSolver:
    """Freeze n samples, minimize the empirical objective."""

    delta: float = 1e-10
    budget: int = 100_000
    start: str = "center"

    @property
    def id(self) -> str:
        return "erm"

    def run(self, problem, n, stream, epsilon=None) -> np.ndarray:
        emp, _ = saa.build_empirical(problem, n, stream)
        res = saa.solve_erm(emp, self.delta, budget=self.budget,
                            x0=_start_point(problem, self.start))
        return res.point


@dataclass(frozen=True)
class RegularizedErmSolver:
    """Tikhonov pipeline; the regularizer weight tracks the probe epsilon."""

    beta: float = 0.1
    budget: int = 100_000

    @property
    def id(self) -> str:
        return "regularized_erm"

    def run(self, problem, n, stream, epsilon=None) -> np.ndarray:
        if epsilon is None:
            raise InputError("regularized pipeline needs a target epsilon")
        target = TargetAccuracy(epsilon=epsilon, beta=self.beta)
        res, _ = saa.regularized_pipeline(problem, target, n, stream, budget=self.budget)
        return res.point


@dataclass(frozen=True)
class VrErmSolver:
    """Freeze n samples, minimize with the variance-reduced epoch solver."""

    delta: float = 1e-10
    epoch_budget: int = 400

    @property
    def id(self) -> str:
        return "vr_erm"

    def run(self, problem, n, stream, epsilon=None) -> np.ndarray:
        emp, stream = saa.build_empirical(problem, n, stream)
        res = saa.vr_solve(emp, self.delta, self.epoch_budget, stream)
        return res.point


@dataclass(frozen=True)
class BatchedAccelSolver:
    """Accelerated minibatch method sized to fit the sample budget."""

    start: str = "center"

    @property
    def id(self) -> str:
        return "batched_accel"

    def run(self, problem, n, stream, epsilon=None) -> np.ndarray:
        c = problem.constants()
        x0 = _start_point(problem, self.start)
        radius = max(float(np.linalg.norm(x0 - problem.x_star)), 1e-8)
        # invert total samples N(eps) * r(eps) <= n over the formula pair
        lo, hi = 1e-12, c.L * radius**2
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            n_iters, r = minibatch_sizes(c, radius, mid)
            if n_iters * r <= n:
                hi = mid
            else:
                lo = mid
        target = TargetAccuracy(epsilon=hi, beta=0.5)
        trace, _ = batched_accelerated_run(problem, target, stream, x0, radius=radius)
        return trace.averaged_point


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------


def _problem_label(problem: ProblemInstance) -> str:
    return f"{problem.family}(n={problem.dimension})"


def run_trials(
    solver,
    problem: ProblemInstance,
    n: int,
    trials: int,
    base_seed: int,
    epsilon: float | None = None,
) -> list[TrialResult]:
    """T independent trials with seeds base+1..base+T, run in trial order.

    A trial that raises a sastra error, a floating-point error or a linear
    algebra error is recorded as failed with its diagnostic and the run
    continues; any other exception is a bug and propagates.  Trials share no
    state, so trial t gives the same result as a one-trial run at seed
    base+t: results do not depend on how trials are batched.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    label = _problem_label(problem)
    results = []
    for t in range(1, trials + 1):
        seed = base_seed + t
        t0 = time.perf_counter()
        try:
            point = solver.run(problem, n, problem.stream(seed), epsilon)
            gap = problem.population_gap(point)
            failed, diag = False, ""
        except (SastraError, FloatingPointError, np.linalg.LinAlgError) as exc:
            gap, failed, diag = math.nan, True, f"{type(exc).__name__}: {exc}"
        wall_ms = (time.perf_counter() - t0) * 1e3
        results.append(
            TrialResult(t, seed, solver.id, label, n, gap, wall_ms, failed, diag)
        )
    return results


def assert_disjoint_streams(results: list[TrialResult]) -> None:
    """Stream accounting: every trial must own a distinct seed."""
    seeds = [r.seed for r in results]
    if len(set(seeds)) != len(seeds):
        raise InputError("trials share a sample stream seed")


def success_probability(results: list[TrialResult], epsilon: float):
    """Fraction of trials with gap <= epsilon plus a 95% Wilson interval."""
    if not results:
        raise InputError("success_probability needs at least one trial")
    t = len(results)
    k = sum(1 for r in results if not r.failed and r.gap <= epsilon)
    p = k / t
    z = 1.959963984540054
    denom = 1.0 + z * z / t
    center = (p + z * z / (2 * t)) / denom
    half = z * math.sqrt(p * (1.0 - p) / t + z * z / (4 * t * t)) / denom
    return p, (max(0.0, center - half), min(1.0, center + half))


def find_sample_complexity(
    solver,
    problem: ProblemInstance,
    epsilon: float,
    beta: float,
    trials: int = 50,
    max_n: int = 1_000_000,
    base_seed: int = 10_000,
    n_start: int = 1,
) -> ComplexityResult:
    """Smallest probed N with empirical success fraction >= 1 - beta.

    Doubles N from n_start until the criterion holds (saturating at max_n),
    then bisects the bracketing doubling interval geometrically until
    hi <= _RESOLUTION * lo.  Probe i draws seeds from its own disjoint block
    base_seed + i * trials + 1 .. + trials.
    """
    if epsilon <= 0 or not 0 < beta < 1:
        raise InputError("need epsilon > 0 and beta in (0, 1)")
    probes = []
    probe_idx = 0

    def succeeds(n: int) -> bool:
        nonlocal probe_idx
        seed = base_seed + probe_idx * trials
        probe_idx += 1
        results = run_trials(solver, problem, n, trials, seed, epsilon=epsilon)
        k = sum(1 for r in results if not r.failed and r.gap <= epsilon)
        probes.append((n, k, trials))
        return k / trials >= 1.0 - beta

    n = max(1, n_start)
    if succeeds(n):
        return ComplexityResult(n, False, tuple(probes))
    while True:
        if n >= max_n:
            return ComplexityResult(max_n, True, tuple(probes))
        n = min(2 * n, max_n)
        if succeeds(n):
            break
    lo, hi = n // 2, n
    while hi > lo * _RESOLUTION:
        mid = max(lo + 1, int(round(math.sqrt(lo * hi))))
        if mid >= hi:
            break
        if succeeds(mid):
            hi = mid
        else:
            lo = mid
    return ComplexityResult(hi, False, tuple(probes))


def measure_curve(
    solver,
    problem: ProblemInstance,
    epsilons,
    beta: float,
    trials: int = 50,
    max_n: int = 1_000_000,
    base_seed: int = 10_000,
) -> SampleComplexityCurve:
    """N(eps, beta) for a decreasing epsilon list.

    Each tighter epsilon starts its doubling search at the previous measured
    N, which both warm-starts the probes and makes the curve monotone by
    construction.
    """
    eps_sorted = sorted(set(float(e) for e in epsilons), reverse=True)
    points = []
    n_start = 1
    block = 0
    for eps in eps_sorted:
        res = find_sample_complexity(
            solver, problem, eps, beta, trials=trials, max_n=max_n,
            base_seed=base_seed + block * 1_000_000, n_start=n_start,
        )
        k_at = next((k for (n, k, t) in reversed(res.probes) if n == res.n), 0)
        points.append(CurvePoint(eps, beta, res.n, trials, k_at, res.saturated))
        n_start = res.n
        block += 1
    return SampleComplexityCurve(tuple(points))


def fit_rate(points) -> tuple[float, float, float]:
    """Least squares of log y on log x; returns (slope, intercept, residual)."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise InputError("fit_rate needs at least two points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise InputError("fit_rate needs strictly positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2)))


# ---------------------------------------------------------------------------
# CSV reporting
# ---------------------------------------------------------------------------


def write_report(data, path) -> None:
    """CSV report: trial lists and complexity curves, one schema each.

    Curve reports end with a '# fit ...' line carrying the fitted exponents;
    trial reports are plain.  Failures surface the path in the error message.
    """
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if isinstance(data, SampleComplexityCurve):
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(CURVE_HEADER)
                for p in data.points:
                    w.writerow([repr(float(p.epsilon)), repr(float(p.beta)), p.n, p.trials, p.successes])
                if math.isnan(data.slope):
                    fh.write("# fit slope=nan intercept=nan residual=nan\n")
                else:
                    fh.write(
                        f"# fit slope={data.slope!r} intercept={data.intercept!r} "
                        f"residual={data.residual!r}\n"
                    )
            else:
                # trial schema carries no summary line: header plus one row per trial
                results = list(data)
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(TRIAL_HEADER)
                for r in results:
                    w.writerow(
                        [r.trial, r.seed, r.solver, r.problem, r.n,
                         repr(float(r.gap)), f"{r.wall_ms:.3f}"]
                    )
    except OSError as exc:
        raise InputError(f"cannot write report to {path}: {exc}") from exc


def read_report(path) -> tuple[list[str], list[list[str]]]:
    """Parse a report back into (header, records), skipping summary lines."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    except OSError as exc:
        raise InputError(f"cannot read report from {path}: {exc}") from exc
    if not rows:
        raise InputError(f"report {path} is empty")
    return rows[0], rows[1:]
