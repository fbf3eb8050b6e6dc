"""Experiment engine: trials, success probabilities, sample-complexity search.

Trials run on one thread, seeded base+1..base+T, so a run depends only on
its config and seed, and the T trial streams of one probe never overlap.
Across probes they are shared by design (measure_curve), and two experiments whose
base seeds differ by d < T share T - d trials.  run_trials hands a
solver all T streams of a probe at once.  The online solvers (sgd, restart,
batched_accel) advance them in lockstep as one (T, n) block of iterates in
one sa_solvers call; the offline ones solve trial after trial.  Either way
trial t equals, bit for bit, a one-trial run at seed base+t, failures
included.  A trial's wall_ms is its block's wall time divided by T.

Sample complexity N(eps, beta) comes from measure_curve, one _search per
epsilon, and each point carries its search's probe table.  Rate exponents
come from least squares in log-log space.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NotApplicableError, SastraError
from .problems import PrefixStore, ProblemInstance
from .sa_solvers import (
    AdaGrad,
    ConstantHorizon,
    Decreasing,
    InverseStrong,
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
    "assert_disjoint_streams",
]

TRIAL_HEADER = ["trial", "seed", "solver", "problem", "N", "gap", "wall_ms"]
CURVE_HEADER = ["epsilon", "beta", "N", "trials", "successes"]
# multiplicative resolution of the sample-complexity bisection
_RESOLUTION = 1.1
# errors that fail a trial; any other exception is a bug and propagates
_TRIAL_ERRORS = (SastraError, FloatingPointError, np.linalg.LinAlgError)
# empirical accuracy the iterative ERM and VR solves certify, and the VR epochs
_ERM_DELTA = 1e-10
_VR_EPOCHS = 400


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
    """One search's result: N and the success count of its probe at N,
    with every probe in probe order as ((n, successes, trials), ...)."""

    epsilon: float
    beta: float
    n: int
    trials: int
    successes: int
    saturated: bool = False
    probes: tuple = ()


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


# ---------------------------------------------------------------------------
# solver adapters: (problem, sample budget, T streams, epsilon, prefix store)
# -> T outcomes, each the trial's point or the error that failed it.  The
# offline adapters draw their n samples through the store, erm and
# regularized_erm by saa.sample_erm and vr_erm by saa.build_empirical; the
# online ones draw as they step and ignore it.  A solver parameter
# that is not a field is fixed here or follows from the problem and epsilon.
# No adapter reads the optimum: run_trials alone grades the points.
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
        return e1  # a simplex vertex, or on free space the centre start plus e1
    raise InputError(f"unknown start mode {mode!r}")


def _radius(problem: ProblemInstance) -> float:
    """The distance scale of the online step sizes: the set's radius, 1 on free space."""
    set_ = problem.feasible_set
    return set_.radius if set_.is_bounded else 1.0


def _row_outcomes(trace) -> list:
    """A block run's outcomes: each row's averaged point, or its error."""
    return [err or point for err, point in zip(trace.row_errors, trace.averaged_point)]


def _each_stream(streams, solve) -> list:
    """Outcomes of an offline solver that solves one trial's stream at a time."""
    outcomes = []
    for stream in streams:
        try:
            outcomes.append(solve(stream))
        except _TRIAL_ERRORS as exc:
            outcomes.append(exc)
    return outcomes


@dataclass(frozen=True)
class SgdSolver:
    """Projected SGD / mirror descent under one of the stepsize policies."""

    schedule: str = "constant"  # constant | inverse_strong | decreasing | adagrad
    start: str = "center"

    @property
    def id(self) -> str:
        return f"sgd[{self.schedule}]"

    def _make_schedule(self, problem, n):
        c = problem.constants()
        radius = _radius(problem)
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

    def run(self, problem, n, streams, epsilon=None, prefixes=None) -> list:
        x0 = _start_point(problem, self.start)
        trace, _ = sgd_run(problem, self._make_schedule(problem, n), n, list(streams), x0)
        return _row_outcomes(trace)


@dataclass(frozen=True)
class RestartSolver:
    """Budgeted restart schedule under the growth condition."""

    beta: float = 0.3
    multiplier: float = 1.0
    start: str = "boundary"

    @property
    def id(self) -> str:
        return "restart"

    def run(self, problem, n, streams, epsilon=None, prefixes=None) -> list:
        x0 = _start_point(problem, self.start)
        trace, _ = restarted_budget_run(
            problem, n, self.beta, _radius(problem), list(streams), x0,
            multiplier=self.multiplier,
        )
        return _row_outcomes(trace)


@dataclass(frozen=True)
class ErmSolver:
    """Freeze n samples, minimize the empirical objective: exactly where it
    has a closed form, else with the certified iterative solver."""

    start: str = "center"

    @property
    def id(self) -> str:
        return "erm"

    def run(self, problem, n, streams, epsilon=None, prefixes=None) -> list:
        x0 = _start_point(problem, self.start)
        return _each_stream(streams, lambda stream: saa.sample_erm(
            problem, n, stream, _ERM_DELTA, x0=x0, prefixes=prefixes)[0].point)


@dataclass(frozen=True)
class RegularizedErmSolver:
    """Tikhonov pipeline; the regularizer weight tracks the probe epsilon."""

    @property
    def id(self) -> str:
        return "regularized_erm"

    def run(self, problem, n, streams, epsilon=None, prefixes=None) -> list:
        if epsilon is None:
            raise InputError("regularized pipeline needs a target epsilon")
        return _each_stream(streams, lambda stream: saa.regularized_pipeline(
            problem, epsilon, n, stream, prefixes)[0].point)


@dataclass(frozen=True)
class VrErmSolver:
    """Freeze n samples, minimize with the variance-reduced epoch solver."""

    @property
    def id(self) -> str:
        return "vr_erm"

    def run(self, problem, n, streams, epsilon=None, prefixes=None) -> list:
        def solve(stream):
            emp, stream = saa.build_empirical(problem, n, stream, prefixes=prefixes)
            return saa.vr_solve(emp, _ERM_DELTA, _VR_EPOCHS, stream).point

        return _each_stream(streams, solve)


@dataclass(frozen=True)
class BatchedAccelSolver:
    """Accelerated minibatch method sized to fit the sample budget."""

    start: str = "center"

    @property
    def id(self) -> str:
        return "batched_accel"

    def run(self, problem, n, streams, epsilon=None, prefixes=None) -> list:
        c = problem.constants()
        x0 = _start_point(problem, self.start)
        radius = _radius(problem)
        # invert total samples N(eps) * r(eps) <= n over the formula pair; the
        # top of the bracket gives N = r = 1, which fits any budget
        lo, hi = 1e-12, max(c.L * radius**2, c.sigma_star_sq / c.L)
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            n_iters, r = minibatch_sizes(c, radius, mid)
            if n_iters * r <= n:
                hi = mid
            else:
                lo = mid
        trace, _ = batched_accelerated_run(problem, hi, list(streams), x0, radius)
        return _row_outcomes(trace)


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
    prefixes: PrefixStore | None = None,
) -> list[TrialResult]:
    """T independent trials with seeds base+1..base+T, run as one block.

    The solver gets the T streams at once, solver.run(problem, n, streams,
    epsilon, prefixes=prefixes), with the prefix store of the search that
    runs the trials (or None), and returns T outcomes in stream order: a
    point of shape (n,), or the exception that failed that trial.  A trial
    fails on a sastra error, a floating-point error or a linear algebra
    error, raised for it alone or by the whole run (which fails every
    trial), and is recorded with its diagnostic; any other exception is a
    bug and propagates.  Trials share no state, so trial t gives the same
    result as a one-trial run at seed base+t: results do not depend on how
    trials are batched.  Each trial's wall_ms is the block's wall time
    (solving and grading) divided by T.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    label = _problem_label(problem)
    seeds = [base_seed + t for t in range(1, trials + 1)]
    t0 = time.perf_counter()
    try:
        outcomes = solver.run(problem, n, [problem.stream(s) for s in seeds], epsilon,
                              prefixes=prefixes)
    except _TRIAL_ERRORS as exc:
        outcomes = [exc] * trials
    gaps = []
    for outcome in outcomes:
        if not isinstance(outcome, Exception):
            try:
                outcome = problem.population_gap(outcome)
            except _TRIAL_ERRORS as exc:
                outcome = exc
        gaps.append(outcome)
    wall_ms = (time.perf_counter() - t0) * 1e3 / trials
    results = []
    for t, (seed, gap) in enumerate(zip(seeds, gaps, strict=True), start=1):
        if isinstance(gap, Exception):
            failed, diag, gap = True, f"{type(gap).__name__}: {gap}", math.nan
        else:
            failed, diag = False, ""
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
) -> CurvePoint:
    """measure_curve's point for the one epsilon; kept only because the
    benchmark (bench/child.py, bench/spans.py) calls it by name."""
    return measure_curve(solver, problem, [epsilon], beta, trials, max_n, base_seed).points[0]


def _search(solver, problem, epsilon, beta, trials, max_n, base_seed, n_start,
            prefixes: PrefixStore) -> CurvePoint:
    """Smallest probed N with empirical success fraction >= 1 - beta.

    Doubles N from min(n_start, max_n) until the criterion holds (saturating
    at max_n), then bisects the bracketing doubling interval, from the last
    failed probe to the first passing one, geometrically until
    hi <= _RESOLUTION * lo.  Every probe runs the same trials, seeds
    base_seed + 1 .. base_seed + trials, so probes differ only in N, and
    draws through the given store.
    """
    if not epsilon > 0 or not 0 < beta < 1:
        raise InputError("need epsilon > 0 and beta in (0, 1)")
    if max_n < 1:
        raise InputError("max_n must be >= 1")
    probes = []

    def succeeds(n: int) -> bool:
        results = run_trials(solver, problem, n, trials, base_seed, epsilon=epsilon,
                             prefixes=prefixes)
        k = sum(1 for r in results if not r.failed and r.gap <= epsilon)
        probes.append((n, k, trials))
        return k / trials >= 1.0 - beta

    def point(n: int, saturated: bool = False) -> CurvePoint:
        k = next(k for (m, k, _t) in reversed(probes) if m == n)
        return CurvePoint(epsilon, beta, n, trials, k, saturated, tuple(probes))

    hi = min(max(1, n_start), max_n)
    if succeeds(hi):
        return point(hi)
    while True:
        if hi >= max_n:
            return point(max_n, saturated=True)
        lo, hi = hi, min(2 * hi, max_n)
        if succeeds(hi):
            break
    while hi > lo * _RESOLUTION:
        mid = max(lo + 1, int(round(math.sqrt(lo * hi))))
        if mid >= hi:
            break
        if succeeds(mid):
            hi = mid
        else:
            lo = mid
    return point(hi)


def measure_curve(
    solver,
    problem: ProblemInstance,
    epsilons,
    beta: float,
    trials: int = 50,
    max_n: int = 1_000_000,
    base_seed: int = 10_000,
) -> SampleComplexityCurve:
    """N(eps, beta) for a decreasing epsilon list, one _search per epsilon.

    Each tighter epsilon starts its doubling search at the previous measured
    N, which both warm-starts the probes and makes the curve monotone by
    construction.  Every point runs the same trials, seeds base_seed + 1 ..
    base_seed + trials, and every probe of every point draws through one
    PrefixStore made for this call and dropped when it returns: an offline
    trial draws the first rows of its stream once and takes them from the
    store at later probes, up to the store's byte cap.  A least-squares ERM
    from N = 2n on keeps only Gram sums of its rows there, two per trial, and
    draws just the rows past the nearest one.  Every result is the same, bit
    for bit, as without the store.
    """
    eps_sorted = sorted(set(float(e) for e in epsilons), reverse=True)
    points = []
    n_start = 1
    prefixes = PrefixStore(problem, trials)
    for eps in eps_sorted:
        points.append(_search(solver, problem, eps, beta, trials, max_n, base_seed, n_start,
                              prefixes))
        n_start = points[-1].n
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
