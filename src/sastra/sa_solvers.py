"""Online solvers: projected SGD / mirror descent, restarts, batched acceleration.

All solvers consume samples through a SampleStream, never a global RNG, so a
run is a pure function of (problem, schedule, seed, x0).  Averages are kept
as running sums over two windows: the full iterate sequence x^1..x^N and its
tail half, which avoids storing trajectories on long runs.

Every solver takes a list of T streams and advances them in lockstep: it
steps a (T, n) block of iterates, one row per stream, with row-wise oracles
and projections, and returns a trace of (T, n) blocks.  Sample i of a stream
is a pure function of (seed, i), so row t of a block run equals, bit for
bit, a run on stream t alone.  A row that fails records its error on the
trace and the other rows carry on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateInputError,
    InputError,
    NotApplicableError,
    PreconditionError,
    SastraError,
)
from .geometry import contains, make_mirror_stepper, project, row_dot
from .problems import ProblemInstance

__all__ = [
    "ConstantHorizon",
    "InverseStrong",
    "Decreasing",
    "AdaGrad",
    "RunTrace",
    "RunAborted",
    "sgd_run",
    "restart_stage_plan",
    "restarted_budget_run",
    "minibatch_sizes",
    "batched_accelerated_run",
]

# Samples drawn at once across the rows of a block (T rows x chunk steps);
# also the step interval at which iterates are tested for finiteness.
_BLOCK_ROWS = 1 << 14
# Smallest restart stage, and the smallest leftover a partial stage runs on.
_N_MIN = 8
# Longest restart schedule the budgeted search considers.
_MAX_STAGES = 63


class RunAborted(SastraError):
    """A solver run hit a non-finite gradient or iterate."""


# ---------------------------------------------------------------------------
# step-size schedules
# ---------------------------------------------------------------------------


@dataclass
class ConstantHorizon:
    """gamma_k = R / (M sqrt N): the fixed-horizon policy for convex runs.  At M = 0
    every sample gradient vanishes on the set, any step is exact: R / sqrt N."""

    R: float
    M: float
    N: int

    kind = "constant_horizon"

    def __post_init__(self):
        if self.R <= 0 or self.M < 0 or self.N < 1:
            raise InputError("ConstantHorizon needs R > 0, M >= 0, N >= 1")

    def fresh(self):
        return self

    def step(self, k: int, g) -> float:
        return self.R / ((self.M or 1.0) * math.sqrt(self.N))


@dataclass
class InverseStrong:
    """gamma_k = 1 / (mu k): the telescoping strongly convex policy."""

    mu: float

    kind = "inverse_strong"

    def __post_init__(self):
        if self.mu <= 0:
            raise InputError("InverseStrong needs mu > 0")

    def fresh(self):
        return self

    def step(self, k: int, g) -> float:
        return 1.0 / (self.mu * k)


@dataclass
class Decreasing:
    """gamma_k = R / (M sqrt k), or R / sqrt k at M = 0: horizon-free ConstantHorizon."""

    R: float
    M: float

    kind = "decreasing"

    def __post_init__(self):
        if self.R <= 0 or self.M < 0:
            raise InputError("Decreasing needs R > 0, M >= 0")

    def fresh(self):
        return self

    def step(self, k: int, g) -> float:
        return self.R / ((self.M or 1.0) * math.sqrt(k))


@dataclass
class AdaGrad:
    """gamma_k = R / sqrt(sum_{j<=k} ||g^j||_2^2), accumulated in place.

    A schedule instance carries its accumulator; solvers take a fresh copy so
    identical runs stay identical.  On a (T, n) block of gradients it keeps
    one accumulator per row and returns steps shaped (T, 1).  With an
    all-zero history the class constant gamma_max is returned instead of
    dividing by zero.
    """

    R: float
    accumulated: float = 0.0

    kind = "adagrad"
    gamma_max = 1e6

    def __post_init__(self):
        if self.R <= 0 or self.accumulated < 0:
            raise InputError("AdaGrad needs R > 0, accumulator >= 0")

    def fresh(self):
        return replace(self, accumulated=0.0)

    def step(self, k: int, g):
        if g is None:
            raise InputError("AdaGrad needs the current gradient")
        g = np.asarray(g, dtype=float)
        self.accumulated = self.accumulated + row_dot(g, g)
        acc = self.accumulated
        return np.divide(self.R, np.sqrt(acc), out=np.full_like(acc, self.gamma_max),
                         where=acc != 0.0)


# ---------------------------------------------------------------------------
# run traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Outcome of one solver run on T streams, one row per stream.

    iterations      number of update steps N
    final_point     x^{N+1}
    average_full    mean of x^1..x^N
    average_tail    mean of the last ceil(N/2) pre-update iterates
    averaged_point  the window the solver's policy selected
    oracle_calls    stochastic-gradient evaluations consumed (per trial)
    row_errors      per row: None, or the error that failed it

    Every point is a (T, n) block.  A trace holds points only: the harness
    grades them against the population optimum, which no solver reads.
    """

    iterations: int
    final_point: np.ndarray
    average_full: np.ndarray
    average_tail: np.ndarray
    averaged_point: np.ndarray
    oracle_calls: int
    row_errors: tuple = ()


# ---------------------------------------------------------------------------
# projected SGD / mirror descent
# ---------------------------------------------------------------------------


def sgd_run(
    problem: ProblemInstance,
    schedule,
    n_steps: int,
    streams,
    x0,
):
    """Run x^{k+1} = mirror_step(Q, x^k, grad f(x^k, xi^k), gamma_k), k = 1..N.

    ``streams`` is a list of T SampleStreams advanced in lockstep as a (T, n)
    block of iterates, row t drawing from stream t.  x0 is one start point
    (n,) for every row, or a (T, n) block.  Each step is one Python
    iteration for all rows: the T samples of step k are drawn side by side
    (at most _BLOCK_ROWS samples per draw), and the subgradient, the
    schedule and the mirror step act row by row, so row t equals a run on
    stream t alone, bit for bit.

    Averages the pre-update iterates x^1..x^N.  Consumes exactly n_steps
    samples from each stream and returns the advanced streams alongside
    the trace.  The averaged point is the tail-half average under the
    strongly convex 1/(mu k) policy and the full average otherwise; both
    windows are on the trace.

    A row whose start _start_block rejects, or found non-finite at a
    finiteness test (every _BLOCK_ROWS steps and at the end) with
    RunAborted, records the error in ``trace.row_errors``; the other rows
    carry on.
    """
    if n_steps < 1:
        raise InputError("n_steps must be >= 1")
    streams = list(streams)
    rows = len(streams)
    set_ = problem.feasible_set
    x, errors = _start_block(problem, x0, rows)
    tail_window = getattr(schedule, "kind", "") == "inverse_strong"

    schedule = schedule.fresh()
    stepper = make_mirror_stepper(set_)
    subgrad = problem._subgrad

    sum_full = np.zeros_like(x)
    sum_tail = np.zeros_like(x)
    tail_from = n_steps - (n_steps + 1) // 2 + 1  # first k in the tail window

    constant_gamma = None
    if getattr(schedule, "kind", "") == "constant_horizon":
        constant_gamma = schedule.step(1, None)

    # a power of two, so the finiteness tests fall on the same steps for any T
    chunk = 1 << max(0, (_BLOCK_ROWS // rows).bit_length() - 1)
    k = 0
    while k < n_steps:
        take = min(n_steps - k, chunk)
        drawn = np.empty((take, rows, problem.sample_width))
        for t, stream in enumerate(streams):
            drawn[:, t], streams[t] = stream.draw_block(take)
        for xi in drawn:  # xi: the (T, width) samples of step k
            k += 1
            sum_full += x
            if k >= tail_from:
                sum_tail += x
            g = subgrad(x, xi)
            gamma = constant_gamma if constant_gamma is not None else schedule.step(k, g)
            x = stepper(x, g, gamma)
        if k % _BLOCK_ROWS == 0 or k == n_steps:
            for t in np.flatnonzero(~np.isfinite(x).all(axis=1)):
                errors[t] = errors[t] or RunAborted(f"non-finite iterate at step {k}")

    avg_full = sum_full / n_steps
    avg_tail = sum_tail / ((n_steps + 1) // 2)
    trace = RunTrace(
        iterations=n_steps,
        final_point=x,
        average_full=avg_full,
        average_tail=avg_tail,
        averaged_point=avg_tail if tail_window else avg_full,
        oracle_calls=n_steps,
        row_errors=tuple(errors),
    )
    return trace, streams


def _start_block(problem: ProblemInstance, x0, rows: int):
    """x0 as a new C-ordered (rows, n) block, one start point repeated or a
    block as given, and each row's start error: None, PreconditionError for
    a start outside the set, or DegenerateInputError for a simplex start
    with a zero coordinate, which an entropic step never moves (as in
    mirror_step).  C order keeps each row contiguous, so row-wise dot
    products take the same path in a block as on a single vector."""
    if rows < 1:
        raise InputError("a run needs at least one stream")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim < 2:
        x0 = problem._coerce_point(x0)
    elif x0.shape != (rows, problem.dimension):
        raise InputError(f"start block has shape {x0.shape}, expected ({rows}, {problem.dimension})")
    x = np.array(np.broadcast_to(x0, (rows, problem.dimension)), order="C")
    set_ = problem.feasible_set
    errors = [None if ok else PreconditionError("x0 must lie in the feasible set")
              for ok in contains(set_, x)]
    if set_.kind == "simplex":
        for t in np.flatnonzero((x == 0.0).any(axis=1)):
            errors[t] = errors[t] or DegenerateInputError("entropic step undefined: zero in x0")
    return x, errors


# ---------------------------------------------------------------------------
# restarts under the s-growth condition
# ---------------------------------------------------------------------------


def _growth_constants(problem: ProblemInstance):
    c = problem.constants()
    if c.mu_ps <= 0:
        raise NotApplicableError("restarts need a declared growth modulus mu_ps > 0")
    if not math.isfinite(c.M_p):
        raise NotApplicableError("restarts need a finite Lipschitz bound M_p")
    return c


def _stage_sizes(c, beta: float, R1: float, multiplier: float, kappa: int) -> list[int]:
    """Sample counts of the kappa stages of a restart schedule."""
    s = c.s
    log_term = math.log(max(kappa / beta, math.e))
    plan = []
    radius = R1
    for _ in range(kappa):
        n_l = multiplier * c.M_p**2 * log_term / (c.mu_ps**2 * radius ** (2.0 * (s - 1.0)))
        plan.append(max(_N_MIN, math.ceil(n_l)))
        radius *= 2.0 ** (-1.0 / s)
    return plan


def restart_stage_plan(
    problem: ProblemInstance,
    epsilon: float,
    beta: float,
    R1: float,
    multiplier: float = 1.0,
) -> list[int]:
    """Per-stage sample counts of the restart schedule.

    Stage radii satisfy R_{l+1}^s = R_1^s 2^{-l}; stage l is sized so one
    averaged run halves the growth-scaled radius with confidence beta/kappa:
    N_l = ceil(mult * M^2 log(kappa/beta) / (mu_{p,s}^2 R_l^{2(s-1)})), and
    kappa is chosen so mu_{p,s} R_1^s 2^{-(kappa+1)} <= epsilon.
    """
    c = _growth_constants(problem)
    kappa = math.ceil(math.log2(max(c.mu_ps * R1**c.s / epsilon, 1e-300))) - 1
    return _stage_sizes(c, beta, R1, multiplier, max(1, kappa))


def restarted_budget_run(
    problem: ProblemInstance,
    total_budget: int,
    beta: float,
    R1: float,
    streams,
    x0,
    multiplier: float = 1.0,
):
    """Restarted mirror descent within a sample budget: halve the growth
    radius per stage.

    Each stage is a ConstantHorizon sgd_run restarted from the previous
    stage's tail-half average, which drops the transient a stage spends
    traversing the previous radius.  Runs as many complete stages of the
    schedule as fit in the sample budget,
    then spends the remainder on a partial run of the next stage.  A partial
    stage keeps its planned horizon in the stepsize (the schedule's gamma,
    merely truncated), so small budgets probe the planned stage rather than a
    differently-tuned shorter one.  ``streams`` is a list of T streams, as in
    sgd_run; the plan is computed once for all rows, and a row keeps the
    first error any stage records for it.
    """
    if total_budget < 1:
        raise InputError("total_budget must be >= 1")
    c = _growth_constants(problem)
    # Plans are not prefixes of each other (the log term grows with the stage
    # count), so the search keeps the last plan that fits and stops at the
    # first that does not: the partial stage comes from that one.
    fitting = []
    for stages in range(1, _MAX_STAGES + 2):
        plan = _stage_sizes(c, beta, R1, multiplier, stages)
        if stages > _MAX_STAGES or sum(plan) > total_budget:
            break
        fitting = plan
    best = len(fitting)
    if best == 0:
        stage_runs = [(total_budget, plan[0])]
    else:
        stage_runs = [(n, n) for n in fitting]
        leftover = total_budget - sum(fitting)
        if leftover >= _N_MIN:
            stage_runs.append((min(leftover, plan[best]), plan[best]))

    x, radius, errors = x0, R1, ()
    for steps, horizon in stage_runs:
        schedule = ConstantHorizon(R=radius, M=c.M_p, N=horizon)
        trace, streams = sgd_run(problem, schedule, steps, streams, x)
        errors = tuple(first or now for first, now in zip(errors or trace.row_errors,
                                                          trace.row_errors))
        x = trace.average_tail
        radius *= 2.0 ** (-1.0 / c.s)
    total = sum(steps for steps, _ in stage_runs)
    return replace(trace, iterations=total, averaged_point=trace.average_tail,
                   oracle_calls=total, row_errors=errors), streams


# ---------------------------------------------------------------------------
# batched accelerated method
# ---------------------------------------------------------------------------


def minibatch_sizes(c, radius: float, epsilon: float) -> tuple[int, int]:
    """(N, r) of the batched accelerated method for constants c.

    N = ceil(sqrt(L R^2 / eps)) iterations and batches of
    r = ceil(sigma^2 N / (L eps)), the alpha = 2, zeta = 1 scaling of
    accelerated schemes.  The method needs a finite L.
    """
    if not math.isfinite(c.L):
        raise NotApplicableError("batched acceleration needs a smooth problem")
    n_iters = max(1, math.ceil(math.sqrt(c.L * radius**2 / epsilon)))
    r = max(1, math.ceil(c.sigma_star_sq * n_iters / (c.L * epsilon)))
    return n_iters, r


def batched_accelerated_run(
    problem: ProblemInstance,
    epsilon: float,
    streams,
    x0,
    radius: float,
):
    """Accelerated two-sequence method driven by minibatch gradients.

    Runs minibatch_sizes(c, radius, epsilon) = (N, r), with radius the
    caller's scale for ||x0 - x*||, for the target gap epsilon: N
    iterations, each on the mean gradient of r fresh samples; total samples
    N * r are recorded on the trace.  ``streams`` and x0 are as in sgd_run:
    each iteration draws r samples per stream, takes each row's gradient
    from the family's batch_subgrad_mean, and moves all rows with one
    projection and one momentum step.  A row with a start _start_block
    rejects, or with a non-finite gradient (RunAborted), records the error
    in ``trace.row_errors``.
    """
    if not epsilon > 0:
        raise InputError("epsilon must be positive")
    c = problem.constants()
    n_iters, r = minibatch_sizes(c, radius, epsilon)
    set_ = problem.feasible_set
    if set_.kind == "simplex":
        raise NotApplicableError("batched acceleration runs on balls or free space")
    streams = list(streams)
    x, errors = _start_block(problem, x0, len(streams))

    gamma = 1.0 / (2.0 * c.L)  # the batched-oracle analysis runs A(2L, .)
    y = x.copy()
    g = np.empty_like(x)
    t = 1.0
    sum_full = np.zeros_like(x)
    sum_tail = np.zeros_like(x)
    tail_from = n_iters - (n_iters + 1) // 2 + 1
    for k in range(1, n_iters + 1):
        sum_full += x
        if k >= tail_from:
            sum_tail += x
        for row, stream in enumerate(streams):
            batch, streams[row] = stream.draw_block(r)
            g[row] = problem.batch_subgrad_mean(y[row], batch)
        for row in np.flatnonzero(~np.isfinite(g).all(axis=1)):
            errors[row] = errors[row] or RunAborted(f"non-finite batched gradient at iteration {k}")
        x_new = project(set_, y - gamma * g)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x = x_new
        t = t_new

    trace = RunTrace(
        iterations=n_iters,
        final_point=x,
        average_full=sum_full / n_iters,
        average_tail=sum_tail / ((n_iters + 1) // 2),
        averaged_point=x,
        oracle_calls=n_iters * r,
        row_errors=tuple(errors),
    )
    return trace, streams
