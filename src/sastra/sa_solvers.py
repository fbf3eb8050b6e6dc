"""Online solvers: projected SGD / mirror descent, restarts, batched acceleration.

All solvers consume samples through a SampleStream, never a global RNG, so a
run is a pure function of (problem, schedule, seed, x0).  Averages are kept
as running sums over two windows: the full iterate sequence x^1..x^N and its
tail half, which avoids storing trajectories on long runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InputError,
    NotApplicableError,
    PreconditionError,
    SastraError,
)
from .geometry import contains, make_mirror_stepper, project
from .problems import ProblemInstance, SampleStream

__all__ = [
    "ConstantHorizon",
    "InverseStrong",
    "Decreasing",
    "AdaGrad",
    "TargetAccuracy",
    "RunTrace",
    "RunAborted",
    "step_size",
    "sgd_run",
    "restart_stage_plan",
    "restarted_run",
    "restarted_budget_run",
    "BiasedSmoothOracle",
    "make_minibatch_oracle",
    "minibatch_sizes",
    "batched_accelerated_run",
]

_CHUNK = 1 << 16
_MAX_GAP_CHECKPOINTS = 512
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
    """gamma_k = R / (M sqrt N): the fixed-horizon policy for convex runs."""

    R: float
    M: float
    N: int

    kind = "constant_horizon"

    def __post_init__(self):
        if self.R <= 0 or self.M <= 0 or self.N < 1:
            raise InputError("ConstantHorizon needs R > 0, M > 0, N >= 1")

    def fresh(self):
        return self

    def step(self, k: int, g) -> float:
        return self.R / (self.M * math.sqrt(self.N))


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
    """gamma_k = R / (M sqrt k): horizon-free variant of the convex policy."""

    R: float
    M: float

    kind = "decreasing"

    def __post_init__(self):
        if self.R <= 0 or self.M <= 0:
            raise InputError("Decreasing needs R > 0, M > 0")

    def fresh(self):
        return self

    def step(self, k: int, g) -> float:
        return self.R / (self.M * math.sqrt(k))


@dataclass
class AdaGrad:
    """gamma_k = R / sqrt(sum_{j<=k} ||g^j||_2^2), accumulated in place.

    A schedule instance carries its accumulator; solvers take a fresh copy so
    identical runs stay identical.  With an all-zero history the class
    constant gamma_max is returned instead of dividing by zero.
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

    def step(self, k: int, g) -> float:
        if g is None:
            raise InputError("AdaGrad needs the current gradient")
        g = np.asarray(g, dtype=float)
        self.accumulated += float(g @ g)
        if self.accumulated == 0.0:
            return self.gamma_max
        return self.R / math.sqrt(self.accumulated)


def step_size(schedule, k: int, last_gradient=None) -> float:
    """Emit the step size for iteration k, advancing schedule state (AdaGrad)."""
    if k < 1:
        raise InputError("iteration index k must be >= 1")
    gamma = schedule.step(k, last_gradient)
    if not gamma > 0:
        raise InputError(f"schedule produced nonpositive step {gamma}")
    return gamma


@dataclass(frozen=True)
class TargetAccuracy:
    """Accuracy contract: gap epsilon with failure probability beta."""

    epsilon: float
    beta: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InputError("epsilon must be positive")
        if not 0.0 < self.beta < 1.0:
            raise InputError("beta must lie in (0, 1)")


# ---------------------------------------------------------------------------
# run traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Outcome of one solver run.

    iterations      number of update steps N
    final_point     x^{N+1}
    average_full    mean of x^1..x^N
    average_tail    mean of the last ceil(N/2) pre-update iterates
    averaged_point  the window the solver's policy selected
    oracle_calls    stochastic-gradient evaluations consumed
    gap_checkpoints optional ((k, gap), ...) at log-spaced iterations
    """

    iterations: int
    final_point: np.ndarray
    average_full: np.ndarray
    average_tail: np.ndarray
    averaged_point: np.ndarray
    oracle_calls: int
    gap_checkpoints: tuple = None


def _gap_checkpoint_ks(n_steps: int) -> np.ndarray:
    ks = np.unique(
        np.round(np.logspace(0, math.log10(n_steps), _MAX_GAP_CHECKPOINTS)).astype(int)
    )
    return ks[(ks >= 1) & (ks <= n_steps)]


# ---------------------------------------------------------------------------
# projected SGD / mirror descent
# ---------------------------------------------------------------------------


def sgd_run(
    problem: ProblemInstance,
    schedule,
    n_steps: int,
    stream: SampleStream,
    x0,
    record_gaps: bool = False,
) -> tuple[RunTrace, SampleStream]:
    """Run x^{k+1} = mirror_step(Q, x^k, grad f(x^k, xi^k), gamma_k), k = 1..N.

    Averages the pre-update iterates x^1..x^N.  Consumes exactly n_steps
    samples from the stream and returns the advanced stream alongside the
    trace.  The averaged point is the tail-half average under the strongly
    convex 1/(mu k) policy and the full average otherwise; both windows are
    on the trace.
    """
    if n_steps < 1:
        raise InputError("n_steps must be >= 1")
    set_ = problem.feasible_set
    x = problem._coerce_point(x0)
    if not contains(set_, x):
        raise PreconditionError("x0 must lie in the feasible set")
    tail_window = getattr(schedule, "kind", "") == "inverse_strong"

    schedule = schedule.fresh()
    stepper = make_mirror_stepper(set_)
    subgrad = problem._subgrad

    sum_full = np.zeros_like(x)
    sum_tail = np.zeros_like(x)
    tail_from = n_steps - (n_steps + 1) // 2 + 1  # first k in the tail window

    checkpoint_ks = _gap_checkpoint_ks(n_steps) if record_gaps else None
    checkpoints = [] if record_gaps else None
    next_cp = 0

    constant_gamma = None
    if getattr(schedule, "kind", "") == "constant_horizon":
        constant_gamma = schedule.step(1, None)

    k = 0
    remaining = n_steps
    while remaining > 0:
        take = min(remaining, _CHUNK)
        rows, stream = stream.draw_block(take)
        for i in range(take):
            k += 1
            sum_full += x
            if k >= tail_from:
                sum_tail += x
            if checkpoints is not None and next_cp < len(checkpoint_ks) and k == checkpoint_ks[next_cp]:
                checkpoints.append((k, problem.population_gap(x)))
                next_cp += 1
            g = subgrad(x, rows[i])
            gamma = constant_gamma if constant_gamma is not None else schedule.step(k, g)
            x = stepper(x, g, gamma)
        if not np.all(np.isfinite(x)):
            raise RunAborted(f"non-finite iterate at step {k}")
        remaining -= take

    avg_full = sum_full / n_steps
    avg_tail = sum_tail / ((n_steps + 1) // 2)
    averaged = avg_tail if tail_window else avg_full
    trace = RunTrace(
        iterations=n_steps,
        final_point=x,
        average_full=avg_full,
        average_tail=avg_tail,
        averaged_point=averaged,
        oracle_calls=n_steps,
        gap_checkpoints=tuple(checkpoints) if checkpoints is not None else None,
    )
    return trace, stream


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


def restarted_run(
    problem: ProblemInstance,
    target: TargetAccuracy,
    R1: float,
    stream: SampleStream,
    x0,
    multiplier: float = 1.0,
) -> tuple[RunTrace, SampleStream]:
    """Restarted mirror descent: halve the growth radius per stage.

    Runs kappa stages with kappa chosen so mu_{p,s} R_1^s 2^{-(kappa+1)} <=
    epsilon; each stage is a ConstantHorizon sgd_run restarted from the
    previous stage's averaged point.  Stages average over the tail half,
    which drops the transient an sgd stage spends traversing the previous
    radius.  When the target is loose enough that no halving is required, a
    single stage is run.
    """
    plan = restart_stage_plan(problem, target.epsilon, target.beta, R1, multiplier)
    return _run_stages(problem, [(n, n) for n in plan], R1, stream, x0)


def restarted_budget_run(
    problem: ProblemInstance,
    total_budget: int,
    beta: float,
    R1: float,
    stream: SampleStream,
    x0,
    multiplier: float = 1.0,
) -> tuple[RunTrace, SampleStream]:
    """Budgeted variant for sample-complexity probing.

    Runs as many complete stages of the schedule as fit in the sample budget,
    then spends the remainder on a partial run of the next stage.  A partial
    stage keeps its planned horizon in the stepsize (the schedule's gamma,
    merely truncated), so small budgets probe the planned stage rather than a
    differently-tuned shorter one.
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
    return _run_stages(problem, stage_runs, R1, stream, x0)


def _run_stages(problem, stage_runs, R1, stream, x0):
    c = problem.constants()
    s = c.s
    x = problem._coerce_point(x0)
    radius = R1
    total = 0
    trace = None
    for steps, horizon in stage_runs:
        schedule = ConstantHorizon(R=radius, M=c.M_p, N=horizon)
        trace, stream = sgd_run(problem, schedule, steps, stream, x)
        x = trace.average_tail
        total += steps
        radius *= 2.0 ** (-1.0 / s)
    final = RunTrace(
        iterations=total,
        final_point=trace.final_point,
        average_full=trace.average_full,
        average_tail=trace.average_tail,
        averaged_point=trace.average_tail,
        oracle_calls=total,
        gap_checkpoints=None,
    )
    return final, stream


# ---------------------------------------------------------------------------
# minibatch oracle and batched accelerated method
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BiasedSmoothOracle:
    """Minibatch gradient oracle with its recorded bias budget.

    Averaging r i.i.d. stochastic gradients shrinks the variance to
    sigma^2 / r, which enters smooth-method analyses as a bias term of at
    most delta = sigma^2 / (2 L r) against the L-smooth upper model.
    """

    problem: ProblemInstance
    batch_size: int
    L: float
    sigma_sq: float
    delta: float

    def grad(self, x, stream: SampleStream):
        rows, stream = stream.draw_block(self.batch_size)
        return self.problem.batch_subgrad_mean(x, rows), stream


def make_minibatch_oracle(problem: ProblemInstance, r: int) -> BiasedSmoothOracle:
    """Oracle returning the average of r fresh stochastic gradients."""
    if r < 1:
        raise InputError("batch size r must be >= 1")
    c = problem.constants()
    if not math.isfinite(c.L):
        raise NotApplicableError("minibatch oracle needs a smooth problem")
    sigma_sq = c.sigma_star_sq
    delta = sigma_sq / (2.0 * c.L * r)
    return BiasedSmoothOracle(
        problem=problem, batch_size=r, L=c.L, sigma_sq=sigma_sq, delta=delta
    )


def minibatch_sizes(c, radius: float, epsilon: float) -> tuple[int, int]:
    """(N, r) of the batched accelerated method for constants c.

    N = ceil(sqrt(L R^2 / eps)) iterations and batches of
    r = ceil(sigma^2 N / (L eps)), the alpha = 2, zeta = 1 scaling of
    accelerated schemes.
    """
    n_iters = max(1, math.ceil(math.sqrt(c.L * radius**2 / epsilon)))
    r = max(1, math.ceil(c.sigma_star_sq * n_iters / (c.L * epsilon)))
    return n_iters, r


def batched_accelerated_run(
    problem: ProblemInstance,
    target: TargetAccuracy,
    stream: SampleStream,
    x0,
    radius: float | None = None,
) -> tuple[RunTrace, SampleStream]:
    """Accelerated two-sequence method driven by a minibatch oracle.

    Runs minibatch_sizes(...) = (N, r): N iterations on batches of r
    gradients; total samples N * r are recorded on the trace.
    """
    c = problem.constants()
    if not math.isfinite(c.L):
        raise NotApplicableError("batched acceleration needs a smooth problem")
    set_ = problem.feasible_set
    if set_.kind == "simplex":
        raise NotApplicableError("batched acceleration runs on balls or free space")
    x = problem._coerce_point(x0)
    if not contains(set_, x):
        raise PreconditionError("x0 must lie in the feasible set")

    if radius is None:
        radius = float(np.linalg.norm(x - problem.x_star))
        if radius == 0.0 and set_.is_bounded:
            radius = set_.radius
        radius = max(radius, 1e-8)
    n_iters, r = minibatch_sizes(c, radius, target.epsilon)
    oracle = make_minibatch_oracle(problem, r)

    gamma = 1.0 / (2.0 * c.L)  # the batched-oracle analysis runs A(2L, .)
    y = x.copy()
    t = 1.0
    sum_full = np.zeros_like(x)
    sum_tail = np.zeros_like(x)
    tail_from = n_iters - (n_iters + 1) // 2 + 1
    for k in range(1, n_iters + 1):
        sum_full += x
        if k >= tail_from:
            sum_tail += x
        g, stream = oracle.grad(y, stream)
        if not np.all(np.isfinite(g)):
            raise RunAborted(f"non-finite batched gradient at iteration {k}")
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
        gap_checkpoints=None,
    )
    return trace, stream
