"""Offline pipeline: empirical objectives and their deterministic solvers.

An EmpiricalObjective freezes N samples of a problem plus an optional
composite regularizer; its value and gradient are exact arithmetic means over
all terms.  Solvers certify delta-accuracy either through a strong-convexity
bound on the proximal gradient mapping, by comparison against a closed-form
minimizer where one exists (the norm-power family), or, in the merely convex
case, by plateau detection, with the certificate kind recorded on the result.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InputError,
    NotApplicableError,
    PreconditionError,
    UnsupportedCombinationError,
)
from .geometry import FeasibleSet, project
from .problems import (
    ProblemConstants,
    ProblemInstance,
    SampleStream,
    uniform_values,
)
from .sa_solvers import TargetAccuracy

__all__ = [
    "HalfSqL2",
    "L1",
    "EmpiricalObjective",
    "build_empirical",
    "ErmResult",
    "solve_erm",
    "strong_delta",
    "tikhonov_parameters",
    "regularized_pipeline",
    "VRState",
    "vr_gradient",
    "vr_solve",
    "composite_prox_step",
    "norm_power_erm_closed_form",
    "export_samples",
    "import_samples",
]


# ---------------------------------------------------------------------------
# composite regularizers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HalfSqL2:
    """(mu/2) ||x - center||_2^2; center defaults to the origin."""

    mu: float
    center: np.ndarray | None = None

    def __post_init__(self):
        if self.mu <= 0:
            raise InputError("HalfSqL2 needs mu > 0")
        if self.center is not None:
            object.__setattr__(
                self, "center", np.atleast_1d(np.asarray(self.center, float))
            )

    def value(self, x) -> float:
        d = x if self.center is None else x - self.center
        return 0.5 * self.mu * float(d @ d)

    def subgrad(self, x) -> np.ndarray:
        d = x if self.center is None else x - self.center
        return self.mu * d


@dataclass(frozen=True)
class L1:
    """lam ||x||_1 with the sign subgradient (0 at zero coordinates)."""

    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise InputError("L1 needs lam > 0")

    def value(self, x) -> float:
        return self.lam * float(np.abs(x).sum())

    def subgrad(self, x) -> np.ndarray:
        return self.lam * np.sign(x)


def _composite_value(composite, x) -> float:
    return 0.0 if composite is None else composite.value(x)


def _composite_subgrad(composite, x) -> np.ndarray:
    return np.zeros_like(x) if composite is None else composite.subgrad(x)


# ---------------------------------------------------------------------------
# empirical objective
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EmpiricalObjective:
    """Frozen-sample average objective f_bar(x) = (1/N) sum f(x, xi^k) + composite."""

    problem: ProblemInstance
    samples: np.ndarray
    composite: object = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[0] < 1:
            raise InputError("samples must be a nonempty (N, width) array")
        if s.shape[1] != self.problem.sample_width:
            raise InputError(
                f"sample width {s.shape[1]} != problem width {self.problem.sample_width}"
            )
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def n_terms(self) -> int:
        return self.samples.shape[0]

    def value(self, x) -> float:
        x = self.problem._coerce_point(x)
        mean = float(self.problem.batch_losses(x, self.samples).mean())
        return mean + _composite_value(self.composite, x)

    def gradient(self, x) -> np.ndarray:
        x = self.problem._coerce_point(x)
        g = self.problem.batch_subgrad_mean(x, self.samples)
        return g + _composite_subgrad(self.composite, x)

    def term_subgradient(self, x, t: int) -> np.ndarray:
        """Subgradient of the t-th term plus the composite subgradient."""
        if not 0 <= t < self.n_terms:
            raise InputError(f"term index {t} out of range [0, {self.n_terms})")
        x = self.problem._coerce_point(x)
        g = self.problem._subgrad(x, self.samples[t])
        return g + _composite_subgrad(self.composite, x)

    def smoothness(self) -> float:
        """Uniform gradient Lipschitz bound of one term (inf if nonsmooth)."""
        l_term = self.problem.constants().L
        if isinstance(self.composite, HalfSqL2):
            return l_term + self.composite.mu
        if isinstance(self.composite, L1):
            return math.inf
        return l_term

    def strong_convexity(self) -> float:
        mu = self.problem.constants().mu_p
        if isinstance(self.composite, HalfSqL2):
            mu += self.composite.mu
        return mu


def build_empirical(
    problem: ProblemInstance, n: int, stream: SampleStream, composite=None
) -> tuple[EmpiricalObjective, SampleStream]:
    """Draw and freeze exactly n samples into an empirical objective."""
    if n < 1:
        raise InputError("n must be >= 1")
    rows, stream = stream.draw_block(n)
    return EmpiricalObjective(problem, rows, composite), stream


# ---------------------------------------------------------------------------
# composite proximal step
# ---------------------------------------------------------------------------


def _soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def composite_prox_step(x, g, gamma: float, composite, set_: FeasibleSet) -> np.ndarray:
    """argmin over the set of <g, z-x> + ||z-x||^2 / (2 gamma) + composite(z).

    Closed forms: no composite is a projected step; HalfSqL2 completes the
    square, so it is a projected step of the shrunk point for every set; L1
    soft-thresholds and then projects, which is exact for the unconstrained
    space and for origin-centered l2/l1 balls, and rejected otherwise (on the
    simplex the l1 term is constant, also rejected).  On the unconstrained
    space the unprojected point is returned: it is a new array already.
    """
    if not gamma > 0:
        raise InputError("gamma must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.atleast_1d(np.asarray(g, dtype=float))
    v = x - gamma * g
    if isinstance(composite, HalfSqL2):
        gm = gamma * composite.mu
        w = v if composite.center is None else v + gm * composite.center
        v = w / (1.0 + gm)
    elif isinstance(composite, L1):
        if set_.kind == "simplex":
            raise UnsupportedCombinationError(
                "l1 composite is constant on the simplex; pair rejected"
            )
        if set_.kind in ("l2_ball", "l1_ball") and not set_.centered_at_origin():
            raise UnsupportedCombinationError(
                "l1 composite has no closed form on off-center balls"
            )
        v = _soft_threshold(v, gamma * composite.lam)
    elif composite is not None:
        raise UnsupportedCombinationError(f"unknown composite {composite!r}")
    return project(set_, v) if set_.is_bounded else v


# ---------------------------------------------------------------------------
# deterministic ERM solving with certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ErmResult:
    point: np.ndarray
    value: float
    iterations: int
    certified: bool
    certificate: str  # strong_convexity | oracle | plateau | vacuous | budget_exhausted


def _prox_mapping_certificate(e: EmpiricalObjective, x, gamma: float, mu: float):
    """Upper bound on f_bar(x+) - f_bar* from the prox-gradient mapping at x.

    With G the gamma-prox-gradient mapping and gamma <= 1/L, the point
    x+ = x - gamma G carries a composite subgradient of norm at most 2 ||G||,
    so strong convexity gives f_bar(x+) - f_bar* <= 2 ||G||^2 / mu.
    """
    g_terms = e.problem.batch_subgrad_mean(x, e.samples)
    x_plus = composite_prox_step(x, g_terms, gamma, e.composite, e.problem.feasible_set)
    mapping = (x - x_plus) / gamma
    bound = 2.0 * float(mapping @ mapping) / mu
    return bound, x_plus


def solve_erm(
    e: EmpiricalObjective,
    target_delta: float,
    budget: int = 200_000,
    x0=None,
) -> ErmResult:
    """Reach f_bar(x) - f_bar(x_hat) <= delta with a certificate.

    Smooth (or norm-power) objectives run a proximal gradient loop with
    backtracking; strongly convex ones stop on the gradient-mapping bound,
    the norm-power family stops against its closed-form oracle, and the
    merely convex remainder runs an averaged subgradient loop with plateau
    detection.  Exhausting the budget returns the best point, uncertified.
    """
    if target_delta < 0:
        raise InputError("target_delta must be nonnegative")
    problem = e.problem
    set_ = problem.feasible_set
    x = problem._coerce_point(x0) if x0 is not None else problem.default_x0()
    x = project(set_, x)
    if math.isinf(target_delta):
        return ErmResult(x, e.value(x), 0, True, "vacuous")

    oracle_point = None
    if problem.family == "norm_power" and e.composite is None:
        oracle_point = norm_power_erm_closed_form(e)
        oracle_value = e.value(oracle_point)

    mu = e.strong_convexity()
    lip = e.smoothness()
    smooth_path = math.isfinite(lip) or oracle_point is not None

    if smooth_path:
        gamma = 1.0 / lip if math.isfinite(lip) else 1.0
        f_x = e.value(x)
        plateau_window, plateau_ref = 50, math.inf
        for it in range(1, budget + 1):
            g = problem.batch_subgrad_mean(x, e.samples)
            # backtracking on the descent lemma, also adapts unknown L
            while True:
                x_new = composite_prox_step(x, g, gamma, e.composite, set_)
                d = x_new - x
                f_new = e.value(x_new)
                quad = f_x + float(g @ d) + float(d @ d) / (2.0 * gamma) \
                    + _composite_value(e.composite, x_new) \
                    - _composite_value(e.composite, x)
                if f_new <= quad + 1e-15 * max(1.0, abs(f_x)) or gamma < 1e-18:
                    break
                gamma *= 0.5
            x, f_x = x_new, f_new
            if oracle_point is not None and f_x - oracle_value <= target_delta:
                return ErmResult(x, f_x, it, True, "oracle")
            if oracle_point is None and mu > 0 and it % 10 == 0:
                bound, x_plus = _prox_mapping_certificate(e, x, gamma, mu)
                if bound <= target_delta:
                    return ErmResult(x_plus, e.value(x_plus), it, True, "strong_convexity")
            if oracle_point is None and mu == 0 and it % plateau_window == 0:
                if plateau_ref - f_x < target_delta / 10.0:
                    return ErmResult(x, f_x, it, True, "plateau")
                plateau_ref = f_x
            gamma = min(gamma * 2.0, 1.0 / lip if math.isfinite(lip) else gamma * 2.0)
        return ErmResult(x, e.value(x), budget, False, "budget_exhausted")

    # nonsmooth path: averaged projected subgradient with decreasing steps
    x_bar = x.copy()
    weight = 0.0
    f_best, x_best = e.value(x), x.copy()
    plateau_window, plateau_ref = 200, math.inf
    for it in range(1, budget + 1):
        g = e.gradient(x)
        if mu > 0:
            gamma = 2.0 / (mu * (it + 1))
            w = float(it)
        else:
            gamma = 1.0 / math.sqrt(it)
            w = 1.0
        x = composite_prox_step(x, g, gamma, None, set_)
        x_bar = (weight * x_bar + w * x) / (weight + w)
        weight += w
        if it % plateau_window == 0:
            f_bar = e.value(x_bar)
            if f_bar < f_best:
                f_best, x_best = f_bar, x_bar.copy()
            if plateau_ref - f_bar < max(target_delta, 1e-14) / 10.0:
                return ErmResult(x_best, f_best, it, True, "plateau")
            plateau_ref = f_bar
    return ErmResult(x_best, f_best, budget, False, "budget_exhausted")


def strong_delta(target: TargetAccuracy, c: ProblemConstants) -> float:
    """Inner accuracy eps^2 mu_p / (8 M_p^2) required in the strongly convex SAA step."""
    if c.mu_p <= 0:
        raise NotApplicableError("strong_delta needs mu_p > 0")
    if not math.isfinite(c.M_p):
        raise NotApplicableError("strong_delta needs a finite M_p")
    return target.epsilon**2 * c.mu_p / (8.0 * c.M_p**2)


def tikhonov_parameters(epsilon: float, m: float, r2: float) -> tuple[float, float]:
    """Regularizer modulus and inner accuracy of the regularized-ERM step.

    mu = eps / R^2 makes the eps/2-solution of the regularized problem an
    eps-solution of the original; delta = eps^3 / (8 M^2 R^2) is the inner
    accuracy the strongly convex step then requires.
    """
    if epsilon <= 0 or m <= 0 or r2 <= 0:
        raise InputError("tikhonov_parameters needs positive epsilon, M, R")
    return epsilon / r2**2, epsilon**3 / (8.0 * m**2 * r2**2)


def regularized_pipeline(
    problem: ProblemInstance,
    target: TargetAccuracy,
    n: int,
    stream: SampleStream,
    x0=None,
    budget: int = 200_000,
) -> tuple[ErmResult, SampleStream]:
    """Tikhonov-regularized ERM for convex problems on bounded sets.

    Adds (eps / (2 R^2)) ||x - c||_2^2 to the empirical objective (modulus
    mu = eps / R^2, centred at the ball centre c, or at the origin on the
    simplex, where R = 1 bounds ||x||), solves it to the inner accuracy
    delta = eps^3 / (8 M^2 R^2), and returns that solution: a gap of at most
    eps/2 on the regularized problem is a gap of at most eps on the original,
    because the added term is at most eps/2 on the set.
    """
    set_ = problem.feasible_set
    if not set_.is_bounded:
        raise NotApplicableError("regularization radius needs a bounded set")
    c = problem.constants()
    if not math.isfinite(c.M_p):
        raise NotApplicableError("pipeline needs a finite Lipschitz bound M_p")
    r2 = set_.radius if set_.kind != "simplex" else 1.0
    mu, delta = tikhonov_parameters(target.epsilon, c.M_p, r2)
    emp, stream = build_empirical(problem, n, stream, HalfSqL2(mu, set_.center))
    result = solve_erm(emp, delta, budget=budget, x0=x0)
    return result, stream


# ---------------------------------------------------------------------------
# variance reduction
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class VRState:
    """Reference point with its exact full gradient for control variates."""

    reference: np.ndarray
    full_gradient: np.ndarray
    stale: bool = False

    @staticmethod
    def at(e: EmpiricalObjective, point) -> "VRState":
        point = e.problem._coerce_point(point)
        return VRState(point.copy(), e.gradient(point), False)


def vr_gradient(state: VRState, e: EmpiricalObjective, x, t: int) -> np.ndarray:
    """Control-variate gradient: term t at x minus term t at the reference
    plus the stored full gradient.  Its average over all t is exactly the
    full gradient at x."""
    if state.stale:
        raise PreconditionError("VR state is stale; rebuild it at the current reference")
    return (
        e.term_subgradient(x, t)
        - e.term_subgradient(state.reference, t)
        + state.full_gradient
    )


@dataclass(frozen=True, eq=False)
class VrResult:
    point: np.ndarray
    epochs: int
    epoch_equivalents: float
    certified: bool
    value: float
    history: tuple = ()  # per-epoch certificate at the reference


def vr_solve(
    e: EmpiricalObjective,
    target_delta: float,
    budget_epochs: int,
    stream: SampleStream,
    x0=None,
) -> VrResult:
    """Epoch-based variance-reduced solver for smooth strongly convex sums.

    Each epoch refreshes the full gradient at the reference, runs an epoch of
    control-variate steps of size 1/(4L) with uniformly sampled terms, then
    re-anchors the reference at the current iterate.  The epoch length is
    max(n_terms, ceil(8 L/mu)): the n_terms floor keeps one epoch a full
    pass, and the conditioning floor keeps the per-epoch contraction factor
    bounded away from one however ill-conditioned the sum is (the standard
    sizing for this scheme family).  Stops once the strong-convexity
    certificate at the reference is at most target_delta.  Index randomness
    comes from a dedicated uniform stream derived from the given stream's
    seed; no problem samples are consumed.
    """
    problem = e.problem
    lip = e.smoothness()
    mu = e.strong_convexity()
    if not math.isfinite(lip):
        raise NotApplicableError("vr_solve needs smooth terms")
    if mu <= 0:
        raise NotApplicableError("vr_solve needs strong convexity (family or HalfSqL2)")
    set_ = problem.feasible_set
    n = e.n_terms
    epoch_len = max(n, math.ceil(8.0 * lip / mu))
    eta = 1.0 / (4.0 * lip)
    x = problem._coerce_point(x0) if x0 is not None else problem.default_x0()
    x = project(set_, x)

    term_evals = 0
    idx_counter = 0
    seed = stream.base_seed
    unconstrained = set_.kind == "unconstrained"
    history = []

    for epoch in range(1, budget_epochs + 1):
        state = VRState.at(e, x)
        term_evals += n
        # certificate at the reference, where the full gradient is free
        if unconstrained:
            bound = float(state.full_gradient @ state.full_gradient) / (2.0 * mu)
        else:
            bound, _ = _prox_mapping_certificate(e, x, 1.0 / lip, mu)
        history.append(bound)
        if bound <= target_delta:
            return VrResult(x, epoch - 1, term_evals / n, True, e.value(x),
                            tuple(history))
        u = uniform_values(seed, idx_counter, epoch_len)
        idx_counter += epoch_len
        ts = np.minimum((u * n).astype(np.int64), n - 1)
        for t in ts:
            g = vr_gradient(state, e, x, int(t))
            x = composite_prox_step(x, g, eta, None, set_)
            term_evals += 2
    return VrResult(x, budget_epochs, term_evals / n, False, e.value(x),
                    tuple(history))


# ---------------------------------------------------------------------------
# closed-form oracle for the norm-power family
# ---------------------------------------------------------------------------


def norm_power_erm_closed_form(e: EmpiricalObjective) -> np.ndarray:
    """Exact minimizer of the norm-power empirical objective on the unit ball.

    With xi_bar the sample mean, the minimizer is xi_bar / ||xi_bar||^b where
    b = 1 outside the unit ball and b = (s-2)/(s-1) inside; s = 1 degenerates
    to 0 inside and the boundary point outside.
    """
    if e.problem.family != "norm_power" or e.composite is not None:
        raise InputError("closed form applies to the bare norm-power family only")
    set_ = e.problem.feasible_set
    if set_.kind != "l2_ball" or set_.radius != 1.0 or not set_.centered_at_origin():
        raise InputError("closed form requires the origin-centered unit l2-ball")
    s = e.problem.s
    xi_bar = e.samples.mean(axis=0)
    nrm = float(np.linalg.norm(xi_bar))
    if nrm == 0.0:
        return np.zeros_like(xi_bar)
    if s == 1.0:
        return xi_bar / nrm if nrm > 1.0 else np.zeros_like(xi_bar)
    b = 1.0 if nrm > 1.0 else (s - 2.0) / (s - 1.0)
    return xi_bar / nrm**b


# ---------------------------------------------------------------------------
# frozen-sample CSV interchange
# ---------------------------------------------------------------------------


def _sample_columns(problem: ProblemInstance) -> list[str]:
    n = problem.dimension
    if problem.family in ("ridge", "lasso", "soft_svm"):
        return [f"a_{i + 1}" for i in range(n)] + ["y"]
    return [f"xi_{i + 1}" for i in range(n)]


def export_samples(e: EmpiricalObjective, path) -> None:
    """Write the frozen sample set as CSV, one sample per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_sample_columns(e.problem))
        for row in e.samples:
            w.writerow([repr(float(v)) for v in row])


def import_samples(problem: ProblemInstance, path, composite=None) -> EmpiricalObjective:
    """Rebuild an empirical objective from an exported sample CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _sample_columns(problem):
            raise InputError(f"unexpected sample columns {header}")
        rows = np.array([[float(v) for v in row] for row in reader], dtype=float)
    return EmpiricalObjective(problem, rows, composite)
