"""Offline pipeline: empirical objectives and their deterministic solvers.

An EmpiricalObjective freezes N samples of a problem plus an optional
Tikhonov term (HalfSqL2); its value and gradient are exact arithmetic means over
all terms.  Where the empirical problem has a closed-form minimizer,
exact_erm returns it with the certificate "exact": gaussian_mean on every set,
finite_sum_quadratic on free space (and on every set when its scales are
equal), ridge/lasso on free space or an l2 ball, and
norm_power on free space or an origin-centred l2 ball.  Least squares reads
its sample only through the Gram sums [A | y]^T [A | y] (problems.block_gram)
from N = 2n samples on, and through the rows below that.  The erm and
regularized pipelines go through sample_erm, which calls exact_erm first and
falls back to solve_erm; a least-squares search takes its sums from the
search's prefix store and draws only the rows past them.  solve_erm's
proximal gradient loop certifies delta-accuracy through a strong-convexity
bound on the gradient mapping, or, in the merely convex case, by plateau
detection; its averaged subgradient loop (soft_svm) cannot certify its stop
and returns it uncertified.  The certificate kind is recorded on the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InputError,
    NotApplicableError,
    UnsupportedCombinationError,
)
from .geometry import FeasibleSet, project
from .problems import (
    PrefixStore,
    ProblemInstance,
    SampleStream,
    block_gram,
    uniform_values,
)

__all__ = [
    "HalfSqL2",
    "EmpiricalObjective",
    "build_empirical",
    "ErmResult",
    "exact_erm",
    "sample_erm",
    "solve_erm",
    "tikhonov_parameters",
    "regularized_pipeline",
    "VRState",
    "vr_gradient",
    "vr_solve",
    "composite_prox_step",
    "norm_power_erm_closed_form",
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


def _composite_value(composite, x) -> float:
    return 0.0 if composite is None else composite.value(x)


def _composite_subgrad(composite, x) -> np.ndarray:
    return np.zeros_like(x) if composite is None else composite.subgrad(x)


# ---------------------------------------------------------------------------
# empirical objective
# ---------------------------------------------------------------------------


def _frozen(a: np.ndarray) -> bool:
    """True if a and every array it views are read-only, so nothing can write a."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


@dataclass(frozen=True, eq=False)
class EmpiricalObjective:
    """Frozen-sample average objective f_bar(x) = (1/N) sum f(x, xi^k) + composite.

    The samples are held read-only: an array nothing can write (read-only,
    as are the arrays it views, such as rows a PrefixStore serves) is kept
    as given, and anything else is copied first.
    """

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
        if not _frozen(s):
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
        """Gradient Lipschitz bound of one term (inf if nonsmooth)."""
        l_term = self.problem.constants().L
        if isinstance(self.composite, HalfSqL2):
            return l_term + self.composite.mu
        return l_term

    def strong_convexity(self) -> float:
        mu = self.problem.constants().mu_p
        if isinstance(self.composite, HalfSqL2):
            mu += self.composite.mu
        return mu


def build_empirical(
    problem: ProblemInstance,
    n: int,
    stream: SampleStream,
    composite=None,
    prefixes: PrefixStore | None = None,
) -> tuple[EmpiricalObjective, SampleStream]:
    """Draw and freeze exactly n samples into an empirical objective.

    This is where the offline solvers draw.  With a prefix store, the rows
    it already holds for the stream are served from it and only the rest
    are drawn; the rows, and the returned stream advanced by n, are the same
    bit for bit as without it.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    rows, stream = (stream.draw_block(n) if prefixes is None
                    else prefixes.draw(stream, n))
    return EmpiricalObjective(problem, rows, composite), stream


# ---------------------------------------------------------------------------
# composite proximal step
# ---------------------------------------------------------------------------


def composite_prox_step(x, g, gamma: float, composite, set_: FeasibleSet) -> np.ndarray:
    """argmin over the set of <g, z-x> + ||z-x||^2 / (2 gamma) + composite(z).

    Closed forms: no composite is a projected step; HalfSqL2 completes the
    square, so it is a projected step of the shrunk point for every set.  Any
    other composite is rejected.  On the unconstrained space the unprojected
    point is returned: it is a new array already.
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
    # certified: exact (closed form, 0 iterations) | strong_convexity | plateau
    # | vacuous; uncertified: subgradient_plateau | budget_exhausted
    certificate: str


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
    budget: int = 100_000,
    x0=None,
) -> ErmResult:
    """Reach f_bar(x) - f_bar(x_hat) <= delta with a certificate.

    Smooth losses, and norm-power ones with s > 1, run a proximal gradient
    loop with backtracking under any composite, as does bare norm power at
    s = 1; strongly convex ones stop on the gradient-mapping bound and the
    rest stop by plateau detection.  Other nonsmooth objectives run an
    averaged subgradient loop.  It stops once its average improves by
    less than delta/10 over 200 iterations, which at an O(1/sqrt(k)) rate
    says nothing about the distance to the optimum (on soft_svm with N = 40
    it stops up to 15 delta above it), so that stop is uncertified:
    "subgradient_plateau".  Exhausting the budget returns the best point,
    uncertified.
    """
    if target_delta < 0:
        raise InputError("target_delta must be nonnegative")
    problem = e.problem
    set_ = problem.feasible_set
    x = problem._coerce_point(x0) if x0 is not None else problem.default_x0()
    x = project(set_, x)
    if math.isinf(target_delta):
        return ErmResult(x, e.value(x), 0, True, "vacuous")

    # norm-power objectives backtrack even where the declared L is infinite
    # (s < 2, or s > 2 on free space): for s > 1 their gradient is
    # continuous, under any composite; s = 1 backtracks only when bare
    norm_power = problem.family == "norm_power" and (e.composite is None or problem.s > 1)

    mu = e.strong_convexity()
    lip = e.smoothness()
    smooth_path = math.isfinite(lip) or norm_power

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
            if mu > 0 and it % 10 == 0:
                bound, x_plus = _prox_mapping_certificate(e, x, gamma, mu)
                if bound <= target_delta:
                    return ErmResult(x_plus, e.value(x_plus), it, True, "strong_convexity")
            if mu == 0 and it % plateau_window == 0:
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
                return ErmResult(x_best, f_best, it, False, "subgradient_plateau")
            plateau_ref = f_bar
    return ErmResult(x_best, f_best, budget, False, "budget_exhausted")


def exact_erm(e: EmpiricalObjective, x0=None) -> ErmResult | None:
    """The exact empirical minimizer where a closed form exists, else None.

    Handles no composite and HalfSqL2; soft_svm, the quadratics on l1 balls
    or simplices and norm_power off free space and origin-centred l2 balls
    have no closed form and return None.  Where the
    empirical problem has no minimizer (norm_power with s = 1 on free space)
    it raises NotApplicableError.  x0 only matters where the minimizer is not
    unique (ridge on free space with N < n): the result is then the
    minimizer nearest x0, the limit of the gradient iteration started there.
    Least squares from N = 2n on reads only the block_gram sums of the
    sample, value included, so it equals sample_erm's result from a prefix
    store bit for bit.
    """
    problem = e.problem
    if _reads_sums(problem, e.n_terms):
        return _least_squares_result(problem, e.composite, e.n_terms, x0, block_gram(e.samples))
    if problem.family == "gaussian_mean":
        point = _separable_quadratic_minimizer(e, np.full(problem.dimension, 2.0))
    elif problem.family == "finite_sum_quadratic":
        point = _separable_quadratic_minimizer(e, problem.scales)
    elif _least_squares(problem):
        point = _least_squares_minimizer(problem, e.composite, e.n_terms, x0, rows=e.samples)
    elif _norm_power_closed_form_applies(e):
        point = norm_power_erm_closed_form(e)
    else:
        point = None
    if point is None:
        return None
    return ErmResult(point, e.value(point), 0, True, "exact")


def sample_erm(
    problem: ProblemInstance,
    n: int,
    stream: SampleStream,
    delta: float,
    composite=None,
    x0=None,
    prefixes: PrefixStore | None = None,
) -> tuple[ErmResult, SampleStream]:
    """Draw n samples and minimize their empirical objective: exact_erm where
    a closed form exists, else solve_erm to delta from x0.  Returns the
    result and the stream advanced by n.

    The offline solve of the erm and regularized pipelines.  With a prefix
    store, least squares from N = 2n on takes its Gram sums from the store
    (PrefixStore.gram) and draws no row the store has summed; below 2n it
    draws its rows afresh, so the store of such a search holds only sums.
    Every other sample is drawn through build_empirical and the store.
    Either way the result is exact_erm's on the frozen sample, bit for bit.
    """
    if prefixes is not None and _least_squares(problem):
        if _reads_sums(problem, n):
            gram, stream = prefixes.gram(stream, n)
            return _least_squares_result(problem, composite, n, x0, gram), stream
        prefixes = None
    emp, stream = build_empirical(problem, n, stream, composite, prefixes)
    return exact_erm(emp, x0) or solve_erm(emp, delta, x0=x0), stream


def _separable_quadratic_minimizer(e: EmpiricalObjective, scales: np.ndarray):
    """argmin of sum_i (d_i / 2) (x_i - xi_bar_i)^2 (+ HalfSqL2) over the set.

    The HalfSqL2 term moves the free minimizer coordinatewise to
    (d xi_bar + mu c) / (d + mu); with equal scales the objective is a
    multiple of the squared distance to that point, so projecting it is exact
    on every set.  Unequal scales on a bounded set have no closed form.
    """
    set_ = e.problem.feasible_set
    point = e.samples.mean(axis=0)
    if e.composite is not None:
        mu, centre = e.composite.mu, e.composite.center
        pull = 0.0 if centre is None else mu * centre
        point = (scales * point + pull) / (scales + mu)
    if not set_.is_bounded:
        return point
    if np.any(scales != scales[0]):
        return None
    return project(set_, point)


def _least_squares(problem: ProblemInstance) -> bool:
    """Ridge or lasso on free space or an l2 ball: least squares in closed form."""
    return (problem.family in ("ridge", "lasso")
            and problem.feasible_set.kind in ("unconstrained", "l2_ball"))


def _reads_sums(problem: ProblemInstance, n_terms: int) -> bool:
    """Least squares from N = 2n samples on: there the Gram sums alone give
    the minimizer within 1e-12 of the design-refined solve on the rows (at
    most 6.8e-15 over 200 seeds at N = 2n = 10).  Nearer N = n, forming
    A^T A loses digits that only the design wins back (1.1e-5 at N = n = 20)."""
    return _least_squares(problem) and n_terms >= 2 * problem.dimension


def _least_squares_result(problem, composite, n_terms: int, x0, gram) -> ErmResult:
    """exact_erm's result from the Gram sums: ||A x - y||^2 = v^T gram v, v = (x, -1)."""
    point = _least_squares_minimizer(problem, composite, n_terms, x0, gram=gram)
    v = np.append(point, -1.0)
    value = float(v @ gram @ v) / n_terms + _composite_value(composite, point)
    return ErmResult(point, value, 0, True, "exact")


def _least_squares_minimizer(problem: ProblemInstance, composite, n_terms: int, x0,
                             gram=None, rows=None):
    """argmin of (1/N) ||A x - y||^2 (+ HalfSqL2) on free space or an l2 ball.

    It reads the sample through gram = [A | y]^T [A | y] (block_gram) or,
    given instead, the rows [A | y] themselves.  In z = x - o (o the ball
    centre, or x0 on free space) the objective is z^T H z - 2 b^T z +
    (mu/2) ||z||^2 + const with H = A^T A / N and b = A^T (y - A o) / N.
    The free minimizer solves (H + mu/2) z = b.  From the sums, read from
    N = 2n on, where the design law makes H positive definite, that is one
    LU solve.  From the rows it is the minimum-norm solution on the
    eigendecomposition of H, which has rank at most N, refined once against
    the design.  A free minimizer outside the ball puts the solution on the
    sphere, at the root nu > 0 of ||(H + mu/2 + nu)^-1 b|| = r (the
    trust-region secular equation on the eigendecomposition; H is positive
    semidefinite, so there is no hard case).  Everything works on n x n
    matrices: a LAPACK least-squares solve on the N x n design costs more
    and, once N is a few hundred, wakes a second OpenBLAS thread that keeps
    spinning after the call returns.
    """
    set_ = problem.feasible_set
    dim = problem.dimension
    if set_.is_bounded:
        anchor = set_.center
    else:
        anchor = problem._coerce_point(x0) if x0 is not None else problem.default_x0()
    if rows is None:
        g = gram[:dim, :dim]
        h, b = g / n_terms, (gram[:dim, dim] - g @ anchor) / n_terms
    else:
        a = rows[:, :-1]
        h, b = a.T @ a / n_terms, a.T @ (rows[:, -1] - a @ anchor) / n_terms
    half_mu = 0.0 if composite is None else 0.5 * composite.mu
    if half_mu > 0.0:
        centre = composite.center
        b = b + half_mu * ((0.0 if centre is None else centre) - anchor)
    if rows is None:
        z = np.linalg.solve(h + half_mu * np.eye(dim), b)
        if not set_.is_bounded or np.linalg.norm(z) <= set_.radius:
            return anchor + z
        lam, q = _spectrum(h, n_terms, half_mu)
    else:
        lam, q = _spectrum(h, n_terms, half_mu)
        w = _shifted_solve(lam, b @ q, 0.0)
        # H squares the condition number of A; one refinement step against
        # the design itself wins back the digits lost near N = n
        z = q @ w
        fix = b - a.T @ (a @ z) / n_terms - half_mu * z
        w = w + _shifted_solve(lam, fix @ q, 0.0)
        if not set_.is_bounded or np.linalg.norm(w) <= set_.radius:
            return anchor + q @ w
    z = q @ _secular_point(lam, b @ q, set_.radius)
    return anchor + z * (set_.radius / np.linalg.norm(z))


def _spectrum(h: np.ndarray, n_terms: int, half_mu: float):
    """Eigenvalues (ascending, shifted by mu/2) and eigenvectors of H + mu/2."""
    lam, q = np.linalg.eigh(h)
    lam[: max(h.shape[0] - n_terms, 0)] = 0.0  # H has rank at most N
    return np.maximum(lam, 0.0) + half_mu, q


def _shifted_solve(lam: np.ndarray, beta: np.ndarray, nu: float) -> np.ndarray:
    """beta / (lam + nu) for ascending lam >= 0; a denominator at rounding
    level counts as zero and gives 0 (the minimum-norm convention)."""
    den = lam + nu
    tiny = lam.size * np.finfo(float).eps * lam[-1]
    return np.divide(beta, den, out=np.zeros_like(beta), where=den > tiny)


def _secular_point(lam: np.ndarray, beta: np.ndarray, r: float) -> np.ndarray:
    """w = beta / (lam + nu) at the nu >= 0 where ||w|| = r, for ascending lam >= 0.

    Newton on 1/||w(nu)|| - 1/r, which is concave and increasing in nu, so
    from the lower bound max(0, ||beta||/r - lam_max) the iterates rise
    monotonically to the root (More & Sorensen, SISC 1983); a step leaving
    the bracket [lo, ||beta||/r] bisects instead.
    """
    tiny = lam.size * np.finfo(float).eps * lam[-1]
    lo, hi = 0.0, float(np.linalg.norm(beta)) / r
    nu = max(lo, hi - lam[-1])
    for _ in range(100):
        den = lam + nu
        w = _shifted_solve(lam, beta, nu)
        nrm = float(np.linalg.norm(w))
        if nrm > r:
            lo = nu
        else:
            hi = nu
        if abs(nrm - r) <= 4.0 * np.finfo(float).eps * r or hi <= lo:
            break
        curv = float(np.divide(w * w, den, out=np.zeros_like(w), where=den > tiny).sum())
        step = nu + (nrm - r) / r * nrm * nrm / curv
        nu_next = step if lo < step < hi else 0.5 * (lo + hi)
        if nu_next == nu:
            break
        nu = nu_next
    return w


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
    epsilon: float,
    n: int,
    stream: SampleStream,
    prefixes: PrefixStore | None = None,
) -> tuple[ErmResult, SampleStream]:
    """Tikhonov-regularized ERM for convex problems on bounded sets.

    Adds (eps / (2 R^2)) ||x - c||_2^2 to the empirical objective (modulus
    mu = eps / R^2, centred at the ball centre c, or at the origin on the
    simplex, and R the set's max_distance from that centre: the radius, or 1
    on the simplex), solves it exactly where exact_erm
    has a closed form and otherwise with solve_erm to the inner accuracy
    delta = eps^3 / (8 M^2 R^2), and returns that solution: a gap of at most
    eps/2 on the regularized problem is a gap of at most eps on the original,
    because the added term is at most eps/2 on the set.
    """
    if not epsilon > 0:
        raise InputError("epsilon must be positive")
    set_ = problem.feasible_set
    anchor = np.zeros(set_.dimension) if set_.center is None else set_.center
    r2 = set_.max_distance(anchor)
    if not math.isfinite(r2):
        raise NotApplicableError("regularization radius needs a bounded set")
    c = problem.constants()
    if not math.isfinite(c.M_p):
        raise NotApplicableError("pipeline needs a finite Lipschitz bound M_p")
    mu, delta = tikhonov_parameters(epsilon, c.M_p, r2)
    return sample_erm(problem, n, stream, delta, HalfSqL2(mu, set_.center), prefixes=prefixes)


# ---------------------------------------------------------------------------
# variance reduction
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class VRState:
    """Reference point with its exact full gradient for control variates."""

    reference: np.ndarray
    full_gradient: np.ndarray

    @staticmethod
    def at(e: EmpiricalObjective, point) -> "VRState":
        point = e.problem._coerce_point(point)
        return VRState(point.copy(), e.gradient(point))


def vr_gradient(state: VRState, e: EmpiricalObjective, x, t: int) -> np.ndarray:
    """Control-variate gradient: term t at x minus term t at the reference
    plus the stored full gradient.  Its average over all t is exactly the
    full gradient at x."""
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
    x = project(set_, problem.default_x0())

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


def _norm_power_closed_form_applies(e: EmpiricalObjective) -> bool:
    """The bare norm-power family on free space or an origin-centred l2 ball."""
    set_ = e.problem.feasible_set
    return e.problem.family == "norm_power" and e.composite is None and (
        not set_.is_bounded or set_.kind == "l2_ball" and set_.centered_at_origin()
    )


def norm_power_erm_closed_form(e: EmpiricalObjective) -> np.ndarray:
    """Exact minimizer of the norm-power empirical objective on free space or
    an origin-centred l2 ball of radius r (r = inf on free space).

    With xi_bar the sample mean, the stationary point is xi_bar /
    ||xi_bar||^((s-2)/(s-1)), of norm ||xi_bar||^(1/(s-1)); it is the
    minimizer when ||xi_bar|| <= r^(s-1), and r xi_bar / ||xi_bar|| otherwise.
    s = 1 degenerates to 0 inside (||xi_bar|| <= 1) and the boundary point
    outside; on free space the outside case has no minimizer, since
    ||x|| - <xi_bar, x> is unbounded below, and raises NotApplicableError.
    """
    if not _norm_power_closed_form_applies(e):
        raise InputError(
            "closed form needs the bare norm-power family on free space or an "
            "origin-centred l2 ball"
        )
    set_ = e.problem.feasible_set
    s = e.problem.s
    r = set_.radius if set_.is_bounded else math.inf
    xi_bar = e.samples.mean(axis=0)
    nrm = float(np.linalg.norm(xi_bar))
    if nrm == 0.0:
        return np.zeros_like(xi_bar)
    if nrm > r ** (s - 1.0):
        if not set_.is_bounded:  # inf ** (s - 1) is finite only at s = 1
            raise NotApplicableError("s = 1 with ||xi_bar|| > 1 has no minimizer on free space")
        return r * xi_bar / nrm
    if s == 1.0:
        return np.zeros_like(xi_bar)
    return xi_bar / nrm ** ((s - 2.0) / (s - 1.0))
