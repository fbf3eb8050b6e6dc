"""Synthetic stochastic objectives with exact ground truth.

Every family exposes per-sample value/subgradient oracles, a closed-form (or,
for soft_svm, exact-quadrature) population objective, and declared constants.
The per-sample subgradient works row by row: row t of a (T, n) block of
points meets row t of a (T, width) block of samples, which is how the online
solvers advance T trials at once.
Sampling is counter-based.  Philox-4x64 draws of a seed run under the 128-bit
key (seed, salt), two exact 64-bit words; counter words 0-1 count blocks, word
2 is 0 and word 3 is the stream kind: 0 samples, 1 uniform_values, 2 centers
of FiniteSumQuadratic.from_seed.  Value i of a stream is a pure function of
(seed, kind, i) on every platform, and distinct (seed, kind) streams are
disjoint by construction.  Normals come from fixed-consumption uniforms via
the inverse CDF, which keeps the window arithmetic exact.  Each thread sets
the whole state (key, counter, output buffer) of its one Philox generator
before every draw, so no state carries from one draw to the next.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_fn, betainc, ndtri

from .errors import InputError, PreconditionError
from .geometry import FeasibleSet, contains, row_dot

__all__ = [
    "ProblemConstants",
    "SampleStream",
    "ProblemInstance",
    "GaussianMean",
    "RidgeRegression",
    "Lasso",
    "SoftSVM",
    "NormPower",
    "FiniteSumQuadratic",
]

_MASK64 = (1 << 64) - 1
# Key salt: separates sastra sample streams from any other Philox user.  It is
# 0x9E3779B97F4A7C15 rounded to float64, the key word the streams of every
# seed below 2^53 have always been drawn under.
_KEY_SALT = 0x9E3779B97F4A8000
# Stream kinds, carried in Philox counter word 3.
_SAMPLES, _VALUES, _CENTERS = 0, 1, 2


def _uniform_windows(seed: int, first_sample: int, count: int, words: int, kind: int) -> np.ndarray:
    """Uniform doubles for windows [first, first+count) of stream (seed, kind), shape (count, w4).

    Each sample owns ceil(words/4) Philox blocks; w4 = 4 * ceil(words/4).
    Only the first ``words`` columns are meaningful, the rest is padding that
    keeps windows block-aligned.
    """
    bps = max(1, (words + 3) // 4)
    w4 = 4 * bps
    ctr = first_sample * bps
    gen = _THREAD_PHILOX.generator
    # the state a fresh Philox(key=, counter=) starts from: an empty buffer
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [ctr & _MASK64, (ctr >> 64) & _MASK64, 0, kind],
                  "key": [seed & _MASK64, _KEY_SALT]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.random(count * w4).reshape(count, w4)


class _ThreadPhilox(threading.local):
    """One reusable Philox generator per thread; _uniform_windows rekeys it."""

    def __init__(self):
        self.generator = np.random.Generator(np.random.Philox(0))


_THREAD_PHILOX = _ThreadPhilox()


def _std_normal(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms in [0,1) via the inverse CDF."""
    return ndtri(u + 2.0**-54)


def uniform_values(seed: int, start: int, count: int) -> np.ndarray:
    """Raw uniforms in [0,1) from stream (seed, kind 1), one Philox block per value.

    Family-independent; used for index randomness (e.g. term sampling in
    finite-sum solvers), disjoint from the seed's sample stream (kind 0).
    """
    return _uniform_windows(seed, start, count, 1, _VALUES)[:, 0]


# Truncated-at-3-sigma standard normal: CDF window and variance.
_PHI3 = 0.5 * (1.0 + math.erf(3.0 / math.sqrt(2.0)))
_TRUNC_WINDOW = 2.0 * _PHI3 - 1.0
_PHI3_PDF = math.exp(-4.5) / math.sqrt(2.0 * math.pi)
TRUNC3_VARIANCE = 1.0 - 6.0 * _PHI3_PDF / _TRUNC_WINDOW


def _trunc3_normal(u: np.ndarray) -> np.ndarray:
    """Standard normal conditioned on |z| <= 3, one uniform per value."""
    return ndtri((1.0 - _PHI3) + u * _TRUNC_WINDOW)


@dataclass(frozen=True)
class ProblemConstants:
    """Declared constants of a problem family.

    M_p        Lipschitz constant of f(.,xi) on the feasible set (inf if the
               data is unbounded; some families declare a documented effective
               RMS bound instead, see the family docstring).  A distance R
               that it depends on comes from FeasibleSet.max_distance, which
               is inf on free space.
    L          gradient Lipschitz constant, uniform in xi (inf if nonsmooth)
    mu_p       per-sample strong-convexity modulus (0 if merely convex)
    sigma_star_sq   E ||grad f(x*, xi)||_2^2
    s          growth exponent (>= 1)
    mu_ps      growth modulus (0 if no growth condition is declared)
    """

    M_p: float
    L: float
    mu_p: float
    sigma_star_sq: float
    s: float
    mu_ps: float

    def __post_init__(self):
        for name in ("M_p", "L", "mu_p", "sigma_star_sq", "s", "mu_ps"):
            if getattr(self, name) < 0:
                raise InputError(f"constant {name} must be nonnegative")
        if math.isfinite(self.L) and self.mu_p > self.L * (1 + 1e-12):
            raise InputError("mu_p cannot exceed L")
        if self.s < 1:
            raise InputError("growth exponent s must be >= 1")


@dataclass(frozen=True)
class SampleStream:
    """Deterministic i.i.d. sample source bound to a problem.

    The pair (base_seed, counter) fully determines the next sample.  Streams
    are values: drawing returns an advanced copy, so concurrent trials can
    hold disjoint streams without coordination.
    """

    problem: "ProblemInstance"
    base_seed: int
    counter: int = 0

    def draw_block(self, count: int):
        """Return (rows array of shape (count, sample_width), advanced stream)."""
        if count < 0:
            raise InputError("count must be nonnegative")
        p, words = self.problem, self.problem.rng_words
        u = _uniform_windows(self.base_seed, self.counter, count, words, _SAMPLES)
        rows = p.rows_from_uniforms(u[:, :words])
        return rows, SampleStream(p, self.base_seed, self.counter + count)


class ProblemInstance:
    """Base class for stochastic problem families.

    Subclasses hold a ``feasible_set`` and fill in the sampler transform,
    per-sample oracles, the population gap and constants.  Instances are
    immutable after construction and safe to share across runs.
    """

    family: str = "abstract"

    @property
    def dimension(self) -> int:
        return self.feasible_set.dimension

    # --- sampling -----------------------------------------------------

    @property
    def sample_width(self) -> int:
        """Float columns of one sample row: by default, one per coordinate."""
        return self.dimension

    @property
    def rng_words(self) -> int:
        """Uniform doubles consumed per sample: by default, one per column."""
        return self.sample_width

    def rows_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def stream(self, seed: int) -> SampleStream:
        return SampleStream(self, int(seed) & _MASK64, 0)

    # --- oracles --------------------------------------------------------

    def loss_value(self, x, xi) -> float:
        x = self._coerce_point(x)
        if not contains(self.feasible_set, x):
            raise PreconditionError("loss_value requires x in the feasible set")
        return self._loss(x, np.atleast_1d(np.asarray(xi, dtype=float)))

    def loss_subgradient(self, x, xi) -> np.ndarray:
        x = self._coerce_point(x)
        return self._subgrad(x, np.atleast_1d(np.asarray(xi, dtype=float)))

    def population_gap(self, x) -> float:
        x = self._coerce_point(x)
        return self._gap(x)

    def constants(self) -> ProblemConstants:
        raise NotImplementedError

    # --- vectorized paths used by solvers and empirical objectives ------

    def batch_losses(self, x, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def batch_subgrad_mean(self, x, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _loss(self, x: np.ndarray, xi: np.ndarray) -> float:
        return float(self.batch_losses(x, xi[None, :])[0])

    def _subgrad(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Subgradient of f(., xi_t) at x_t, row by row.

        x is a point (n,) and xi a sample (width,), or x a block (T, n) and
        xi a block (T, width); the result has the shape of x.
        """
        raise NotImplementedError

    def _gap(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def _coerce_point(self, x) -> np.ndarray:
        # contiguous, so a strided row of a point block grades bit-identically
        # to its copy (BLAS kernels round strided input differently)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dimension,):
            raise InputError(
                f"point has shape {x.shape}, expected ({self.dimension},)"
            )
        return np.ascontiguousarray(x)

    # --- common accessors ------------------------------------------------

    @property
    def x_star(self) -> np.ndarray:
        raise NotImplementedError

    def default_x0(self) -> np.ndarray:
        s = self.feasible_set
        if s.kind == "simplex":
            return np.full(self.dimension, 1.0 / self.dimension)
        if s.kind in ("l2_ball", "l1_ball"):
            return s.center.copy()
        return np.zeros(self.dimension)

    def _validate_optimum(self):
        if not contains(self.feasible_set, self.x_star, 1e-9):
            raise InputError("population optimum must lie in the feasible set")


@dataclass(frozen=True, eq=False)
class GaussianMean(ProblemInstance):
    """Location estimation under Gaussian noise: f(x, xi) = ||xi - x||^2.

    The population objective is ||x - x*||^2 + n sigma^2, so the gap is exact.
    The per-sample loss is 2-strongly convex and 2-smooth.  M_p is the
    documented effective bound 2 (r_max + 3 sigma sqrt n), with r_max the
    set's max_distance from x* (inf on free space); the raw data is
    unbounded, so no uniform Lipschitz constant exists.
    """

    mean: np.ndarray
    sigma: float
    feasible_set: FeasibleSet

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, float)))
        if self.sigma < 0:
            raise InputError("sigma must be nonnegative")
        if self.mean.shape != (self.feasible_set.dimension,):
            raise InputError("mean and feasible set dimensions differ")
        self._validate_optimum()

    family = "gaussian_mean"

    def rows_from_uniforms(self, u):
        return self.mean + self.sigma * _std_normal(u)

    @property
    def x_star(self) -> np.ndarray:
        return self.mean

    def batch_losses(self, x, rows):
        d = rows - x
        return np.einsum("ij,ij->i", d, d)

    def batch_subgrad_mean(self, x, rows):
        return 2.0 * (x - rows.mean(axis=0))

    def _subgrad(self, x, xi):
        return 2.0 * (x - xi)

    def _gap(self, x):
        d = x - self.mean
        return float(d @ d)

    def constants(self) -> ProblemConstants:
        n = self.dimension
        r_max = self.feasible_set.max_distance(self.mean)
        return ProblemConstants(
            M_p=2.0 * (r_max + 3.0 * self.sigma * math.sqrt(n)),
            L=2.0,
            mu_p=2.0,
            sigma_star_sq=4.0 * n * self.sigma**2,
            s=2.0,
            mu_ps=1.0,
        )


@dataclass(frozen=True, eq=False)
class RidgeRegression(ProblemInstance):
    """Least squares with bounded design: y = <a, x*> + sigma eta.

    A sample is the row (a_1..a_n, y).  a is uniform on the sphere of radius
    sqrt(n), so E a a^T = I, and eta is a standard normal truncated at +-3,
    so the loss is uniformly M-Lipschitz and 2n-smooth on bounded sets, with
    M from R, the set's max_distance from the origin.  The population
    objective is ||x - x*||^2 + noise floor.
    """

    coefficients: np.ndarray
    sigma: float
    feasible_set: FeasibleSet

    family = "ridge"

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", np.atleast_1d(np.asarray(self.coefficients, float))
        )
        if self.sigma < 0:
            raise InputError("sigma must be nonnegative")
        if self.coefficients.shape != (self.feasible_set.dimension,):
            raise InputError("coefficients and feasible set dimensions differ")
        self._validate_optimum()

    @property
    def sample_width(self) -> int:
        return self.dimension + 1

    def rows_from_uniforms(self, u):
        n = self.dimension
        z = _std_normal(u[:, :n])
        nrm = np.sqrt(np.einsum("ij,ij->i", z, z))
        a = z * (math.sqrt(n) / nrm)[:, None]
        noise = self.sigma * _trunc3_normal(u[:, n])
        y = a @ self.coefficients + noise
        return np.hstack([a, y[:, None]])

    @property
    def x_star(self) -> np.ndarray:
        return self.coefficients

    def batch_losses(self, x, rows):
        r = rows[:, :-1] @ x - rows[:, -1]
        return r * r

    def batch_subgrad_mean(self, x, rows):
        r = rows[:, :-1] @ x - rows[:, -1]
        return 2.0 * (r @ rows[:, :-1]) / rows.shape[0]

    def _subgrad(self, x, xi):
        a = xi[..., :-1]
        return 2.0 * (row_dot(a, x) - xi[..., -1:]) * a

    def _gap(self, x):
        d = x - self.coefficients
        return float(d @ d)

    def constants(self) -> ProblemConstants:
        n = self.dimension
        r = self.feasible_set.max_distance(np.zeros(n))
        resid = math.sqrt(n) * (float(np.linalg.norm(self.coefficients)) + r) + 3.0 * self.sigma
        return ProblemConstants(
            M_p=2.0 * math.sqrt(n) * resid,
            L=2.0 * n,
            mu_p=0.0,
            sigma_star_sq=4.0 * n * TRUNC3_VARIANCE * self.sigma**2,
            s=2.0,
            mu_ps=1.0,
        )


@dataclass(frozen=True, eq=False)
class Lasso(RidgeRegression):
    """Same generative model as ridge; conventionally paired with an l1
    composite and a sparse ground truth."""

    family = "lasso"


@dataclass(frozen=True, eq=False)
class NormPower(ProblemInstance):
    """f(x, xi) = ||x||_2^s - s <xi, x> on a ball or free space, xi ~ N(0, sigma^2 I).

    The default set is the unit l2-ball.  Population objective ||x||_2^s with
    optimum at the origin and growth modulus mu_{2,s} = 1.  With R the set's
    max_distance from the origin (inf on free space), M_p is the documented
    effective bound s (R^{s-1} + sigma sqrt n): stochastic gradients are
    unbounded but their norm concentrates below it.  For s > 2,
    L = s (s-1) R^{s-2}.
    """

    s: float
    sigma: float
    dim: int
    feasible_set: FeasibleSet = None

    family = "norm_power"

    def __post_init__(self):
        if self.s < 1:
            raise InputError("growth exponent s must be >= 1")
        if self.sigma < 0:
            raise InputError("sigma must be nonnegative")
        if self.feasible_set is None:
            object.__setattr__(self, "feasible_set", FeasibleSet.l2_ball(self.dim, 1.0))
        if self.feasible_set.dimension != self.dim:
            raise InputError("feasible set dimension mismatch")
        self._validate_optimum()

    def rows_from_uniforms(self, u):
        return self.sigma * _std_normal(u)

    @property
    def x_star(self) -> np.ndarray:
        return np.zeros(self.dim)

    def batch_losses(self, x, rows):
        nx = float(np.sqrt(x @ x))
        return nx**self.s - self.s * (rows @ x)

    def batch_subgrad_mean(self, x, rows):
        return self._norm_grad(x) - self.s * rows.mean(axis=0)

    def _norm_grad(self, x):
        if self.s == 2.0:  # s ||x||^(s-2) is the constant 2
            return 2.0 * x
        # row-wise; the zero subgradient selection of ||.||^s at the origin
        nx = np.sqrt(row_dot(x, x))
        coef = np.power(nx, self.s - 2.0, out=np.zeros_like(nx), where=nx > 0.0)
        return (self.s * coef) * x

    def _subgrad(self, x, xi):
        return self._norm_grad(x) - self.s * xi

    def _gap(self, x):
        return float(np.sqrt(x @ x)) ** self.s

    def constants(self) -> ProblemConstants:
        s, n = self.s, self.dim
        # the simplex never hosts the family: it misses the origin
        r = self.feasible_set.max_distance(np.zeros(n))
        smooth = s * (s - 1.0) * r ** (s - 2.0) if s > 2.0 else math.inf
        return ProblemConstants(
            M_p=s * (r ** (s - 1.0) + self.sigma * math.sqrt(n)),
            L=smooth if s != 2.0 else 2.0,
            mu_p=2.0 if s == 2.0 else 0.0,
            sigma_star_sq=s * s * self.sigma**2 * n,
            s=s,
            mu_ps=1.0,
        )


@dataclass(frozen=True, eq=False)
class FiniteSumQuadratic(ProblemInstance):
    """Uniform mixture of quadratics: f(x, xi) = 1/2 sum_i d_i (x_i - xi_i)^2.

    xi is drawn uniformly from a fixed pool of centers.  With all scales d_i
    equal to one this is the plain 1/2 ||x - xi||^2 loss; anisotropic scales
    give a controlled condition number L/mu = max d / min d.  When every
    center coincides the problem interpolates: sigma*^2 = 0.  M_p is max d
    times the set's max_distance from the farthest center.
    """

    centers: np.ndarray
    scales: np.ndarray = None
    feasible_set: FeasibleSet = None

    family = "finite_sum_quadratic"

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        if c.ndim != 2 or c.shape[0] < 1:
            raise InputError("centers must be a nonempty (m, n) array")
        object.__setattr__(self, "centers", c)
        d = self.scales
        d = np.ones(c.shape[1]) if d is None else np.asarray(d, dtype=float)
        if d.shape != (c.shape[1],) or np.any(d <= 0):
            raise InputError("scales must be positive with one entry per coordinate")
        object.__setattr__(self, "scales", d)
        if self.feasible_set is None:
            object.__setattr__(
                self, "feasible_set", FeasibleSet.unconstrained(c.shape[1])
            )
        if self.feasible_set.dimension != c.shape[1]:
            raise InputError("feasible set dimension mismatch")
        # identical centers must yield an exactly-zero spread (interpolation)
        mean = c[0].copy() if np.all(c == c[0]) else c.mean(axis=0)
        object.__setattr__(self, "_mean_center", mean)
        self._validate_optimum()

    @staticmethod
    def interpolating(point, n_terms: int = 8, scales=None, set_=None):
        point = np.atleast_1d(np.asarray(point, dtype=float))
        centers = np.tile(point, (n_terms, 1))
        return FiniteSumQuadratic(centers, scales, set_)

    @staticmethod
    def from_seed(dimension: int, n_terms: int, spread: float, seed: int,
                  scales=None, set_=None, mean=None):
        """Deterministic Gaussian center pool around ``mean``."""
        if n_terms < 1:
            raise InputError("n_terms must be >= 1")
        u = _uniform_windows(seed, 0, n_terms, dimension, _CENTERS)[:, :dimension]
        base = np.zeros(dimension) if mean is None else np.asarray(mean, float)
        centers = base + spread * _std_normal(u)
        # recenter so the population optimum is exactly ``mean``
        centers += base - centers.mean(axis=0)
        return FiniteSumQuadratic(centers, scales, set_)

    @property
    def rng_words(self) -> int:
        return 1

    def rows_from_uniforms(self, u):
        m = self.centers.shape[0]
        idx = np.minimum((u[:, 0] * m).astype(np.int64), m - 1)
        return self.centers[idx]

    @property
    def x_star(self) -> np.ndarray:
        return self._mean_center

    def batch_losses(self, x, rows):
        d = x - rows
        return 0.5 * (d * d) @ self.scales

    def batch_subgrad_mean(self, x, rows):
        return self.scales * (x - rows.mean(axis=0))

    def _subgrad(self, x, xi):
        return self.scales * (x - xi)

    def _gap(self, x):
        d = x - self._mean_center
        return 0.5 * float((d * d) @ self.scales)

    def constants(self) -> ProblemConstants:
        d = self.scales
        diff = self.centers - self._mean_center
        sig = float(np.mean(np.einsum("ij,ij->i", diff * d, diff * d)))
        lip = float(np.max(d))
        return ProblemConstants(
            M_p=lip * self.feasible_set.max_distance(self.centers),
            L=lip,
            mu_p=float(np.min(d)),
            sigma_star_sq=sig,
            s=2.0,
            mu_ps=float(np.min(d)) / 2.0,
        )


class SoftSVM(ProblemInstance):
    """Hinge loss over an l2 ball with a planted separating direction.

    Lab generative model (the improper density is made proper by fixing the
    covariate law): a is uniform on the unit sphere and the label is drawn
    with P(y | a) proportional to min(1, exp(y <concept, a> - 1)).  The
    population objective is exact up to quadrature error below 1e-12
    (``_svm_objective``); reflections fixing the concept and the ball center
    keep law and ball, so x* minimizes it over span(concept, center).  Both
    are computed once, at construction.
    """

    family = "soft_svm"

    def __init__(self, concept, feasible_set: FeasibleSet | None = None):
        self.concept = np.atleast_1d(np.asarray(concept, dtype=float))
        n = self.concept.size
        self.feasible_set = feasible_set or FeasibleSet.l2_ball(n, 1.0)
        if self.feasible_set.dimension != n:
            raise InputError("feasible set dimension mismatch")
        if self.feasible_set.kind != "l2_ball":
            raise InputError("soft_svm is defined over an l2 ball")
        self._kappa = float(np.linalg.norm(self.concept))
        if self._kappa == 0:
            raise InputError("soft_svm needs a nonzero concept (x_star)")
        self._axis = self.concept / self._kappa
        self._x_star = self._minimize()
        self._f_star = self.population_value(self._x_star)

    @property
    def sample_width(self) -> int:
        return self.dimension + 1

    def rows_from_uniforms(self, u):
        n = self.dimension
        z = _std_normal(u[:, :n])
        nrm = np.sqrt(np.einsum("ij,ij->i", z, z))
        a = z / nrm[:, None]
        y = np.where(u[:, n] < _label_prob(a @ self.concept), 1.0, -1.0)
        return np.hstack([a, y[:, None]])

    def batch_losses(self, x, rows):
        margins = (rows[:, :-1] @ x) * rows[:, -1]
        return np.maximum(0.0, 1.0 - margins)

    def batch_subgrad_mean(self, x, rows):
        ya = rows[:, :-1] * rows[:, -1][:, None]
        margins = ya @ x
        active = margins < 1.0
        if not np.any(active):
            return np.zeros_like(x)
        return -ya[active].sum(axis=0) / rows.shape[0]

    def _subgrad(self, x, xi):
        a, y = xi[..., :-1], xi[..., -1:]
        return np.where(y * row_dot(a, x) < 1.0, -y * a, 0.0)

    def population_value(self, x) -> float:
        """The population objective F(x) = E (1 - y <x, a>)_+."""
        x = self._coerce_point(x)
        alpha = float(self._axis @ x)
        beta = float(np.linalg.norm(x - alpha * self._axis))
        return _svm_objective(alpha, beta, self._kappa, self.dimension)

    def _minimize(self):
        """Minimizer over x = alpha c + gamma e in span(concept, center), with e
        the unit direction of the center's part off the concept axis c.  F is
        convex in (alpha, gamma) and even in gamma, so nondecreasing in |gamma|:
        the best point of each chord alpha = const is the one nearest the axis,
        and the chord minimum is convex in alpha: one search over alpha."""
        set_, n, kappa = self.feasible_set, self.dimension, self._kappa
        alpha_c = float(self._axis @ set_.center)
        off = set_.center - alpha_c * self._axis
        gamma_c = float(np.linalg.norm(off))
        off = off / gamma_c if gamma_c > 0.0 else off

        def nearest_gamma(alpha):
            return max(0.0, gamma_c - math.sqrt(max(set_.radius**2 - (alpha - alpha_c) ** 2, 0.0)))

        alpha = _argmin_convex(lambda a: _svm_objective(a, nearest_gamma(a), kappa, n),
                               alpha_c - set_.radius, alpha_c + set_.radius)
        return alpha * self._axis + nearest_gamma(alpha) * off

    @property
    def x_star(self) -> np.ndarray:
        return self._x_star

    def _gap(self, x):
        return max(self.population_value(x) - self._f_star, 0.0)

    def constants(self) -> ProblemConstants:
        # sigma_star_sq: ||a|| = 1, an upper bound used as the declared proxy
        return ProblemConstants(M_p=1.0, L=math.inf, mu_p=0.0, sigma_star_sq=1.0,
                                s=2.0, mu_ps=0.0)


def _label_prob(m):
    """P(y = +1 | <concept, a> = m) in the soft_svm model."""
    w_pos = np.exp(np.minimum(m - 1.0, 0.0))
    w_neg = np.exp(np.minimum(-m - 1.0, 0.0))
    return w_pos / (w_pos + w_neg)


def _hinge_mean(A, B, n):
    """H(A, B) = E (A - B w)_+, B >= 0, w a coordinate of a uniform point on
    S^{n-2}: w = +-1 for n = 2, else (1 + w)/2 ~ Beta(k, k) with k = (n-2)/2,
    so H = A P(w < t) - B E[w; w < t] at t = A/B in closed form."""
    if n == 2:
        return 0.5 * (np.maximum(A - B, 0.0) + np.maximum(A + B, 0.0))
    k = 0.5 * (n - 2)
    t = np.clip(np.divide(A, B, out=np.copysign(np.ones_like(A), A), where=B > 0), -1.0, 1.0)
    moment = (1.0 - t * t) ** k / (2.0 * k * beta_fn(0.5, k))  # -E[w; w < t]
    return A * betainc(k, k, 0.5 * (1.0 + t)) + B * moment


_SVM_NODES = 96  # per piece of the soft_svm integral; half as many move F < 1e-12


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m: int):
    """m-node Gauss-Legendre rule on [0, 1] graded by s -> 3s^2 - 2s^3."""
    s, w = np.polynomial.legendre.leggauss(m)
    s, w = 0.5 * (s + 1.0), 0.5 * w
    return s * s * (3.0 - 2.0 * s), w * 6.0 * s * (1.0 - s)


def _svm_objective(alpha, beta, kappa, n, nodes=_SVM_NODES) -> float:
    """soft_svm F(x) from alpha = <x, c>, beta = ||x - alpha c||, c the unit
    concept direction and kappa = ||concept||.  With u = <c, a>,
    of density rho_n prop. to (1 - u^2)^((n-3)/2), and v = beta sqrt(1 - u^2),
    F = int rho_n [p(kappa u) H(1 - alpha u, v) + (1 - p(kappa u)) H(1 + alpha u, v)] du.
    Graded Gauss-Legendre in arcsin u on pieces split at u = +-1/kappa (kinks),
    at +-4/sqrt(n), +-8/sqrt(n) (rho_n's scale) and, if alpha^2 + beta^2 > 1,
    where a plane <x, a> = +-1 touches the slice <c, a> = u.  For odd n the
    integrand is (u - u0)^(n/2) there, which the grading makes analytic.
    n = 1 is the two-point law a = +-1.
    """
    if n == 1:
        p = float(_label_prob(kappa))
        return p * max(1.0 - alpha, 0.0) + (1.0 - p) * max(1.0 + alpha, 0.0)
    cuts = [-1.0, 1.0] + [k * 4.0 / math.sqrt(n) for k in (-2.0, -1.0, 1.0, 2.0)]
    if kappa > 1.0:
        cuts += [-1.0 / kappa, 1.0 / kappa]
    r2 = alpha * alpha + beta * beta
    if r2 > 1.0:
        d = beta * math.sqrt(r2 - 1.0)
        cuts += [(i * alpha + j * d) / r2 for i in (-1.0, 1.0) for j in (-1.0, 1.0)]
    edges = np.unique(np.arcsin(np.clip(cuts, -1.0, 1.0)))
    s, w = _gauss_legendre(nodes)
    width = np.diff(edges)[:, None]
    theta = edges[:-1, None] + width * s
    u, c = np.sin(theta), np.cos(theta)
    p, b = _label_prob(kappa * u), beta * c
    g = p * _hinge_mean(1.0 - alpha * u, b, n) + (1.0 - p) * _hinge_mean(1.0 + alpha * u, b, n)
    return float(np.sum(width * w * c ** (n - 2) * g)) / beta_fn(0.5, 0.5 * (n - 1))


def _argmin_convex(f, lo, hi):
    """Golden-section minimizer of a convex f on [lo, hi], to a bracket of
    width 1e-8; the ends are candidates too, so a minimizer on the boundary is
    returned exactly.
    (Importing scipy.optimize instead would add ~0.3 s to every start-up.)"""
    g = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-8:
        if fc <= fd:  # the minimum lies in [a, d]: shift c to d
            b, d, fd, c = d, c, fc, d - g * (d - a)
            fc = f(c)
        else:
            a, c, fc, d = c, d, fd, c + g * (b - c)
            fd = f(d)
    return min((0.5 * (a + b), lo, hi), key=f)


_FAMILIES = {
    "gaussian_mean": GaussianMean,
    "ridge": RidgeRegression,
    "lasso": Lasso,
    "soft_svm": SoftSVM,
    "norm_power": NormPower,
    "finite_sum_quadratic": FiniteSumQuadratic,
}
