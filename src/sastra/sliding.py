"""Accelerated gradient sliding for unconstrained composite objectives.

Minimizes g + h where g is L_g-smooth (possibly nonconvex) and h is convex
and L_h-smooth, L_g <= L_h, with g + h strongly convex.  The outer loop pays
one gradient of g per iteration; gradients of h are confined to an inner
solve of the local model

    A(x) = g(x~) + <grad g(x~), x - x~> + L_g ||x - x~||^2 + h(x),

accepted once ||grad A(x)||^2 <= (L_g^2 / 3) ||x~ - argmin A||^2.  The
unknown distance is certified through its computable strong-convexity lower
bound ||grad A(x~)|| / (2 L_g + L_h).  With h absent the model minimizer is
the explicit half-step x~ - grad g(x~) / (2 L_g) and the scheme degenerates
to an ordinary accelerated method; with g absent it is a proximal-point
(Catalyst) envelope around h.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SastraError
from .problems import uniform_values

__all__ = [
    "SlidingParams",
    "CallLedger",
    "InnerModel",
    "SlidingResult",
    "inner_solve",
    "sliding_run",
    "check_smoothness",
]

# check_smoothness: probe pairs drawn from [-1, 1]^n, and the relative slack
# that absorbs rounding in ||grad(u) - grad(v)|| <= L ||u - v||.
_PROBE_PAIRS = 8
_PROBE_SLACK = 1e-6


@dataclass(frozen=True)
class SlidingParams:
    """Derived coefficients of the sliding scheme.

    tau and eta follow the scheme's display: tau = min{1, sqrt(mu) /
    (2 sqrt(L_g))}, eta = min{1/(2 mu), 1/(2 sqrt(mu L_g))}.  mu > L_g is
    allowed but flagged: the min's first branch engages there, a regime the
    source analysis does not exercise.
    """

    L_g: float
    L_h: float
    mu: float
    inner_budget: int = 50_000
    tau: float = field(init=False)
    eta: float = field(init=False)

    def __post_init__(self):
        if self.L_g <= 0 or self.L_h <= 0:
            raise InputError("smoothness constants must be positive")
        if self.L_g > self.L_h:
            raise InputError("sliding assumes L_g <= L_h")
        if self.mu <= 0:
            raise InputError("sliding needs mu > 0")
        if self.mu > self.L_g:
            warnings.warn(
                "mu > L_g: step weight saturates at 1/(2 mu), an untested regime",
                stacklevel=2,
            )
        object.__setattr__(
            self, "tau", min(1.0, math.sqrt(self.mu) / (2.0 * math.sqrt(self.L_g)))
        )
        object.__setattr__(
            self,
            "eta",
            min(1.0 / (2.0 * self.mu), 1.0 / (2.0 * math.sqrt(self.mu * self.L_g))),
        )


@dataclass
class CallLedger:
    """Split oracle accounting: every gradient evaluation lands here."""

    grad_g_calls: int = 0
    grad_h_calls: int = 0
    outer_iterations: int = 0


@dataclass(frozen=True, eq=False)
class SlidingResult:
    point: np.ndarray
    ledger: CallLedger
    certified: bool
    gap_bound: float


@dataclass(frozen=True, eq=False)
class InnerModel:
    """Local model A at an anchor point, assembled from current outer state."""

    x_tilde: np.ndarray
    g_grad_at_tilde: np.ndarray
    L_g: float
    L_h: float
    grad_h: object  # callable or None

    def grad(self, x) -> np.ndarray:
        out = self.g_grad_at_tilde + (2.0 * self.L_g) * (x - self.x_tilde)
        if self.grad_h is not None:
            out = out + self.grad_h(x)
        return out


def inner_solve(model: InnerModel, params: SlidingParams, tol_override: float | None = None):
    """Drive ||grad A|| below the acceptance threshold; returns the point.

    Runs momentum gradient descent with step 1/(2 L_g + L_h) and the
    strongly convex momentum (1 - sqrt q) / (1 + sqrt q), q = 2 L_g /
    (2 L_g + L_h).  The threshold is (L_g^2 / 3) times the squared
    strong-convexity lower bound on ||x~ - argmin A||; an anchor that is
    already optimal is returned after zero steps.
    """
    l_total = 2.0 * params.L_g + params.L_h
    step = 1.0 / l_total
    x_tilde = model.x_tilde

    g_a = model.grad(x_tilde)
    norm0_sq = float(g_a @ g_a)
    # absolute floor: an anchor gradient at float-dust level is already optimal
    dust = 1e-26 * max(1.0, l_total**2 * float(x_tilde @ x_tilde))
    if norm0_sq <= dust:
        return x_tilde.copy()
    threshold = (params.L_g**2 / 3.0) * norm0_sq / l_total**2
    if tol_override is not None:
        threshold = min(threshold, tol_override)

    q = 2.0 * params.L_g / l_total
    beta = (1.0 - math.sqrt(q)) / (1.0 + math.sqrt(q))

    y = x_tilde.copy()
    x_prev = x_tilde.copy()
    for _ in range(params.inner_budget):
        x_new = y - step * g_a
        y = x_new + beta * (x_new - x_prev)
        x_prev = x_new
        g_a = model.grad(y)
        if float(g_a @ g_a) <= threshold:
            return y
    raise SastraError(
        "inner acceptance criterion unreachable within budget "
        f"({params.inner_budget} steps, residual {float(g_a @ g_a):.3e}, "
        f"threshold {threshold:.3e})"
    )


def sliding_run(
    grad_g,
    grad_h,
    params: SlidingParams,
    x0,
    target_gap: float,
    budget: int,
    probe: bool = False,
) -> SlidingResult:
    """Outer sliding loop with split gradient accounting.

    grad_g / grad_h may be None for an identically-zero component; with
    grad_h None the inner model is minimized by its closed-form half step.
    Stops when the strong-convexity certificate ||grad (g+h)||^2 / (2 mu)
    reaches target_gap; exhausting the budget returns the best-effort point
    flagged uncertified.  With probe=True the smoothness of g is spot-checked
    first (never its convexity).
    """
    if budget < 1:
        raise InputError("budget must be >= 1")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    ledger = CallLedger()

    def eval_g(p):
        ledger.grad_g_calls += 1
        return grad_g(p) if grad_g is not None else np.zeros_like(p)

    def eval_h(p):
        ledger.grad_h_calls += 1
        return grad_h(p)

    if probe and grad_g is not None:
        check_smoothness(grad_g, params.L_g, x0.size)

    tau, eta, mu = params.tau, params.eta, params.mu
    x = x0.copy()
    x_f = x0.copy()
    gap_bound = math.inf
    for _ in range(budget):
        ledger.outer_iterations += 1
        x_tilde = tau * x + (1.0 - tau) * x_f
        gg = eval_g(x_tilde)
        if grad_h is None:
            x_f1 = x_tilde - gg / (2.0 * params.L_g)
        else:
            model = InnerModel(x_tilde, gg, params.L_g, params.L_h, eval_h)
            x_f1 = inner_solve(model, params)
        gbar = eval_g(x_f1)
        if grad_h is not None:
            gbar = gbar + eval_h(x_f1)
        gap_bound = float(gbar @ gbar) / (2.0 * mu)
        if gap_bound <= target_gap:
            return SlidingResult(x_f1, ledger, True, gap_bound)
        if not math.isfinite(gap_bound):
            return SlidingResult(x_f, ledger, False, gap_bound)
        x = x + (eta * mu) * (x_f1 - x) - eta * gbar
        x_f = x_f1
    return SlidingResult(x_f, ledger, False, gap_bound)


def check_smoothness(grad_fn, L: float, dimension: int) -> None:
    """Finite-difference Lipschitz probe of a gradient oracle.

    Draws deterministic point pairs in [-1, 1]^n and checks
    ||grad(u) - grad(v)|| <= L ||u - v|| (1 + slack).  Convexity is
    deliberately never checked.  Raises InputError on a violated pair.
    """
    u = uniform_values(0, 0, 2 * _PROBE_PAIRS * dimension)
    pts = (2.0 * u - 1.0).reshape(2 * _PROBE_PAIRS, dimension)
    for i in range(_PROBE_PAIRS):
        a, b = pts[2 * i], pts[2 * i + 1]
        lhs = float(np.linalg.norm(np.asarray(grad_fn(a)) - np.asarray(grad_fn(b))))
        rhs = L * float(np.linalg.norm(a - b)) * (1.0 + _PROBE_SLACK)
        if lhs > rhs:
            raise InputError(
                f"gradient violates {L}-smoothness on probe pair {i}: {lhs:.3e} > {rhs:.3e}"
            )
