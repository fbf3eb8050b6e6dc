"""Reference implementations that tests compare sastra against, and a report reader."""

import csv
import math

import numpy as np
from scipy.optimize import minimize

from sastra.errors import InputError
from sastra.problems import _argmin_convex, _svm_objective
from sastra.sliding import CallLedger, SlidingResult


def accelerated_reference_run(
    grad_g,
    L_g: float,
    mu: float,
    x0,
    target_gap: float,
    budget: int,
) -> SlidingResult:
    """Standalone accelerated method: the h = 0 degenerate form of sliding_run,
    written out.

    Uses the same coefficient formulas as SlidingParams (with the composite
    smoothness argument vacuous) and the same update expressions, so a
    sliding run with grad_h None must produce bit-identical iterates.
    """
    if budget < 1:
        raise InputError("budget must be >= 1")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    tau = min(1.0, math.sqrt(mu) / (2.0 * math.sqrt(L_g)))
    eta = min(1.0 / (2.0 * mu), 1.0 / (2.0 * math.sqrt(mu * L_g)))
    ledger = CallLedger()

    x = x0.copy()
    x_f = x0.copy()
    gap_bound = math.inf
    for _ in range(budget):
        ledger.outer_iterations += 1
        x_tilde = tau * x + (1.0 - tau) * x_f
        ledger.grad_g_calls += 1
        gg = grad_g(x_tilde)
        x_f1 = x_tilde - gg / (2.0 * L_g)
        ledger.grad_g_calls += 1
        gbar = grad_g(x_f1)
        gap_bound = float(gbar @ gbar) / (2.0 * mu)
        if gap_bound <= target_gap:
            return SlidingResult(x_f1, ledger, True, gap_bound)
        if not math.isfinite(gap_bound):
            return SlidingResult(x_f, ledger, False, gap_bound)
        x = x + (eta * mu) * (x_f1 - x) - eta * gbar
        x_f = x_f1
    return SlidingResult(x_f, ledger, False, gap_bound)


def hinge_erm_value(emp) -> float:
    """Minimum of a soft_svm empirical objective over its l2 ball, by SLSQP on
    the slack formulation: min (1/N) sum t_i over (x, t) with t >= 0,
    t_i >= 1 - y_i <a_i, x> and ||x - c||^2 <= r^2.  The objective and the
    constraints are smooth, so the solve is accurate to rounding."""
    ya = emp.samples[:, :-1] * emp.samples[:, -1][:, None]
    n_terms, dim = ya.shape
    set_ = emp.problem.feasible_set
    cost = np.concatenate([np.zeros(dim), np.full(n_terms, 1.0 / n_terms)])
    constraints = [
        {"type": "ineq", "fun": lambda z: z[dim:] - 1.0 + ya @ z[:dim],
         "jac": lambda z: np.hstack([ya, np.eye(n_terms)])},
        {"type": "ineq",
         "fun": lambda z: np.array([set_.radius**2 - np.sum((z[:dim] - set_.center) ** 2)]),
         "jac": lambda z: np.concatenate([-2.0 * (z[:dim] - set_.center), np.zeros(n_terms)])[None]},
    ]
    z0 = np.concatenate([set_.center, np.ones(n_terms)])
    res = minimize(lambda z: cost @ z, z0, jac=lambda z: cost, constraints=constraints,
                   bounds=[(None, None)] * dim + [(0.0, None)] * n_terms,
                   method="SLSQP", options={"ftol": 1e-15, "maxiter": 1000})
    if not res.success:
        raise InputError(f"hinge reference did not converge: {res.message}")
    d = res.x[:dim] - set_.center
    x = set_.center + d / max(1.0, float(np.linalg.norm(d)) / set_.radius)
    return emp.value(x)


def nested_svm_minimizer(problem) -> np.ndarray:
    """soft_svm's population minimizer by a nested golden-section search:
    over x = alpha c + gamma e in span(concept, center), with e the unit
    direction of the center's part off the concept axis c, an outer search
    over gamma whose every probe runs an inner search over alpha along the
    chord gamma = const.  The minimum over each chord is convex in gamma.
    About 2,000 quadrature calls off the axis."""
    set_, n = problem.feasible_set, problem.dimension
    axis, kappa = problem._axis, problem._kappa
    alpha_c = float(axis @ set_.center)
    off = set_.center - alpha_c * axis
    gamma_c = float(np.linalg.norm(off))

    def best_alpha(gamma):
        half = math.sqrt(max(set_.radius**2 - (gamma - gamma_c) ** 2, 0.0))
        return _argmin_convex(lambda a: _svm_objective(a, abs(gamma), kappa, n),
                              alpha_c - half, alpha_c + half)

    gamma = 0.0
    if gamma_c > 0.0:
        gamma = _argmin_convex(lambda g: _svm_objective(best_alpha(g), abs(g), kappa, n),
                               gamma_c - set_.radius, gamma_c + set_.radius)
        off = off / gamma_c
    alpha = best_alpha(gamma)
    return alpha * axis + gamma * off


def read_report(path) -> tuple[list[str], list[list[str]]]:
    """Parse a CSV report back into (header, records), skipping '#' summary lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]
