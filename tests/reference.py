"""Reference implementations that tests compare sastra against, and a report reader."""

import csv
import math

import numpy as np

from sastra.errors import InputError
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


def read_report(path) -> tuple[list[str], list[list[str]]]:
    """Parse a CSV report back into (header, records), skipping '#' summary lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]
