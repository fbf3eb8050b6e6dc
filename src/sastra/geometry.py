"""Feasible-set geometry: norms, projections and mirror steps.

Supported sets are the unconstrained space, lp-balls for p in {1, 2} and the
probability simplex.  Projections onto the l1-ball and the simplex use the
sort-based threshold search (O(n log n), exact up to float rounding), which is
easy to test against brute force.  The entropic simplex step is evaluated in
shifted log-space so large step * gradient products cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInputError,
    InputError,
    PreconditionError,
    UnboundedSetError,
)

__all__ = [
    "UNCONSTRAINED",
    "L2_BALL",
    "L1_BALL",
    "SIMPLEX",
    "NormTag",
    "FeasibleSet",
    "project",
    "mirror_step",
    "set_diameter",
    "contains",
    "make_mirror_stepper",
    "MEMBERSHIP_TOL",
]

UNCONSTRAINED = "unconstrained"
L2_BALL = "l2_ball"
L1_BALL = "l1_ball"
SIMPLEX = "simplex"

_KINDS = (UNCONSTRAINED, L2_BALL, L1_BALL, SIMPLEX)

# Default membership tolerance: covers float drift accumulated across ~1e6
# projected steps.
MEMBERSHIP_TOL = 1e-10


@dataclass(frozen=True)
class NormTag:
    """Which lp-norm constants and diameters refer to. Only p in {1, 2}."""

    p: int = 2

    def __post_init__(self):
        if self.p not in (1, 2):
            raise InputError(f"norm p must be 1 or 2, got {self.p}")


@dataclass(frozen=True)
class FeasibleSet:
    """Constraint geometry for the solvers.

    kind      one of unconstrained / l2_ball / l1_ball / simplex
    dimension ambient dimension n >= 1
    radius    ball radius (> 0 for ball kinds; the simplex has implicit radius 1)
    center    ball center, default the origin
    """

    kind: str
    dimension: int
    radius: float = 0.0
    center: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown set kind {self.kind!r}")
        if self.dimension < 1:
            raise InputError(f"dimension must be >= 1, got {self.dimension}")
        if self.kind in (L2_BALL, L1_BALL):
            if not self.radius > 0:
                raise InputError(f"ball radius must be positive, got {self.radius}")
            c = self.center
            if c is None:
                c = np.zeros(self.dimension)
            c = np.asarray(c, dtype=float)
            if c.shape != (self.dimension,):
                raise InputError(
                    f"center has shape {c.shape}, expected ({self.dimension},)"
                )
            object.__setattr__(self, "center", c)
        else:
            object.__setattr__(self, "center", None)
            object.__setattr__(self, "radius", 1.0 if self.kind == SIMPLEX else 0.0)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def unconstrained(dimension: int) -> "FeasibleSet":
        return FeasibleSet(UNCONSTRAINED, dimension)

    @staticmethod
    def l2_ball(dimension: int, radius: float, center=None) -> "FeasibleSet":
        return FeasibleSet(L2_BALL, dimension, radius, center)

    @staticmethod
    def l1_ball(dimension: int, radius: float, center=None) -> "FeasibleSet":
        return FeasibleSet(L1_BALL, dimension, radius, center)

    @staticmethod
    def simplex(dimension: int) -> "FeasibleSet":
        return FeasibleSet(SIMPLEX, dimension)

    @property
    def is_bounded(self) -> bool:
        return self.kind != UNCONSTRAINED

    def centered_at_origin(self) -> bool:
        return self.center is None or not self.center.any()


def _check_vector(set_: FeasibleSet, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (set_.dimension,):
        raise InputError(
            f"vector has shape {x.shape}, expected ({set_.dimension},)"
        )
    return x


def _simplex_project(v: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum x = radius}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - radius
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u * idx > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _l1_project(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto {x : ||x||_1 <= radius}."""
    if np.abs(v).sum() <= radius:
        return v
    w = _simplex_project(np.abs(v), radius)
    return np.sign(v) * w


def _l2_project(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto {x : ||x||_2 <= radius}, shrinking v in place."""
    nrm = np.sqrt(v @ v)
    if nrm > radius:
        v *= radius / nrm
    return v


# One Euclidean projection per set kind, onto the origin-centred set of the
# given radius.  Each takes a vector its caller owns and may overwrite it.
_PROJECTIONS = {
    UNCONSTRAINED: lambda v, radius: v,
    L2_BALL: _l2_project,
    L1_BALL: _l1_project,
    SIMPLEX: _simplex_project,
}


def _projector(set_: FeasibleSet):
    """v -> Euclidean projection of v onto the set; may overwrite v.

    Tests the centre once, so a hot loop on an origin-centred set does no
    shift.
    """
    proj, radius = _PROJECTIONS[set_.kind], set_.radius
    if set_.centered_at_origin():
        return lambda v: proj(v, radius)
    center = set_.center
    return lambda v: proj(v - center, radius) + center


def project(set_: FeasibleSet, x) -> np.ndarray:
    """Euclidean projection of x onto the set, as a new float array.

    Unconstrained sets return a copy of x.  A one-off call skips the
    centre test of _projector and shifts every ball by its centre.
    """
    x = _check_vector(set_, x)
    proj, center = _PROJECTIONS[set_.kind], set_.center
    if center is None:
        return proj(x.copy(), set_.radius)
    return proj(x - center, set_.radius) + center


def contains(set_: FeasibleSet, x, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff the Euclidean distance from x to the set is at most tol."""
    x = _check_vector(set_, x)
    d = x - project(set_, x)
    return float(np.sqrt(d @ d)) <= tol


def mirror_step(set_: FeasibleSet, x, g, gamma: float) -> np.ndarray:
    """One mirror-descent step from x along stochastic (sub)gradient g.

    Ball kinds and the unconstrained space use the Euclidean prox, i.e.
    project(set, x - gamma * g).  The simplex uses the entropic update
    x_i * exp(-gamma * g_i), renormalized to sum one.  Checks its inputs,
    then takes the step of make_mirror_stepper.
    """
    x = _check_vector(set_, x)
    g = _check_vector(set_, g)
    if not gamma > 0:
        raise InputError(f"step size must be positive, got {gamma}")
    if not contains(set_, x):
        raise PreconditionError("mirror_step requires x inside the set")
    if set_.kind == SIMPLEX and np.any((x == 0.0) & (g != 0.0)):
        raise DegenerateInputError(
            "entropic step undefined: zero coordinate with nonzero gradient"
        )
    return make_mirror_stepper(set_)(x, g, gamma)


def _entropic_update(x: np.ndarray, g: np.ndarray, gamma: float) -> np.ndarray:
    # log-space with max-shift so exp never overflows
    logw = np.where(x > 0.0, np.log(np.maximum(x, 1e-300)) - gamma * g, -np.inf)
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def set_diameter(set_: FeasibleSet, norm: NormTag = NormTag(2)) -> float:
    """Exact diameter of a bounded set in the requested norm."""
    if set_.kind == UNCONSTRAINED:
        raise UnboundedSetError("unconstrained set has no finite diameter")
    n = set_.dimension
    if set_.kind == L2_BALL:
        # sup ||x - y||_1 over the l2 ball is attained on the diagonal direction
        return 2.0 * set_.radius * (np.sqrt(n) if norm.p == 1 else 1.0)
    if set_.kind == L1_BALL:
        # extreme pair is +-R e_i in both norms
        return 2.0 * set_.radius
    # simplex: distance between two vertices; a single point when n == 1
    if n == 1:
        return 0.0
    return 2.0 if norm.p == 1 else float(np.sqrt(2.0))


def make_mirror_stepper(set_: FeasibleSet):
    """Unchecked mirror step for solver hot loops.

    Returns f(x, g, gamma) -> next iterate.  Skips the membership recheck:
    callers must start from a feasible point, and every output is feasible by
    construction.  Public code should use mirror_step instead.
    """
    if set_.kind == SIMPLEX:
        return _entropic_update
    proj = _projector(set_)

    def step(x, g, gamma):
        return proj(x - gamma * g)

    return step
