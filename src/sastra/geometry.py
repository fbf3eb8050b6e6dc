"""Feasible-set geometry: norms, projections and mirror steps.

Supported sets are the unconstrained space, lp-balls for p in {1, 2} and the
probability simplex.  Projections onto the l1-ball and the simplex use the
sort-based threshold search (O(n log n), exact up to float rounding), which is
easy to test against brute force.  The entropic simplex step is evaluated in
shifted log-space so large step * gradient products cannot overflow.

Projections and steps work row by row: a point is a vector of shape (n,) or
a block of shape (T, n), one point per row, and every norm, sort and shift
runs along the last axis.  A row's result does not depend on the rows beside
it, so a block of T points gives, bit for bit, the T one-point results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInputError,
    InputError,
    PreconditionError,
)

__all__ = [
    "UNCONSTRAINED",
    "L2_BALL",
    "L1_BALL",
    "SIMPLEX",
    "FeasibleSet",
    "project",
    "mirror_step",
    "contains",
    "make_mirror_stepper",
    "row_dot",
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

    def max_distance(self, p) -> float:
        """An upper bound on ||y - p||_2 over the points y of the set; for a
        block of points p, one per row, the largest bound over the rows.

        Exact on l2 balls, radius + ||center - p||, and on the simplex, whose
        farthest point from q is the vertex e_i with i = argmin q, since
        ||e_i - q||^2 = ||q||^2 - 2 q_i + 1.  An l1 ball lies in the l2 ball
        of the same centre and radius and takes its bound.  inf on free space.
        """
        p = _check_vector(self, p)
        if self.kind == UNCONSTRAINED:
            return math.inf
        if self.kind == SIMPLEX:
            q = p.reshape(-1, self.dimension)
            d = -q
            d[np.arange(len(q)), np.argmin(q, axis=1)] += 1.0
            return float(np.max(np.linalg.norm(d, axis=1)))
        d = self.center - p
        return self.radius + float(np.max(np.linalg.norm(d, axis=None if d.ndim == 1 else 1)))


def _check_vector(set_: FeasibleSet, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != set_.dimension:
        raise InputError(
            f"vector has shape {x.shape}, expected ({set_.dimension},) or (T, {set_.dimension})"
        )
    return x


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> along the last axis, kept as a length-1 axis: shape (..., 1).

    Each row is one dot product, the one ``a @ b`` computes on a vector, so
    a row's value is the same alone or in a block.
    """
    return np.vecdot(a, b)[..., None]


def _simplex_project(v: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Euclidean projection of each row onto {x : x >= 0, sum x = radius}."""
    n = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - radius
    above = u * np.arange(1, n + 1) > css
    # rho: the last index where u_rho * (rho + 1) > css_rho
    rho = n - 1 - np.argmax(above[..., ::-1], axis=-1)[..., None]
    theta = np.take_along_axis(css, rho, axis=-1) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _l1_project(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of each row onto {x : ||x||_1 <= radius}."""
    a = np.abs(v)
    inside = a.sum(axis=-1, keepdims=True) <= radius
    if inside.all():
        return v
    return np.where(inside, v, np.sign(v) * _simplex_project(a, radius))


def _l2_project(v: np.ndarray, radius: float) -> np.ndarray:
    """Projection of each row onto {x : ||x||_2 <= radius}, shrinking v in place."""
    nrm = np.sqrt(row_dot(v, v))
    v *= radius / np.maximum(nrm, radius)  # exactly 1 inside the ball
    return v


# One Euclidean projection per set kind, onto the origin-centred set of the
# given radius.  Each takes a vector or block its caller owns and may
# overwrite it.
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
    """Euclidean projection of x (a vector or a block of rows) onto the set,
    as a new float array.

    Unconstrained sets return a copy of x.  A one-off call skips the
    centre test of _projector and shifts every ball by its centre.
    """
    x = _check_vector(set_, x)
    proj, center = _PROJECTIONS[set_.kind], set_.center
    if center is None:
        return proj(x.copy(), set_.radius)
    return proj(x - center, set_.radius) + center


def contains(set_: FeasibleSet, x, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff the Euclidean distance from x to the set is at most tol.

    For a block of rows, a boolean array with one entry per row.
    """
    x = _check_vector(set_, x)
    d = x - project(set_, x)
    inside = np.sqrt(row_dot(d, d))[..., 0] <= tol
    return bool(inside) if x.ndim == 1 else inside


def mirror_step(set_: FeasibleSet, x, g, gamma: float) -> np.ndarray:
    """One mirror-descent step from x along stochastic (sub)gradient g.

    Ball kinds and the unconstrained space use the Euclidean prox, i.e.
    project(set, x - gamma * g).  The simplex uses the entropic update
    x_i * exp(-gamma * g_i), renormalized to sum one.  Checks its inputs,
    then takes the step of make_mirror_stepper.  On a block of rows, gamma
    is a scalar or one step per row, shaped (T, 1).
    """
    x = _check_vector(set_, x)
    g = _check_vector(set_, g)
    if not np.all(np.asarray(gamma) > 0):
        raise InputError(f"step size must be positive, got {gamma}")
    if not np.all(contains(set_, x)):
        raise PreconditionError("mirror_step requires x inside the set")
    if set_.kind == SIMPLEX and np.any((x == 0.0) & (g != 0.0)):
        raise DegenerateInputError(
            "entropic step undefined: zero coordinate with nonzero gradient"
        )
    return make_mirror_stepper(set_)(x, g, gamma)


def _entropic_update(x: np.ndarray, g: np.ndarray, gamma) -> np.ndarray:
    # log-space with a row-wise max-shift so exp never overflows
    logw = np.where(x > 0.0, np.log(np.maximum(x, 1e-300)) - gamma * g, -np.inf)
    logw -= logw.max(axis=-1, keepdims=True)
    w = np.exp(logw)
    return w / w.sum(axis=-1, keepdims=True)


def make_mirror_stepper(set_: FeasibleSet):
    """Unchecked mirror step for solver hot loops.

    Returns f(x, g, gamma) -> next iterate, row by row on a (T, n) block
    (gamma a scalar or shaped (T, 1)) as on a vector.  Skips the membership
    recheck: callers must start from a feasible point, and every output is
    feasible by construction.  Public code should use mirror_step instead.
    """
    if set_.kind == SIMPLEX:
        return _entropic_update
    proj = _projector(set_)

    def step(x, g, gamma):
        return proj(x - gamma * g)

    return step
