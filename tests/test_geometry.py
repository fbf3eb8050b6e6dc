import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sastra.errors import (
    DegenerateInputError,
    InputError,
    PreconditionError,
)
from sastra.geometry import (
    FeasibleSet,
    contains,
    make_mirror_stepper,
    mirror_step,
    project,
    row_dot,
)


class TestProject:
    def test_l2_ball_radial_scaling(self):
        s = FeasibleSet.l2_ball(2, 5.0)
        np.testing.assert_allclose(project(s, [6.0, 8.0]), [3.0, 4.0], atol=1e-14)

    def test_simplex_symmetry(self):
        s = FeasibleSet.simplex(3)
        np.testing.assert_allclose(
            project(s, [0.5, 0.5, 0.5]), [1 / 3, 1 / 3, 1 / 3], atol=1e-14
        )

    def test_simplex_active_vertex(self):
        # brute force over active sets: minimizing ||x - (2,0)||^2 on the
        # segment (t, 1-t), t in [0,1], gives t = 1, the vertex (1, 0)
        s = FeasibleSet.simplex(2)
        np.testing.assert_allclose(project(s, [2.0, 0.0]), [1.0, 0.0], atol=1e-14)

    def test_unconstrained_identity(self):
        s = FeasibleSet.unconstrained(3)
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(project(s, x), x)

    def test_interior_point_unchanged(self):
        s = FeasibleSet.l1_ball(3, 2.0)
        x = np.array([0.3, -0.2, 0.1])
        np.testing.assert_array_equal(project(s, x), x)

    def test_l1_ball_matches_brute_force(self):
        rng = np.random.default_rng(0)
        s = FeasibleSet.l1_ball(2, 1.0)
        # dense grid over the l1 ball as an independent oracle
        ts = np.linspace(-1, 1, 2001)
        grid = np.array([[a, b] for a in ts for b in (1 - abs(a), abs(a) - 1)])
        inner = np.array([[a, b] for a in ts for b in np.linspace(-1 + abs(a), 1 - abs(a), 9)])
        grid = np.vstack([grid, inner])
        for _ in range(20):
            x = rng.normal(size=2) * 2.0
            p = project(s, x)
            best = grid[np.argmin(((grid - x) ** 2).sum(axis=1))]
            assert np.linalg.norm(x - p) <= np.linalg.norm(x - best) + 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            project(FeasibleSet.l2_ball(3, 1.0), [1.0, 2.0])


class TestMirrorStep:
    def test_entropic_hand_example(self):
        s = FeasibleSet.simplex(2)
        out = mirror_step(s, [0.5, 0.5], [0.0, math.log(3.0)], 1.0)
        np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-14)

    def test_zero_gradient_identity(self):
        for s in (
            FeasibleSet.unconstrained(3),
            FeasibleSet.l2_ball(3, 1.0),
            FeasibleSet.l1_ball(3, 1.0),
            FeasibleSet.simplex(3),
        ):
            x = project(s, np.array([0.4, 0.35, 0.25]))
            out = mirror_step(s, x, np.zeros(3), 0.7)
            np.testing.assert_allclose(out, x, atol=1e-15)

    def test_uniform_shift_invariance(self):
        s = FeasibleSet.simplex(4)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        for c in (-3.0, 0.5, 40.0):
            out = mirror_step(s, x, c * np.ones(4), 2.0)
            np.testing.assert_allclose(out, x, atol=1e-12)

    def test_ball_step_is_projection_bit_for_bit(self):
        rng = np.random.default_rng(1)
        for kind in ("l2_ball", "l1_ball"):
            s = FeasibleSet(kind, 4, 1.5)
            for _ in range(50):
                x = project(s, rng.normal(size=4))
                g = rng.normal(size=4)
                gamma = rng.uniform(0.01, 2.0)
                np.testing.assert_array_equal(
                    mirror_step(s, x, g, gamma), project(s, x - gamma * g)
                )

    def test_stepper_matches_mirror_step_bit_for_bit(self):
        rng = np.random.default_rng(3)
        center = np.array([0.7, -0.4, 0.0, 1.1])
        for s in (
            FeasibleSet.unconstrained(4),
            FeasibleSet.l2_ball(4, 1.5),
            FeasibleSet.l2_ball(4, 0.8, center=center),
            FeasibleSet.l1_ball(4, 1.5),
            FeasibleSet.l1_ball(4, 0.8, center=center),
            FeasibleSet.simplex(4),
        ):
            step = make_mirror_stepper(s)
            for _ in range(200):
                if s.kind == "simplex":
                    x = rng.dirichlet(np.ones(4))
                else:
                    x = project(s, rng.normal(size=4) * 2.0)
                g = rng.normal(size=4) * 3.0
                gamma = rng.uniform(0.01, 2.0)
                out = step(x, g, gamma)
                assert out.tobytes() == mirror_step(s, x, g, gamma).tobytes()
                assert contains(s, out)

    def test_outside_set_rejected(self):
        with pytest.raises(PreconditionError):
            mirror_step(FeasibleSet.l2_ball(2, 1.0), [3.0, 0.0], [1.0, 0.0], 0.1)

    def test_dead_simplex_coordinate(self):
        s = FeasibleSet.simplex(3)
        with pytest.raises(DegenerateInputError):
            mirror_step(s, [0.5, 0.5, 0.0], [0.0, 0.0, 1.0], 0.1)
        # zero coordinate with zero gradient there is fine and stays zero
        out = mirror_step(s, [0.5, 0.5, 0.0], [1.0, -1.0, 0.0], 0.1)
        assert out[2] == 0.0

    def test_overflow_safe(self):
        s = FeasibleSet.simplex(3)
        out = mirror_step(s, [0.2, 0.3, 0.5], [-2000.0, 0.0, 2000.0], 1.0)
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) <= 1e-12


class TestContains:
    def test_boundary(self):
        assert contains(FeasibleSet.l2_ball(2, 1.0), [1.0, 0.0], 0.0)

    def test_outside(self):
        assert not contains(FeasibleSet.l2_ball(2, 1.0), [1.1, 0.0], 0.05)

    def test_simplex_face(self):
        assert contains(FeasibleSet.simplex(3), [0.3, 0.7, 0.0], 0.0)


ALL_SETS = [
    FeasibleSet.l2_ball(3, 1.5),
    FeasibleSet.l1_ball(3, 2.0),
    FeasibleSet.simplex(3),
    FeasibleSet.l2_ball(3, 0.5, center=[1.0, -1.0, 0.0]),
]

coord = st.floats(-10.0, 10.0, allow_nan=False)
vec3 = st.tuples(coord, coord, coord).map(np.array)


@settings(max_examples=200, deadline=None)
@given(x=vec3, y=vec3, idx=st.integers(0, len(ALL_SETS) - 1))
def test_projection_nonexpansive(x, y, idx):
    s = ALL_SETS[idx]
    assert np.linalg.norm(project(s, x) - project(s, y)) <= np.linalg.norm(x - y) + 1e-9


@settings(max_examples=200, deadline=None)
@given(x=vec3, idx=st.integers(0, len(ALL_SETS) - 1))
def test_projection_idempotent(x, idx):
    s = ALL_SETS[idx]
    p = project(s, x)
    assert np.linalg.norm(project(s, p) - p) <= 1e-12
    assert contains(s, p, 1e-10)


@settings(max_examples=200, deadline=None)
@given(x=vec3, z=vec3, idx=st.integers(0, len(ALL_SETS) - 1))
def test_projection_optimality(x, z, idx):
    s = ALL_SETS[idx]
    z_in = project(s, z)  # an arbitrary feasible point
    assert np.linalg.norm(x - project(s, x)) <= np.linalg.norm(x - z_in) + 1e-9


def test_simplex_mirror_preserves_simplex():
    # moderate step * gradient products keep every coordinate positive, the
    # regime the entropic update is defined on
    rng = np.random.default_rng(7)
    s = FeasibleSet.simplex(6)
    x = np.full(6, 1.0 / 6.0)
    for _ in range(500):
        g = rng.normal(size=6) * rng.uniform(0.1, 3.0)
        x = mirror_step(s, x, g, rng.uniform(0.001, 1.0))
        assert np.all(x >= 0)
        assert abs(x.sum() - 1.0) <= 1e-12


def test_invalid_constructions():
    with pytest.raises(InputError):
        FeasibleSet.l2_ball(2, 0.0)
    with pytest.raises(InputError):
        FeasibleSet("cube", 2, 1.0)


class TestRowDot:
    @pytest.mark.parametrize("n", [1, 2, 10, 20, 21, 64])
    def test_rows_equal_vector_dot_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal((2, 7, 2 * n + 1))
        layouts = {
            "c": (a[:, :n].copy(), b[:, :n].copy()),
            "fortran": (np.asfortranarray(a[:, :n]), np.asfortranarray(b[:, :n])),
            "strided": (a[1::2, 1:2 * n + 1:2], b[1::2, :n]),
        }
        for name, (u, v) in layouts.items():
            out = row_dot(u, v)
            assert out.shape == (u.shape[0], 1), name
            expected = np.array([u[t] @ v[t] for t in range(u.shape[0])])
            assert out[:, 0].tobytes() == expected.tobytes(), name
        vector = row_dot(a[0, :n], b[0, :n])
        assert vector.shape == (1,)
        assert vector[0] == a[0, :n] @ b[0, :n]


class TestMaxDistance:
    """max_distance against brute force, on centred and off-centre sets."""

    CENTRES = {"centred": None, "off_centre": [1.0, -2.0, 0.5, 0.0]}
    POINTS = [np.zeros(4), np.array([0.3, 0.1, -1.2, 2.0]), np.array([1.0, -2.0, 0.5, 0.0])]

    @pytest.mark.parametrize("where", CENTRES)
    def test_l2_ball_is_attained(self, where):
        s = FeasibleSet.l2_ball(4, 1.5, center=self.CENTRES[where])
        for p in self.POINTS:
            d = s.center - p
            if not d.any():
                assert s.max_distance(p) == s.radius
                continue
            farthest = s.center + s.radius * d / np.linalg.norm(d)
            assert s.max_distance(p) == pytest.approx(np.linalg.norm(farthest - p), rel=1e-14)

    @pytest.mark.parametrize("where", CENTRES)
    def test_l1_ball_bounds_every_vertex(self, where):
        s = FeasibleSet.l1_ball(4, 1.5, center=self.CENTRES[where])
        vertices = s.center + s.radius * np.vstack([np.eye(4), -np.eye(4)])
        for p in self.POINTS:
            assert s.max_distance(p) >= np.max(np.linalg.norm(vertices - p, axis=1))

    def test_simplex_is_its_farthest_vertex(self):
        s = FeasibleSet.simplex(4)
        for p in self.POINTS + [np.full(4, 0.25)]:
            assert s.max_distance(p) == np.max(np.linalg.norm(np.eye(4) - p, axis=1))

    def test_simplex_bound_builds_no_identity(self):
        # a bound over the rows of np.eye(n) peaked at 96 MB here
        s, p = FeasibleSet.simplex(2000), np.full(2000, 1.0 / 2000)
        tracemalloc.start()
        try:
            s.max_distance(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_free_space_is_unbounded(self):
        assert FeasibleSet.unconstrained(4).max_distance(self.POINTS[1]) == math.inf

    @pytest.mark.parametrize("set_", ALL_SETS + [FeasibleSet.unconstrained(3)],
                             ids=lambda s: s.kind)
    def test_block_takes_the_largest_row(self, set_):
        block = np.array([[0.0, 0.0, 0.0], [2.0, -1.0, 0.5], [0.1, 0.2, 0.7]])
        assert set_.max_distance(block) == pytest.approx(
            max(set_.max_distance(p) for p in block), rel=1e-15)
