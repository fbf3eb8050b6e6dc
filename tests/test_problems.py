import functools
import math

import numpy as np
import pytest

from sastra.errors import InputError, PreconditionError
from sastra.geometry import FeasibleSet, project
from sastra.problems import (
    FiniteSumQuadratic,
    GaussianMean,
    Lasso,
    NormPower,
    RidgeRegression,
    SoftSVM,
    TRUNC3_VARIANCE,
    make_problem,
    uniform_values,
)
from sastra import problems


def unconstrained(n):
    return FeasibleSet.unconstrained(n)


@pytest.fixture(scope="module")
def gaussian1d():
    return GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))


class TestStreams:
    def test_same_seed_counter_same_sample(self, gaussian1d):
        a, _ = gaussian1d.stream(123).draw_sample()
        b, _ = gaussian1d.stream(123).draw_sample()
        np.testing.assert_array_equal(a, b)

    def test_counter_windows_are_position_independent(self, gaussian1d):
        # sample i is a pure function of (seed, i): drawing 10 at once must
        # reproduce drawing them one by one
        block, _ = gaussian1d.stream(9).draw_block(10)
        st = gaussian1d.stream(9)
        singles = []
        for _ in range(10):
            xi, st = st.draw_sample()
            singles.append(xi)
        np.testing.assert_array_equal(block, np.vstack(singles))
        assert st.counter == 10

    def test_substream_xor_derivation(self, gaussian1d):
        st = gaussian1d.stream(5)
        child = st.substream(12)
        assert child.base_seed == 5 ^ 12
        assert child.counter == 0

    def test_gaussian_mean_moment(self, gaussian1d):
        rows, _ = gaussian1d.stream(7).draw_block(100_000)
        assert abs(rows.mean()) <= 0.02

    def test_norm_power_covariance(self):
        p = NormPower(s=2.0, sigma=1.0, dim=2)
        rows, _ = p.stream(3).draw_block(100_000)
        cov = rows.T @ rows / rows.shape[0]
        np.testing.assert_allclose(cov, np.eye(2), atol=0.02)

    def test_uniform_values_deterministic(self):
        a = uniform_values(11, 0, 64)
        b = uniform_values(11, 32, 32)
        np.testing.assert_array_equal(a[32:], b)


class TestLossOracles:
    def test_gaussian_mean_values(self, gaussian1d):
        assert gaussian1d.loss_value([1.0], [3.0]) == 4.0
        np.testing.assert_allclose(
            gaussian1d.loss_subgradient([1.0], [3.0]), [-4.0]
        )

    def test_soft_svm_inactive_hinge(self):
        p = SoftSVM(concept=[2.0, 0.0])
        # y <x, a> = 2 > 1: zero loss, zero subgradient
        xi = np.array([1.0, 0.0, 1.0])  # a = e1, y = +1
        assert p.loss_value([2.0 / math.sqrt(8), 2.0 / math.sqrt(8)], xi) >= 0
        x = np.array([0.9, 0.0])
        xi2 = np.array([1.0, 0.0, 1.0])
        assert p.loss_value(x, xi2) == pytest.approx(0.1)
        x_wide = np.array([0.5, 0.5]) / np.linalg.norm([0.5, 0.5])
        m = x_wide @ xi2[:2] * xi2[2]
        if m >= 1.0:
            assert p.loss_value(x_wide, xi2) == 0.0
        np.testing.assert_array_equal(
            p.loss_subgradient([0.9, 0.0], np.array([1.0, 0.0, 1.0])),
            [-1.0, -0.0],
        )
        # margin at the kink returns the zero selection
        np.testing.assert_array_equal(
            p.loss_subgradient([1.0, 0.0], np.array([1.0, 0.0, 1.0])), [0.0, 0.0]
        )

    def test_norm_power_hand_values(self):
        p = NormPower(s=2.0, sigma=1.0, dim=2)
        assert p.loss_value([0.5, 0.0], [1.0, 0.0]) == pytest.approx(-0.75)
        np.testing.assert_allclose(
            p.loss_subgradient([0.5, 0.0], [1.0, 0.0]), [-1.0, 0.0]
        )

    def test_norm_power_origin_subgradient_selector(self):
        p = NormPower(s=1.5, sigma=1.0, dim=2)
        xi = np.array([0.4, -0.2])
        np.testing.assert_allclose(
            p.loss_subgradient([0.0, 0.0], xi), -1.5 * xi
        )

    def test_finite_sum_loss(self):
        p = FiniteSumQuadratic(centers=[[1.0, 0.0]], scales=[2.0, 1.0])
        assert p.loss_value([0.0, 1.0], [1.0, 0.0]) == pytest.approx(0.5 * (2 + 1))

    def test_outside_set_rejected(self):
        p = NormPower(s=2.0, sigma=1.0, dim=2)
        with pytest.raises(PreconditionError):
            p.loss_value([2.0, 0.0], [0.0, 0.0])


class TestPopulationGap:
    def test_zero_at_optimum(self, gaussian1d):
        assert gaussian1d.population_gap([0.0]) == 0.0

    def test_gaussian_offset(self):
        p = GaussianMean(mean=[2.0], sigma=1.0, feasible_set=unconstrained(1))
        assert p.population_gap([3.0]) == pytest.approx(1.0)

    def test_norm_power_closed_form(self):
        p = NormPower(s=2.0, sigma=1.0, dim=3)
        x = np.array([0.5, 0.0, 0.0])
        assert p.population_gap(x) == pytest.approx(0.25)

    def test_growth_condition_direction(self):
        # gap >= mu_{p,s} * dist^s; equality for this family
        rng = np.random.default_rng(5)
        for s in (1.0, 2.0, 3.0):
            p = NormPower(s=s, sigma=1.0, dim=4)
            c = p.constants()
            for _ in range(250):
                x = rng.normal(size=4)
                x = x / np.linalg.norm(x) * rng.uniform(0, 1)
                assert p.population_gap(x) >= c.mu_ps * np.linalg.norm(x) ** s - 1e-12


class TestConstants:
    def test_gaussian_strongly_convex(self, gaussian1d):
        assert gaussian1d.constants().mu_p == 2.0

    def test_norm_power_constants(self):
        for s in (1.0, 2.0, 3.0):
            c = NormPower(s=s, sigma=0.7, dim=6).constants()
            assert c.lambda_sq == pytest.approx(s * s * 0.49)
            assert c.mu_ps == 1.0
            assert c.s == s
            # R = 1 sets keep the unit-ball constants
            for set_ in (FeasibleSet.l2_ball(6, 1.0), FeasibleSet.l1_ball(6, 1.0)):
                c = NormPower(s=s, sigma=0.7, dim=6, feasible_set=set_).constants()
                assert c.M_p == s * (1.0 + 0.7 * math.sqrt(6))
                assert c.L == {1.0: math.inf, 2.0: 2.0, 3.0: 6.0}[s]
        # s = 1 ignores the radius; s > 1 has no finite M_p on free space
        big = FeasibleSet.l2_ball(5, 4.0)
        assert NormPower(s=1.0, sigma=0.5, dim=5, feasible_set=big).constants().M_p == (
            1.0 + 0.5 * math.sqrt(5))
        free = FeasibleSet.unconstrained(5)
        assert NormPower(s=2.0, sigma=0.5, dim=5, feasible_set=free).constants().M_p == math.inf

    def test_norm_power_constants_hold_on_every_set(self):
        # at xi = 0 the gradient s ||x||^{s-2} x has norm s ||x||^{s-1}, which
        # the declared M_p = s (R^{s-1} + sigma sqrt n) must cover with R the
        # largest norm over the set; for s > 2 the gradient is L-Lipschitz.
        # The simplex misses the optimum at the origin, so it cannot host the
        # family.
        rng = np.random.default_rng(11)
        n = 4
        center = np.array([0.9, -0.6, 0.3, 0.0])
        for set_ in (
            FeasibleSet.unconstrained(n),
            FeasibleSet.l2_ball(n, 1.0),
            FeasibleSet.l2_ball(n, 2.5),
            FeasibleSet.l2_ball(n, 0.4),
            FeasibleSet.l2_ball(n, 1.7, center=center),
            FeasibleSet.l1_ball(n, 3.0),
            FeasibleSet.l1_ball(n, 2.5, center=center),
        ):
            xs = [project(set_, rng.normal(size=n) * rng.uniform(0.1, 6.0))
                  for _ in range(300)]
            if set_.kind == "l2_ball":  # the point farthest from the origin
                far = center if set_.center.any() else np.ones(n)
                xs.append(set_.center + set_.radius * far / np.linalg.norm(far))
            for s in (1.0, 1.5, 2.0, 3.0, 4.5):
                p = NormPower(s=s, sigma=0.7, dim=n, feasible_set=set_)
                c = p.constants()
                bound = c.M_p - s * 0.7 * math.sqrt(n)
                grads = [p.loss_subgradient(x, np.zeros(n)) for x in xs]
                norms = [np.linalg.norm(g) for g in grads]
                assert max(norms) <= bound * (1 + 1e-12)
                if set_.kind == "l2_ball":  # the bound is attained there
                    assert norms[-1] == pytest.approx(bound, rel=1e-12)
                if s > 2.0:
                    for i in range(len(xs) - 1):
                        assert (np.linalg.norm(grads[i] - grads[i + 1])
                                <= c.L * np.linalg.norm(xs[i] - xs[i + 1]) * (1 + 1e-12))

    @pytest.mark.parametrize("family", ["gaussian_mean", "ridge", "lasso", "finite_sum"])
    def test_family_constants_hold_on_every_set(self, family):
        # the declared M_p bounds ||grad f(x, xi)|| at random and extreme
        # feasible x for samples of the problem's own stream plus one sample
        # at the edge of the documented range that maximizes the gradient at
        # x (gaussian_mean: ||xi - mean|| = 3 sigma sqrt n away from x;
        # ridge: a of norm sqrt n along x - x*, noise -3 sigma), and L bounds
        # the gradient differences; off-centre balls included
        rng = np.random.default_rng(23)
        n, sigma = 4, 0.7
        center = np.array([0.9, -0.6, 0.3, 0.0])
        for set_ in (
            FeasibleSet.unconstrained(n),
            FeasibleSet.l2_ball(n, 1.5),
            FeasibleSet.l2_ball(n, 1.7, center=center),
            FeasibleSet.l1_ball(n, 2.0),
            FeasibleSet.l1_ball(n, 2.5, center=center),
            FeasibleSet.simplex(n),
        ):
            if set_.kind == "simplex":
                optimum = rng.dirichlet(np.ones(n))
                xs = [project(set_, rng.normal(size=n)) for _ in range(60)] + list(np.eye(n))
            elif set_.kind == "unconstrained":
                optimum = rng.normal(size=n)
                xs = [rng.normal(size=n) * rng.uniform(0.1, 6.0) for _ in range(60)]
            else:
                optimum = set_.center + 0.4 * set_.radius * rng.dirichlet(np.ones(n))
                xs = [_random_feasible(set_, rng, scale=rng.uniform(0.1, 2.0))
                      for _ in range(60)]
                units = ([u / np.linalg.norm(u) for u in rng.normal(size=(20, n))]
                         if set_.kind == "l2_ball" else list(np.eye(n)) + list(-np.eye(n)))
                xs += [set_.center + set_.radius * u for u in units]
            if family == "gaussian_mean":
                p = GaussianMean(mean=optimum, sigma=sigma, feasible_set=set_)
            elif family == "finite_sum":
                p = FiniteSumQuadratic.from_seed(n, 6, 1.3, seed=5, scales=[0.5, 1.0, 2.0, 3.0],
                                                 set_=set_, mean=optimum)
            else:
                cls = RidgeRegression if family == "ridge" else Lasso
                p = cls(coefficients=optimum, sigma=sigma, feasible_set=set_)
            c = p.constants()
            assert math.isinf(c.M_p) == (set_.kind == "unconstrained")
            rows, _ = p.stream(3).draw_block(20)
            for x, y in zip(xs, xs[1:] + xs[:1]):
                samples = list(rows)
                away = (x - optimum) / max(np.linalg.norm(x - optimum), 1e-300)
                if family == "gaussian_mean":
                    samples.append(optimum - 3.0 * sigma * math.sqrt(n) * away)
                elif family != "finite_sum":
                    a = math.sqrt(n) * away
                    samples.append(np.append(a, a @ optimum - 3.0 * sigma))
                for xi in samples:
                    gx, gy = p.loss_subgradient(x, xi), p.loss_subgradient(y, xi)
                    assert np.linalg.norm(gx) <= c.M_p * (1 + 1e-12)
                    assert np.linalg.norm(gx - gy) <= c.L * np.linalg.norm(x - y) * (1 + 1e-12)

    def test_interpolating_sum_sigma_star(self):
        p = FiniteSumQuadratic.interpolating([1.0, -2.0], n_terms=5)
        assert p.constants().sigma_star_sq == 0.0

    def test_ridge_sigma_star(self):
        p = RidgeRegression(
            coefficients=[1.0, 0.0], sigma=0.5, feasible_set=unconstrained(2)
        )
        c = p.constants()
        assert c.sigma_star_sq == pytest.approx(4 * 2 * TRUNC3_VARIANCE * 0.25)
        assert c.L == 4.0

    def test_lipschitz_consistency_bounded_families(self):
        # empirical |f(y,xi)-f(x,xi)| / ||y-x|| never exceeds declared M_p
        rng = np.random.default_rng(11)
        ridge = RidgeRegression(
            coefficients=[0.5, -0.5], sigma=0.3,
            feasible_set=FeasibleSet.l2_ball(2, 1.0),
        )
        svm = SoftSVM(concept=[2.0, 1.0])
        for p in (ridge, svm):
            m_declared = p.constants().M_p
            rows, _ = p.stream(3).draw_block(200)
            worst = 0.0
            for xi in rows[:50]:
                x = project_ball(rng.normal(size=2))
                y = project_ball(rng.normal(size=2))
                num = abs(p.loss_value(x, xi) - p.loss_value(y, xi))
                den = np.linalg.norm(x - y)
                if den > 1e-9:
                    worst = max(worst, num / den)
            assert worst <= m_declared * (1 + 1e-6)


def project_ball(v, r=1.0):
    n = np.linalg.norm(v)
    return v if n <= r else v * (r / n)


class TestGradientChecks:
    @pytest.mark.parametrize(
        "problem",
        [
            GaussianMean(mean=[0.3, -0.2], sigma=0.8, feasible_set=unconstrained(2)),
            RidgeRegression(coefficients=[1.0, -1.0], sigma=0.5,
                            feasible_set=unconstrained(2)),
            NormPower(s=3.0, sigma=1.0, dim=2),
            FiniteSumQuadratic.from_seed(2, 6, 1.0, seed=4, scales=[1.0, 3.0]),
        ],
        ids=["gaussian", "ridge", "norm_power", "finite_sum"],
    )
    def test_subgradient_matches_finite_differences(self, problem):
        rng = np.random.default_rng(17)
        rows, _ = problem.stream(10).draw_block(20)
        h = 1e-6
        for xi in rows:
            x = rng.normal(size=2) * 0.3
            g = problem.loss_subgradient(x, xi)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                num = (problem.loss_value(x + e, xi) - problem.loss_value(x - e, xi)) / (2 * h)
                assert num == pytest.approx(g[i], rel=1e-5, abs=1e-6)

    def test_unbiasedness_monte_carlo(self):
        # average subgradient over many samples vs analytic population gradient
        p = GaussianMean(mean=[0.5], sigma=1.0, feasible_set=unconstrained(1))
        x = np.array([1.2])
        rows, _ = p.stream(21).draw_block(100_000)
        grads = 2.0 * (x - rows)
        se = grads.std() / math.sqrt(grads.size)
        analytic = 2.0 * (x[0] - 0.5)
        assert abs(grads.mean() - analytic) <= 3 * se

    def test_batch_subgrad_consistency(self):
        p = RidgeRegression(coefficients=[1.0, 2.0], sigma=0.5,
                            feasible_set=unconstrained(2))
        rows, _ = p.stream(4).draw_block(32)
        x = np.array([0.2, -0.1])
        mean = np.mean([p.loss_subgradient(x, xi) for xi in rows], axis=0)
        np.testing.assert_allclose(p.batch_subgrad_mean(x, rows), mean, atol=1e-12)


class TestConstruction:
    def test_optimum_must_be_feasible(self):
        with pytest.raises(InputError):
            GaussianMean(mean=[5.0], sigma=1.0,
                         feasible_set=FeasibleSet.l2_ball(1, 1.0))

    def test_make_problem_unknown_family(self):
        with pytest.raises(InputError):
            make_problem("polynomial_regression", dimension=2)

    def test_lasso_family_tag(self):
        p = Lasso(coefficients=[1.0, 0.0], sigma=0.1, feasible_set=unconstrained(2))
        assert p.family == "lasso"

    def test_from_seed_centers_hit_requested_mean(self):
        p = FiniteSumQuadratic.from_seed(3, 10, 2.0, seed=9, mean=[1.0, 2.0, 3.0])
        np.testing.assert_allclose(p.x_star, [1.0, 2.0, 3.0], atol=1e-12)


# a centred unit ball and an off-centre ball of radius 1.6 per dimension
SVM_CASES = [(n, ball) for n in (1, 2, 3, 10) for ball in ("centred", "off_centre")]


@functools.lru_cache(maxsize=None)
def _svm_problem(n, ball):
    rng = np.random.default_rng(100 + n)
    concept = rng.normal(size=n)
    concept *= 1.7 / np.linalg.norm(concept)
    if ball == "centred":
        return SoftSVM(concept=concept)
    set_ = FeasibleSet.l2_ball(n, 1.6, center=0.5 * rng.normal(size=n))
    return SoftSVM(concept=concept, feasible_set=set_)


def _random_feasible(set_, rng, scale=1.0):
    return project(set_, set_.center + scale * set_.radius * rng.normal(size=set_.dimension))


class TestSoftSvmReference:
    def test_truth_is_fixed_and_gap_nonnegative(self):
        p = SoftSVM(concept=[1.5, 0.0, 0.0])
        x_star = p.x_star
        assert np.linalg.norm(x_star) <= 1.0 + 1e-9
        assert p.population_gap(x_star) == 0.0
        assert p.population_gap([0.0, 0.0, 0.0]) > 0.0
        # fixed at construction: every access returns the identical array
        assert p.x_star is x_star

    def test_default_ball_optimum_on_concept_ray(self):
        # the acceptance concept: the minimizer is the boundary point c/||c||
        concept = 2.0 * np.ones(10) / math.sqrt(10.0)
        p = SoftSVM(concept=concept)
        np.testing.assert_allclose(p.x_star, concept / 2.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n,ball", SVM_CASES)
    def test_monte_carlo_agreement(self, n, ball):
        # the exact objective agrees with a sample mean over the problem's own
        # Philox stream, at x* and at random feasible points
        p, rng = _svm_problem(n, ball), np.random.default_rng(n)
        rows, _ = p.stream(7).draw_block(200_000)
        points = [p.x_star] + [_random_feasible(p.feasible_set, rng) for _ in range(3)]
        for x in points:
            losses = p.batch_losses(x, rows)
            se = losses.std() / math.sqrt(losses.size)
            z = (losses.mean() - p.population_value(x)) / se
            assert abs(z) <= 4.0, (x, z)

    @pytest.mark.parametrize("n,ball", SVM_CASES)
    def test_halving_nodes_moves_value_below_1e12(self, n, ball):
        p, rng = _svm_problem(n, ball), np.random.default_rng(n)
        c = p.concept / np.linalg.norm(p.concept)
        for _ in range(5):
            # scale 1.2 puts some points on the boundary, where ||x|| > 1 off centre
            x = _random_feasible(p.feasible_set, rng, scale=1.2)
            alpha = float(c @ x)
            beta = float(np.linalg.norm(x - alpha * c))
            kappa = float(np.linalg.norm(p.concept))
            full = problems._svm_objective(alpha, beta, kappa, n)
            half = problems._svm_objective(alpha, beta, kappa, n,
                                           nodes=problems._SVM_NODES // 2)
            assert abs(full - half) < 1e-12
            assert full == pytest.approx(p.population_value(x), abs=1e-15)

    @pytest.mark.parametrize("n,ball", SVM_CASES)
    def test_optimum_minimizes_population_value(self, n, ball):
        p, rng = _svm_problem(n, ball), np.random.default_rng(n)
        assert p.population_gap(p.x_star) == 0.0
        f_star = p.population_value(p.x_star)
        for _ in range(100):
            y = _random_feasible(p.feasible_set, rng, scale=rng.uniform(0.0, 1.5))
            assert f_star <= p.population_value(y) + 1e-12
