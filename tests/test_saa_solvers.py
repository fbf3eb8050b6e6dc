import math

import numpy as np
import pytest

from sastra.errors import (
    InputError,
    NotApplicableError,
    UnsupportedCombinationError,
)
from sastra.geometry import FeasibleSet, contains, project
from sastra.problems import (
    FiniteSumQuadratic,
    GaussianMean,
    NormPower,
    PrefixStore,
    RidgeRegression,
    SoftSVM,
)
from sastra.saa_solvers import (
    EmpiricalObjective,
    HalfSqL2,
    VRState,
    build_empirical,
    composite_prox_step,
    exact_erm,
    norm_power_erm_closed_form,
    regularized_pipeline,
    solve_erm,
    tikhonov_parameters,
    vr_gradient,
    vr_solve,
)
from reference import hinge_erm_value


def unconstrained(n):
    return FeasibleSet.unconstrained(n)


class TestBuildEmpirical:
    def test_single_sample_objective(self):
        p = GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))
        emp, _ = build_empirical(p, 1, p.stream(4), HalfSqL2(2.0))
        xi = emp.samples[0]
        x = np.array([0.7])
        assert emp.value(x) == pytest.approx(p.loss_value(x, xi) + 1.0 * 0.49)

    def test_same_seed_identical(self):
        p = NormPower(s=2.0, sigma=1.0, dim=3)
        a, _ = build_empirical(p, 16, p.stream(9))
        b, _ = build_empirical(p, 16, p.stream(9))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_prefix_store_changes_neither_samples_nor_stream(self):
        # the returned stream is at counter n with or without the store, so
        # vr_solve, which keys its term indices by that stream, is unchanged
        p = FiniteSumQuadratic.from_seed(3, 12, 1.0, seed=5, scales=[1.0, 2.0, 4.0])
        store = PrefixStore(p, 2)
        for n in (30, 10, 45, 45, 3):
            for seed in (41, 42):
                emp, stream = build_empirical(p, n, p.stream(seed), prefixes=store)
                fresh, fresh_stream = build_empirical(p, n, p.stream(seed))
                assert emp.samples.tobytes() == fresh.samples.tobytes()
                assert stream == fresh_stream and stream.counter == n
                got = vr_solve(emp, 1e-10, 50, stream)
                want = vr_solve(fresh, 1e-10, 50, fresh_stream)
                assert got.point.tobytes() == want.point.tobytes()

    def test_minimizer_is_sample_mean(self):
        p = GaussianMean(mean=[0.2], sigma=1.0, feasible_set=unconstrained(1))
        emp, _ = build_empirical(p, 50, p.stream(2))
        res = solve_erm(emp, 1e-14, budget=5000)
        assert res.point[0] == pytest.approx(emp.samples.mean(), abs=1e-8)

    def test_samples_frozen(self):
        p = GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))
        emp, _ = build_empirical(p, 4, p.stream(1))
        with pytest.raises(ValueError):
            emp.samples[0, 0] = 99.0

    def test_rows_only_copied_when_something_could_write_them(self):
        p = GaussianMean(mean=[0.0, 0.0], sigma=1.0, feasible_set=unconstrained(2))
        store = PrefixStore(p, 1)
        build_empirical(p, 8, p.stream(3), prefixes=store)
        served, _ = store.draw(p.stream(3), 5)  # a read-only view of read-only rows
        assert EmpiricalObjective(p, served).samples is served
        writable = np.ones((3, 2))
        view = writable[:2]
        view.setflags(write=False)  # read-only, but its base is not
        for given in (writable, view):
            emp = EmpiricalObjective(p, given)
            writable[0, 0] = 7.0
            assert emp.samples[0, 0] != 7.0 and not emp.samples.flags.writeable
            writable[0, 0] = 1.0


class TestEmpiricalValueGrad:
    def test_gradient_zero_at_mean(self):
        p = GaussianMean(mean=[0.1, -0.4], sigma=1.0, feasible_set=unconstrained(2))
        emp, _ = build_empirical(p, 32, p.stream(7))
        g = emp.gradient(emp.samples.mean(axis=0))
        assert np.max(np.abs(g)) <= 1e-12

    def test_gradient_zero_at_shrunk_mean(self):
        # with (mu/2) ||x - c||^2 the minimizer moves to (2 xi_bar + mu c) / (2 + mu)
        p = GaussianMean(mean=[0.1, -0.4], sigma=1.0, feasible_set=unconstrained(2))
        emp, _ = build_empirical(p, 32, p.stream(7), HalfSqL2(0.6, [1.0, 2.0]))
        x = (2.0 * emp.samples.mean(axis=0) + 0.6 * np.array([1.0, 2.0])) / 2.6
        assert np.max(np.abs(emp.gradient(x))) <= 1e-12

    def test_identical_samples_equal_single_oracle(self):
        p = NormPower(s=3.0, sigma=1.0, dim=2)
        row = np.array([0.3, -0.6])
        emp = EmpiricalObjective(p, np.tile(row, (5, 1)))
        x = np.array([0.2, 0.1])
        v, g = emp.value(x), emp.gradient(x)
        assert v == pytest.approx(p.loss_value(x, row))
        np.testing.assert_allclose(g, p.loss_subgradient(x, row), atol=1e-14)

    def test_brute_force_sum(self):
        p = RidgeRegression(coefficients=[1.0, -1.0], sigma=0.5,
                            feasible_set=unconstrained(2))
        emp, _ = build_empirical(p, 3, p.stream(5), HalfSqL2(0.7))
        x = np.array([0.4, 0.2])
        v_ref = np.mean([p.loss_value(x, xi) for xi in emp.samples]) + 0.35 * 0.2
        g_ref = np.mean([p.loss_subgradient(x, xi) for xi in emp.samples], axis=0) \
            + 0.7 * x
        v, g = emp.value(x), emp.gradient(x)
        assert v == pytest.approx(v_ref, abs=1e-12)
        np.testing.assert_allclose(g, g_ref, atol=1e-12)


class TestSolveErm:
    def test_vacuous_target(self):
        p = GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))
        emp, _ = build_empirical(p, 8, p.stream(3))
        res = solve_erm(emp, math.inf, x0=[5.0])
        assert res.certificate == "vacuous"
        assert res.point[0] == 5.0
        assert res.iterations == 0

    def test_norm_power_matches_oracle(self):
        for seed, s in [(1, 2.0), (2, 3.0), (3, 1.5)]:
            p = NormPower(s=s, sigma=1.0, dim=3)
            emp, _ = build_empirical(p, 10, p.stream(seed))
            cf = norm_power_erm_closed_form(emp)
            res = solve_erm(emp, 1e-13, budget=50_000)
            assert res.certified
            assert np.linalg.norm(res.point - cf) <= 1e-6

    @pytest.mark.parametrize("s", [1.5, 3.0])
    def test_norm_power_without_closed_form_reaches_minimizer(self, s):
        # on an l1 ball holding the free minimizer, solve_erm has no oracle
        # but must still land on the free-space closed form
        ball = NormPower(s=s, sigma=0.5, dim=5, feasible_set=FeasibleSet.l1_ball(5, 1.0))
        free = NormPower(s=s, sigma=0.5, dim=5, feasible_set=unconstrained(5))
        emp, _ = build_empirical(ball, 20, ball.stream(4))
        x_free = norm_power_erm_closed_form(build_empirical(free, 20, free.stream(4))[0])
        assert np.abs(x_free).sum() < 1.0
        res = solve_erm(emp, 1e-10)
        assert res.certified
        assert np.linalg.norm(res.point - x_free) <= 1e-6

    def test_strongly_convex_certificate(self):
        p = GaussianMean(mean=[0.0, 0.0], sigma=1.0,
                         feasible_set=FeasibleSet.l2_ball(2, 2.0))
        emp, _ = build_empirical(p, 20, p.stream(11), HalfSqL2(0.5))
        res = solve_erm(emp, 1e-10, budget=10_000)
        assert res.certified
        assert res.certificate == "strong_convexity"

    @pytest.mark.parametrize("s", [1.5, 1.25])
    def test_norm_power_under_tikhonov_takes_the_prox_loop(self, s):
        # ||x||^s has a continuous gradient for s > 1, so the strongly convex
        # regularized objective is certified; the subgradient loop stopped
        # uncertified after 1,000 (s = 1.5) and 5,000 (s = 1.25) iterations
        p = NormPower(s=s, sigma=1.0, dim=5, feasible_set=FeasibleSet.l2_ball(5, 1.0))
        res, _ = regularized_pipeline(p, 0.1, 200, p.stream(3))
        assert res.certified and res.certificate == "strong_convexity"
        assert res.iterations == 10

    def test_uncertified_on_tiny_budget(self):
        p = GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))
        emp, _ = build_empirical(p, 50, p.stream(2))
        res = solve_erm(emp, 1e-14, budget=1, x0=[10.0])
        assert not res.certified
        assert res.certificate == "budget_exhausted"

    def test_hinge_plateau_path(self):
        p = SoftSVM(concept=[1.5, 0.0])
        emp, _ = build_empirical(p, 40, p.stream(13))
        res = solve_erm(emp, 1e-4, budget=4000)
        assert not res.certified
        assert res.certificate in ("subgradient_plateau", "budget_exhausted")
        # best-effort point must at least improve on the start
        assert res.value <= emp.value(p.default_x0()) + 1e-12

    @pytest.mark.parametrize("delta, seeds", [(1e-4, range(13, 17)), (1e-6, [14])])
    def test_certified_means_within_delta(self, delta, seeds):
        # a certificate is a claim about the value: certified => f_bar(x) <= f_bar* + delta
        p = SoftSVM(concept=[1.5, 0.0])
        for seed in seeds:
            emp, _ = build_empirical(p, 40, p.stream(seed))
            res = solve_erm(emp, delta)
            if res.certified:
                assert res.value <= hinge_erm_value(emp) + delta, seed


def assert_kkt(emp, x, tol=1e-9):
    """First-order optimality: zero gradient off the boundary; on an l2
    sphere the gradient points inward, along -(x - c)."""
    set_ = emp.problem.feasible_set
    g = emp.gradient(x)
    scale = max(1.0, float(np.abs(emp.samples).max()))
    if set_.kind == "l2_ball":
        d = x - set_.center
        if np.linalg.norm(d) >= set_.radius * (1.0 - 1e-9):
            assert abs(np.linalg.norm(d) - set_.radius) <= 1e-12 * set_.radius
            inward = np.linalg.norm(g) / np.linalg.norm(d) * d
            assert np.linalg.norm(g + inward) <= tol * scale
            return
    assert np.linalg.norm(g) <= tol * scale


def assert_beats_iterative(emp, res, budget=200_000):
    it = solve_erm(emp, 1e-14, budget=budget)
    assert res.value <= it.value + 1e-12


RIDGE_COEF = [0.5, -0.4, 0.3, 0.2, -0.6]
OFF_CENTRE_L2 = FeasibleSet.l2_ball(5, 1.0, center=[0.1, -0.1, 0.2, 0.0, -0.3])


class TestExactErm:
    def test_certificate(self):
        p = GaussianMean(mean=[0.3], sigma=1.0, feasible_set=unconstrained(1))
        emp, _ = build_empirical(p, 20, p.stream(1))
        res = exact_erm(emp)
        assert (res.certified, res.certificate, res.iterations) == (True, "exact", 0)
        assert res.value == emp.value(res.point)

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 40])
    def test_ridge_free_space(self, n):
        p = RidgeRegression(coefficients=RIDGE_COEF, sigma=1.0, feasible_set=unconstrained(5))
        emp, _ = build_empirical(p, n, p.stream(3))
        x0 = np.array([1.0, 2.0, -1.0, 0.5, 0.0])
        res = exact_erm(emp, x0)
        assert_kkt(emp, res.point)
        assert_beats_iterative(emp, res)
        # the minimizer nearest x0 (the only one once N >= n)
        a, y = emp.samples[:, :-1], emp.samples[:, -1]
        want = x0 + np.linalg.pinv(a) @ (y - a @ x0)
        np.testing.assert_allclose(res.point, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8, 400])
    @pytest.mark.parametrize("regularized", [False, True])
    def test_ridge_l2_ball(self, n, regularized):
        p = RidgeRegression(coefficients=RIDGE_COEF, sigma=2.0, feasible_set=OFF_CENTRE_L2)
        composite = HalfSqL2(0.3, OFF_CENTRE_L2.center) if regularized else None
        for seed in range(1, 6):
            emp, _ = build_empirical(p, n, p.stream(seed), composite)
            res = exact_erm(emp)
            assert_kkt(emp, res.point)
            assert_beats_iterative(emp, res)

    def test_ridge_l2_ball_hits_both_branches(self):
        p = RidgeRegression(coefficients=RIDGE_COEF, sigma=2.0, feasible_set=OFF_CENTRE_L2)
        dist = []
        for n in (2, 400):
            emp, _ = build_empirical(p, n, p.stream(1))
            dist.append(np.linalg.norm(exact_erm(emp).point - OFF_CENTRE_L2.center))
        assert dist[0] == pytest.approx(1.0, abs=1e-12) and dist[1] < 0.99

    @pytest.mark.parametrize("set_", [
        unconstrained(3),
        FeasibleSet.l2_ball(3, 0.5, center=[1.0, -0.5, 0.2]),
        FeasibleSet.l1_ball(3, 0.6, center=[0.2, 0.0, 0.1]),
        FeasibleSet.simplex(3),
    ], ids=["free", "l2_off_centre", "l1", "simplex"])
    @pytest.mark.parametrize("regularized", [False, True])
    def test_gaussian_mean(self, set_, regularized):
        mean = [0.2, 0.3, 0.5] if set_.kind == "simplex" else \
            ([1.1, -0.4, 0.3] if set_.kind == "l2_ball" else [0.1, 0.1, 0.1])
        p = GaussianMean(mean=mean, sigma=1.0, feasible_set=set_)
        composite = HalfSqL2(0.7, set_.center) if regularized else None
        for seed in range(1, 4):
            emp, _ = build_empirical(p, 10, p.stream(seed), composite)
            res = exact_erm(emp)
            xi_bar = emp.samples.mean(axis=0)
            if not regularized:
                want = project(set_, xi_bar) if set_.is_bounded else xi_bar
                np.testing.assert_array_equal(res.point, want)
            if set_.kind in ("unconstrained", "l2_ball"):
                assert_kkt(emp, res.point)
            assert_beats_iterative(emp, res)

    @pytest.mark.parametrize("set_", [unconstrained(3), FeasibleSet.l2_ball(3, 0.3)],
                             ids=["free", "l2"])
    def test_finite_sum_quadratic(self, set_):
        scales = [1.0, 2.0, 4.0] if not set_.is_bounded else None
        p = FiniteSumQuadratic.from_seed(3, 20, 1.0, seed=4, scales=scales, set_=set_)
        emp, _ = build_empirical(p, 15, p.stream(2))
        res = exact_erm(emp)
        assert_kkt(emp, res.point)
        assert_beats_iterative(emp, res)

    @pytest.mark.parametrize("r", [0.5, 2.5])
    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("k", [0.5, 2.0])
    def test_norm_power(self, r, s, k):
        # xi_bar of norm k r^(s-1): the stationary point is inside iff k <= 1
        p = NormPower(s=s, sigma=1.0, dim=3, feasible_set=FeasibleSet.l2_ball(3, r))
        direction = np.array([0.6, -0.8, 0.0])
        xi_bar = k * r ** (s - 1.0) * direction
        emp = EmpiricalObjective(p, xi_bar + np.array([[0.1, 0.2, -0.3], [-0.1, -0.2, 0.3]]))
        res = exact_erm(emp)
        x = res.point
        if k > 1.0:
            np.testing.assert_allclose(x, r * direction, atol=1e-14)
        if s == 1.0 and k <= 1.0:
            # nonsmooth at the minimizer 0: 0 lies in B(0, 1) - xi_bar
            assert not x.any() and np.linalg.norm(emp.samples.mean(axis=0)) <= 1.0
        else:
            assert_kkt(emp, x)
        assert_beats_iterative(emp, res, budget=60_000)

    def test_no_closed_form(self):
        svm = SoftSVM(concept=[1.5, 0.0])
        ridge = RidgeRegression(coefficients=[0.3, -0.2], sigma=1.0,
                                feasible_set=FeasibleSet.l1_ball(2, 1.0))
        fsq = FiniteSumQuadratic.from_seed(2, 8, 1.0, seed=1, scales=[1.0, 3.0],
                                           set_=FeasibleSet.l2_ball(2, 1.0))
        off = NormPower(s=2.0, sigma=1.0, dim=2,
                        feasible_set=FeasibleSet.l2_ball(2, 1.0, center=[0.1, 0.0]))
        for problem in (svm, ridge, fsq, off):
            emp, _ = build_empirical(problem, 10, problem.stream(1))
            assert exact_erm(emp) is None


class TestRegularizedPipeline:
    def test_regularizer_weight(self):
        # mu = eps / R^2 with eps = 0.1, R = 2
        mu, _ = tikhonov_parameters(0.1, 1.0, 2.0)
        assert mu == pytest.approx(0.025)

    def test_inner_accuracy(self):
        # delta = eps^3 / (8 M^2 R^2) with eps = 0.1, M = 1, R = 1
        _, delta = tikhonov_parameters(0.1, 1.0, 1.0)
        assert delta == pytest.approx(1.25e-4)

    def test_halfsql2_at_origin(self):
        assert HalfSqL2(0.3).value(np.zeros(4)) == 0.0

    def test_pipeline_solves_truncated_gaussian(self):
        p = GaussianMean(mean=[0.3], sigma=1.0,
                         feasible_set=FeasibleSet.l2_ball(1, 1.0))
        res, _ = regularized_pipeline(p, 0.2, 2000, p.stream(17))
        assert res.certified
        assert p.population_gap(res.point) <= 0.2

    def test_off_centre_ball_keeps_epsilon_contract(self):
        # mu = eps / R^2 bounds the Tikhonov term by eps/2 only around the
        # ball centre; pulled toward the origin, 10 away, no trial met eps
        p = GaussianMean(mean=[10.0], sigma=1.0,
                         feasible_set=FeasibleSet.l2_ball(1, 1.0, center=[10.0]))
        for seed in range(7001, 7011):
            res, _ = regularized_pipeline(p, 0.1, 20_000, p.stream(seed))
            assert res.certified
            assert p.population_gap(res.point) <= 0.1, seed

    def test_needs_bounded_set(self):
        p = GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))
        with pytest.raises(NotApplicableError):
            regularized_pipeline(p, 0.1, 100, p.stream(0))

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan])
    def test_rejects_nonpositive_epsilon(self, epsilon):
        p = GaussianMean(mean=[0.3], sigma=1.0, feasible_set=FeasibleSet.l2_ball(1, 1.0))
        with pytest.raises(InputError, match="epsilon must be positive"):
            regularized_pipeline(p, epsilon, 100, p.stream(0))


class TestVrGradient:
    def make(self, n_terms=3):
        p = FiniteSumQuadratic.from_seed(2, 8, 1.0, seed=6, scales=[1.0, 2.5])
        emp, _ = build_empirical(p, n_terms, p.stream(3))
        return emp

    def test_at_reference_returns_full_gradient(self):
        emp = self.make()
        ref = np.array([0.4, -0.1])
        state = VRState.at(emp, ref)
        for t in range(emp.n_terms):
            np.testing.assert_array_equal(
                vr_gradient(state, emp, ref, t), state.full_gradient
            )

    def test_interpolation_zero_at_optimum(self):
        p = FiniteSumQuadratic.interpolating([0.5, 0.5], n_terms=4)
        emp, _ = build_empirical(p, 6, p.stream(2))
        x_hat = emp.samples.mean(axis=0)
        state = VRState.at(emp, x_hat)
        for t in range(emp.n_terms):
            np.testing.assert_allclose(
                vr_gradient(state, emp, x_hat, t), np.zeros(2), atol=1e-14
            )

    def test_mean_over_terms_is_exact(self):
        emp = self.make(n_terms=5)
        state = VRState.at(emp, np.array([1.0, 1.0]))
        x = np.array([-0.3, 0.8])
        mean = np.mean([vr_gradient(state, emp, x, t) for t in range(5)], axis=0)
        np.testing.assert_allclose(mean, emp.gradient(x), atol=1e-12)

    def test_bad_term_index(self):
        emp = self.make()
        state = VRState.at(emp, np.zeros(2))
        with pytest.raises(InputError):
            vr_gradient(state, emp, np.zeros(2), 99)


class TestVrSolve:
    def test_single_term_is_deterministic_descent(self):
        p = FiniteSumQuadratic(centers=[[2.0, -1.0]], scales=[1.0, 3.0])
        emp, _ = build_empirical(p, 1, p.stream(4))
        res = vr_solve(emp, 1e-12, 100, p.stream(5))
        assert res.certified
        np.testing.assert_allclose(res.point, emp.samples[0], atol=1e-5)

    def test_conditioned_sum_certifies_quickly(self):
        scales = np.concatenate([[1.0], np.full(5, 10.0)])
        p = FiniteSumQuadratic.from_seed(6, 100, 1.0, seed=5, scales=scales)
        emp, _ = build_empirical(p, 100, p.stream(6))
        res = vr_solve(emp, 1e-8, 400, p.stream(7))
        assert res.certified
        assert res.epoch_equivalents <= 200

    def test_reference_gradient_trend(self):
        # the certificate history at the reference is the variance proxy; it
        # must decrease between consecutive epochs in >= 90% of epochs
        scales = np.concatenate([[1.0], np.full(3, 20.0)])
        p = FiniteSumQuadratic.from_seed(4, 60, 1.0, seed=8, scales=scales)
        emp, _ = build_empirical(p, 60, p.stream(9))
        res = vr_solve(emp, 1e-12, 60, p.stream(10))
        h = np.array(res.history)
        drops = (np.diff(h) < 0).mean()
        assert drops >= 0.9

    def test_rejects_nonsmooth_terms(self):
        p = SoftSVM(concept=[1.0, 0.0])
        emp, _ = build_empirical(p, 10, p.stream(1), HalfSqL2(1.0))
        with pytest.raises(NotApplicableError):
            vr_solve(emp, 1e-6, 10, p.stream(2))

    def test_rejects_merely_convex(self):
        p = RidgeRegression(coefficients=[1.0], sigma=0.1,
                            feasible_set=unconstrained(1))
        emp, _ = build_empirical(p, 10, p.stream(1))
        with pytest.raises(NotApplicableError):
            vr_solve(emp, 1e-6, 10, p.stream(2))


class TestCompositeProx:
    def test_none_is_projection(self):
        s = FeasibleSet.l2_ball(2, 1.0)
        x, g, gamma = np.array([0.5, 0.5]), np.array([-3.0, 1.0]), 0.4
        np.testing.assert_array_equal(
            composite_prox_step(x, g, gamma, None, s), project(s, x - gamma * g)
        )

    def test_zero_gradient_no_composite(self):
        s = FeasibleSet.l1_ball(2, 1.0)
        x = np.array([0.2, -0.3])
        np.testing.assert_array_equal(
            composite_prox_step(x, np.zeros(2), 0.5, None, s), x
        )

    def test_grid_search_oracle(self):
        # fine grid over the objective <g, z-x> + ||z-x||^2/(2 gamma) + comp(z)
        rng = np.random.default_rng(3)
        zs = np.linspace(-8, 8, 16001)
        for comp in (None, HalfSqL2(1.7)):
            for _ in range(10):
                x = rng.normal()
                g = rng.normal()
                gamma = rng.uniform(0.05, 1.0)
                out = composite_prox_step([x], [g], gamma, comp,
                                          FeasibleSet.unconstrained(1))[0]
                comp_v = (lambda z: 0.0) if comp is None else (
                    lambda z: comp.value(np.array([z])))
                vals = g * (zs - x) + (zs - x) ** 2 / (2 * gamma) \
                    + np.array([comp_v(z) for z in zs])
                best = zs[np.argmin(vals)]
                assert abs(out - best) <= 2e-3  # grid resolution
                obj = lambda z: g * (z - x) + (z - x) ** 2 / (2 * gamma) + comp_v(z)
                assert obj(out) <= obj(best) + 1e-8

    def test_scalar_halfsq_hand_kkt(self):
        # 3 + (z - 0)/0.1 + 1.0 (z - 0.5) = 0 gives z = -2.5/11
        out = composite_prox_step([0.0], [3.0], 0.1, HalfSqL2(1.0, [0.5]),
                                  FeasibleSet.unconstrained(1))
        assert out[0] == pytest.approx(-2.5 / 11, abs=1e-14)

    @pytest.mark.parametrize("set_", [
        FeasibleSet.l2_ball(2, 0.8, center=[0.3, -0.2]),
        FeasibleSet.l1_ball(2, 0.8, center=[-0.1, 0.2]),
        FeasibleSet.simplex(2),
    ], ids=["l2-off-centre", "l1-off-centre", "simplex"])
    def test_halfsq_exact_on_every_set(self, set_):
        # projecting the shrunk point is the exact prox of an off-centre
        # Tikhonov term on each set kind, checked against a grid of the set
        if set_.kind == "simplex":
            ts = np.linspace(0.0, 1.0, 4001)
            grid = np.column_stack([ts, 1.0 - ts])
        else:
            ts = np.linspace(-1.2, 1.2, 601)
            grid = np.array([[a, b] for a in ts for b in ts])
            grid = grid[contains(set_, grid)]
        comp = HalfSqL2(1.3, [0.6, 0.4])
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = project(set_, rng.normal(size=2))
            g = rng.normal(size=2)
            gamma = 0.3
            out = composite_prox_step(x, g, gamma, comp, set_)
            assert contains(set_, out)
            d = grid - x
            obj = d @ g + (d * d).sum(axis=1) / (2 * gamma) \
                + 0.65 * ((grid - comp.center) ** 2).sum(axis=1)
            o = lambda z: g @ (z - x) + (z - x) @ (z - x) / (2 * gamma) + comp.value(z)
            assert o(out) <= obj.min() + 1e-12

    def test_unknown_composite_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            composite_prox_step([0.5], [0.0], 0.1, object(), FeasibleSet.unconstrained(1))


class TestNormPowerClosedForm:
    def make_emp(self, rows, s):
        p = NormPower(s=s, sigma=1.0, dim=len(rows[0]))
        return EmpiricalObjective(p, np.asarray(rows, dtype=float))

    def test_s2_interior(self):
        emp = self.make_emp([[0.4, 0.0], [0.2, 0.0]], 2.0)
        np.testing.assert_allclose(norm_power_erm_closed_form(emp), [0.3, 0.0])

    def test_boundary_branch(self):
        for s in (1.5, 2.0, 3.0):
            emp = self.make_emp([[2.0, 0.0], [2.0, 0.0]], s)
            np.testing.assert_allclose(norm_power_erm_closed_form(emp), [1.0, 0.0])

    def test_s3_hand_value(self):
        emp = self.make_emp([[0.25, 0.0]], 3.0)
        out = norm_power_erm_closed_form(emp)
        np.testing.assert_allclose(out, [0.5, 0.0], atol=1e-14)
        # first-order condition: s ||x||^{s-2} x = s xi_bar
        lhs = 3.0 * np.linalg.norm(out) * out
        np.testing.assert_allclose(lhs, 3.0 * np.array([0.25, 0.0]), atol=1e-12)

    def test_s1_cases(self):
        inside = self.make_emp([[0.3, 0.0]], 1.0)
        np.testing.assert_array_equal(norm_power_erm_closed_form(inside), [0.0, 0.0])
        outside = self.make_emp([[3.0, 4.0]], 1.0)
        np.testing.assert_allclose(norm_power_erm_closed_form(outside), [0.6, 0.8])

    def test_free_space_is_the_ball_formula_with_infinite_radius(self):
        for s in (1.5, 2.0, 3.0):
            p = NormPower(s=s, sigma=1.0, dim=2, feasible_set=unconstrained(2))
            emp = EmpiricalObjective(p, np.array([[2.0, 0.0], [2.0, 0.0]]))
            # the stationary point, of norm 2^(1/(s-1)) > 1: outside the unit ball
            np.testing.assert_allclose(norm_power_erm_closed_form(emp),
                                       [2.0 ** (1.0 / (s - 1.0)), 0.0])
            res = exact_erm(emp)
            assert res.certificate == "exact"
            assert_kkt(emp, res.point)

    def test_s1_free_space(self):
        p = NormPower(s=1.0, sigma=1.0, dim=2, feasible_set=unconstrained(2))
        inside = EmpiricalObjective(p, np.array([[0.3, 0.0]]))
        np.testing.assert_array_equal(norm_power_erm_closed_form(inside), [0.0, 0.0])
        # ||x|| - <xi_bar, x> is unbounded below once ||xi_bar|| > 1
        outside = EmpiricalObjective(p, np.array([[3.0, 4.0]]))
        with pytest.raises(NotApplicableError):
            norm_power_erm_closed_form(outside)
        with pytest.raises(NotApplicableError):
            exact_erm(outside)

    def test_sets_without_closed_form_rejected(self):
        for set_ in (FeasibleSet.l1_ball(2, 1.0),
                     FeasibleSet.l2_ball(2, 1.0, center=[0.1, 0.0])):
            p = NormPower(s=2.0, sigma=1.0, dim=2, feasible_set=set_)
            emp = EmpiricalObjective(p, np.array([[0.5, 0.0]]))
            with pytest.raises(InputError):
                norm_power_erm_closed_form(emp)

    def test_wrong_family_rejected(self):
        p = GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))
        emp = EmpiricalObjective(p, np.array([[1.0]]))
        with pytest.raises(InputError):
            norm_power_erm_closed_form(emp)

    def test_composite_rejected(self):
        p = NormPower(s=2.0, sigma=1.0, dim=1)
        emp = EmpiricalObjective(p, np.array([[0.5]]), HalfSqL2(1.0))
        with pytest.raises(InputError):
            norm_power_erm_closed_form(emp)
