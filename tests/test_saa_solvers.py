import math

import numpy as np
import pytest

from sastra.errors import (
    InputError,
    NotApplicableError,
    PreconditionError,
    UnsupportedCombinationError,
)
from sastra.geometry import FeasibleSet, project
from sastra.problems import (
    FiniteSumQuadratic,
    GaussianMean,
    NormPower,
    RidgeRegression,
    SoftSVM,
)
from sastra.sa_solvers import TargetAccuracy
from sastra.saa_solvers import (
    EmpiricalObjective,
    HalfSqL2,
    L1,
    VRState,
    build_empirical,
    composite_prox_step,
    export_samples,
    import_samples,
    norm_power_erm_closed_form,
    regularized_pipeline,
    solve_erm,
    strong_delta,
    tikhonov_parameters,
    vr_gradient,
    vr_solve,
)


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


class TestEmpiricalValueGrad:
    def test_gradient_zero_at_mean(self):
        p = GaussianMean(mean=[0.1, -0.4], sigma=1.0, feasible_set=unconstrained(2))
        emp, _ = build_empirical(p, 32, p.stream(7))
        g = emp.gradient(emp.samples.mean(axis=0))
        assert np.max(np.abs(g)) <= 1e-12

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
        emp, _ = build_empirical(p, 3, p.stream(5), L1(0.7))
        x = np.array([0.4, 0.2])
        v_ref = np.mean([p.loss_value(x, xi) for xi in emp.samples]) + 0.7 * 0.6
        g_ref = np.mean([p.loss_subgradient(x, xi) for xi in emp.samples], axis=0) \
            + 0.7 * np.sign(x)
        v, g = emp.value(x), emp.gradient(x)
        assert v == pytest.approx(v_ref, abs=1e-12)
        np.testing.assert_allclose(g, g_ref, atol=1e-12)

    def test_l1_subgradient_zero_at_zero(self):
        p = GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))
        emp = EmpiricalObjective(p, np.array([[1.0], [-1.0]]), L1(2.0))
        g = emp.gradient(np.array([0.0]))
        assert g[0] == 0.0  # term gradients cancel, sign(0) = 0


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

    def test_strongly_convex_certificate(self):
        p = GaussianMean(mean=[0.0, 0.0], sigma=1.0,
                         feasible_set=FeasibleSet.l2_ball(2, 2.0))
        emp, _ = build_empirical(p, 20, p.stream(11), HalfSqL2(0.5))
        res = solve_erm(emp, 1e-10, budget=10_000)
        assert res.certified
        assert res.certificate == "strong_convexity"

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
        assert res.certificate in ("plateau", "budget_exhausted")
        # best-effort point must at least improve on the start
        assert res.value <= emp.value(p.default_x0()) + 1e-12


class TestStrongDelta:
    def c(self, mu=1.0, m=1.0):
        from sastra.problems import ProblemConstants

        return ProblemConstants(M_p=m, L=math.inf, mu_p=mu, sigma_star_sq=1.0,
                                s=2.0, mu_ps=mu / 2, lambda_sq=1.0)

    def test_hand_value(self):
        assert strong_delta(TargetAccuracy(0.1, 0.5), self.c()) == pytest.approx(0.00125)

    def test_quadratic_in_epsilon(self):
        d1 = strong_delta(TargetAccuracy(0.1, 0.5), self.c())
        d2 = strong_delta(TargetAccuracy(0.2, 0.5), self.c())
        assert d2 == pytest.approx(4 * d1)

    def test_inverse_quartic_in_m(self):
        d1 = strong_delta(TargetAccuracy(0.1, 0.5), self.c(m=1.0))
        d2 = strong_delta(TargetAccuracy(0.1, 0.5), self.c(m=2.0))
        assert d2 == pytest.approx(d1 / 4)

    def test_needs_strong_convexity(self):
        with pytest.raises(NotApplicableError):
            strong_delta(TargetAccuracy(0.1, 0.5), self.c(mu=0.0))


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
        res, _ = regularized_pipeline(p, TargetAccuracy(0.2, 0.1), 2000, p.stream(17))
        assert res.certified
        assert p.population_gap(res.point) <= 0.2

    def test_off_centre_ball_keeps_epsilon_contract(self):
        # mu = eps / R^2 bounds the Tikhonov term by eps/2 only around the
        # ball centre; pulled toward the origin, 10 away, no trial met eps
        p = GaussianMean(mean=[10.0], sigma=1.0,
                         feasible_set=FeasibleSet.l2_ball(1, 1.0, center=[10.0]))
        for seed in range(7001, 7011):
            res, _ = regularized_pipeline(p, TargetAccuracy(0.1, 0.1), 20_000,
                                          p.stream(seed))
            assert res.certified
            assert p.population_gap(res.point) <= 0.1, seed

    def test_needs_bounded_set(self):
        p = GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))
        with pytest.raises(NotApplicableError):
            regularized_pipeline(p, TargetAccuracy(0.1, 0.1), 100, p.stream(0))


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

    def test_stale_reference_rejected(self):
        emp = self.make()
        state = VRState.at(emp, np.zeros(2))
        state.stale = True
        with pytest.raises(PreconditionError):
            vr_gradient(state, emp, np.zeros(2), 0)

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

    def test_scalar_l1_hand_kkt(self):
        out = composite_prox_step([0.0], [3.0], 0.1, L1(1.0),
                                  FeasibleSet.unconstrained(1))
        assert out[0] == pytest.approx(-0.2, abs=1e-14)

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
        for comp in (None, L1(0.8), HalfSqL2(1.7)):
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

    def test_ball_l1_exactness_2d(self):
        # soft-threshold then project is the exact prox on origin-centered balls
        rng = np.random.default_rng(4)
        s = FeasibleSet.l2_ball(2, 0.8)
        ts = np.linspace(-0.8, 0.8, 401)
        grid = np.array([[a, b] for a in ts for b in ts])
        grid = grid[np.linalg.norm(grid, axis=1) <= 0.8]
        for _ in range(5):
            x = project(s, rng.normal(size=2))
            g = rng.normal(size=2)
            gamma = 0.3
            out = composite_prox_step(x, g, gamma, L1(0.5), s)
            obj = (grid - x) @ g + ((grid - x) ** 2).sum(axis=1) / (2 * gamma) \
                + 0.5 * np.abs(grid).sum(axis=1)
            best = grid[np.argmin(obj)]
            o = lambda z: g @ (z - x) + (z - x) @ (z - x) / (2 * gamma) \
                + 0.5 * np.abs(z).sum()
            assert o(out) <= o(best) + 1e-6

    def test_l1_on_simplex_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            composite_prox_step([0.5, 0.5], [0.0, 0.0], 0.1, L1(1.0),
                                FeasibleSet.simplex(2))

    def test_l1_off_center_ball_rejected(self):
        s = FeasibleSet.l2_ball(2, 1.0, center=[1.0, 0.0])
        with pytest.raises(UnsupportedCombinationError):
            composite_prox_step([1.0, 0.0], [0.1, 0.0], 0.1, L1(1.0), s)


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


class TestSampleCsv:
    def test_roundtrip(self, tmp_path):
        p = RidgeRegression(coefficients=[1.0, -2.0], sigma=0.5,
                            feasible_set=unconstrained(2))
        emp, _ = build_empirical(p, 7, p.stream(5))
        path = tmp_path / "samples.csv"
        export_samples(emp, path)
        back = import_samples(p, path)
        np.testing.assert_array_equal(back.samples, emp.samples)

    def test_wrong_columns_rejected(self, tmp_path):
        p = GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))
        path = tmp_path / "bad.csv"
        path.write_text("a_1,y\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(InputError):
            import_samples(p, path)
