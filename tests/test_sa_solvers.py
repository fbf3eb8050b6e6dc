import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from sastra.errors import InputError, NotApplicableError, PreconditionError
from sastra.geometry import FeasibleSet, contains
from sastra.problems import FiniteSumQuadratic, GaussianMean, NormPower, SoftSVM
from sastra.sa_solvers import (
    AdaGrad,
    ConstantHorizon,
    Decreasing,
    InverseStrong,
    RunAborted,
    batched_accelerated_run,
    restart_stage_plan,
    restarted_budget_run,
    sgd_run,
)


@dataclass
class FakeStream:
    """Deterministic sample source for hand-computed recursions."""

    rows: np.ndarray
    counter: int = 0

    def draw_block(self, count):
        take = self.rows[self.counter : self.counter + count]
        if take.shape[0] < count:
            raise AssertionError("fake stream exhausted")
        return take, FakeStream(self.rows, self.counter + count)


def unconstrained(n):
    return FeasibleSet.unconstrained(n)


class TestStepSize:
    def test_constant_horizon(self):
        assert ConstantHorizon(R=1.0, M=2.0, N=100).step(1, None) == pytest.approx(0.05)

    def test_inverse_strong(self):
        assert InverseStrong(2.0).step(4, None) == pytest.approx(0.125)

    def test_decreasing(self):
        assert Decreasing(R=1.0, M=1.0).step(16, None) == pytest.approx(0.25)

    def test_adagrad_unit_gradients(self):
        sch = AdaGrad(R=1.0)
        for k in range(1, 5):
            gamma = sch.step(k, np.array([1.0]))
        assert gamma == pytest.approx(0.5)

    def test_adagrad_zero_history_guard(self):
        sch = AdaGrad(R=1.0)
        assert sch.step(1, np.zeros(3)) == AdaGrad.gamma_max

    def test_adagrad_fresh_resets(self):
        sch = AdaGrad(R=1.0)
        sch.step(1, np.array([2.0]))
        assert sch.fresh().accumulated == 0.0


class TestSgdRun:
    def test_sample_mean_recursion(self):
        # the 1/(mu k) policy on squared loss reproduces the running mean:
        # x0 = 0, samples (2, 4) -> final iterate 3
        p = GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))
        stream = FakeStream(np.array([[2.0], [4.0]]))
        trace, _ = sgd_run(p, InverseStrong(2.0), 2, [stream], [0.0])
        assert trace.final_point[0, 0] == pytest.approx(3.0, abs=1e-15)

    def test_running_mean_identity_long(self):
        p = GaussianMean(mean=[0.4], sigma=1.0, feasible_set=unconstrained(1))
        rows, _ = p.stream(3).draw_block(5000)
        trace, _ = sgd_run(p, InverseStrong(2.0), 5000, [p.stream(3)], [0.0])
        assert abs(trace.final_point[0, 0] - rows.mean()) <= 1e-12

    def test_zero_gradients_keep_x0(self):
        p = FiniteSumQuadratic.interpolating([1.5, -0.5], n_terms=4)
        trace, _ = sgd_run(p, ConstantHorizon(1.0, 1.0, 8), 8, [p.stream(1)],
                           [1.5, -0.5])
        np.testing.assert_array_equal(trace.average_full[0], [1.5, -0.5])
        np.testing.assert_array_equal(trace.final_point[0], [1.5, -0.5])

    def test_projection_active_single_step(self):
        # gradient (-20, 0) at the origin with gamma = 0.1 lands on the boundary
        p = GaussianMean(mean=[0.0, 0.0], sigma=1.0,
                         feasible_set=FeasibleSet.l2_ball(2, 1.0))
        stream = FakeStream(np.array([[10.0, 0.0]]))
        trace, _ = sgd_run(p, ConstantHorizon(R=0.1, M=1.0, N=1), 1, [stream], [0.0, 0.0])
        np.testing.assert_allclose(trace.final_point[0], [1.0, 0.0], atol=1e-14)

    def test_average_windows(self):
        # with gamma = 0.5 the squared-loss step maps x to the sample, so
        # feeding 2,3,4,5 walks the iterates 1,2,3,4
        p = GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))
        stream = FakeStream(np.array([[2.0], [3.0], [4.0], [5.0]]))
        trace, _ = sgd_run(p, ConstantHorizon(R=0.5, M=1.0, N=1), 4, [stream], [1.0])
        assert trace.average_full[0, 0] == pytest.approx(2.5)
        assert trace.average_tail[0, 0] == pytest.approx(3.5)
        three, _ = sgd_run(
            p, ConstantHorizon(R=0.5, M=1.0, N=1), 3,
            [FakeStream(np.array([[2.0], [3.0], [4.0]]))], [1.0],
        )
        assert three.average_full[0, 0] == pytest.approx(2.0)
        assert three.average_tail[0, 0] == pytest.approx(2.5)

    def test_constant_iterates_average(self):
        p = FiniteSumQuadratic.interpolating([2.0], n_terms=3)
        trace, _ = sgd_run(p, ConstantHorizon(1.0, 1.0, 5), 5, [p.stream(0)], [2.0])
        assert trace.average_full[0, 0] == 2.0
        assert trace.average_tail[0, 0] == 2.0

    def test_default_window_rule(self):
        # tail-half under the 1/(mu k) policy, the full window otherwise
        p = FiniteSumQuadratic.interpolating([2.0], n_terms=3)
        for schedule, chosen in (
            (ConstantHorizon(1.0, 1.0, 2), "average_full"),
            (Decreasing(1.0, 1.0), "average_full"),
            (AdaGrad(R=1.0), "average_full"),
            (InverseStrong(1.0), "average_tail"),
        ):
            trace, _ = sgd_run(p, schedule, 2, [p.stream(0)], [2.0])
            assert trace.averaged_point is getattr(trace, chosen)

    def test_determinism_bitwise(self):
        p = NormPower(s=2.0, sigma=1.0, dim=3)
        a, _ = sgd_run(p, Decreasing(1.0, 2.0), 500, [p.stream(8)], p.default_x0())
        b, _ = sgd_run(p, Decreasing(1.0, 2.0), 500, [p.stream(8)], p.default_x0())
        np.testing.assert_array_equal(a.final_point, b.final_point)
        np.testing.assert_array_equal(a.average_full, b.average_full)
        np.testing.assert_array_equal(a.average_tail, b.average_tail)

    def test_feasibility_invariant(self):
        for set_ in (FeasibleSet.l2_ball(3, 1.0), FeasibleSet.l1_ball(3, 1.0),
                     FeasibleSet.simplex(3)):
            p = GaussianMean(mean=[0.3, 0.3, 0.4], sigma=1.0, feasible_set=set_)
            x0 = p.default_x0()
            trace, _ = sgd_run(p, Decreasing(0.5, 2.0), 2000, [p.stream(5)], x0)
            assert contains(set_, trace.final_point[0], 1e-10)
            assert contains(set_, trace.average_full[0], 1e-10)
            assert contains(set_, trace.average_tail[0], 1e-10)

    def test_oracle_calls_exact(self):
        p = GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))
        trace, (stream,) = sgd_run(p, InverseStrong(2.0), 137, [p.stream(2)], [0.0])
        assert trace.oracle_calls == 137
        assert stream.counter == 137

    def test_infeasible_start_rejected(self):
        p = NormPower(s=2.0, sigma=1.0, dim=2)
        trace, _ = sgd_run(p, InverseStrong(2.0), 5, [p.stream(0)], [2.0, 0.0])
        (error,) = trace.row_errors
        assert type(error) is PreconditionError
        assert str(error) == "x0 must lie in the feasible set"

    def test_non_finite_gradient_aborts(self):
        p = GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))
        stream = FakeStream(np.array([[np.nan]] * 4))
        trace, _ = sgd_run(p, InverseStrong(2.0), 4, [stream], [0.0])
        (error,) = trace.row_errors
        assert type(error) is RunAborted
        assert str(error) == "non-finite iterate at step 4"


class TestRestarts:
    def test_stage_counts_double_for_s2(self):
        p = NormPower(s=2.0, sigma=1.0, dim=4)
        plan = restart_stage_plan(p, 0.005, 0.3, 1.0, multiplier=1.0)
        ratios = [plan[i + 1] / plan[i] for i in range(len(plan) - 1)]
        assert all(abs(r - 2.0) <= 0.1 for r in ratios)

    def test_stage_counts_flat_for_s1(self):
        p = NormPower(s=1.0, sigma=1.0, dim=4)
        plan = restart_stage_plan(p, 0.005, 0.3, 1.0)
        assert len(set(plan)) == 1

    def test_loose_target_single_stage(self):
        p = NormPower(s=2.0, sigma=1.0, dim=4)
        plan = restart_stage_plan(p, 10.0, 0.3, 1.0)
        assert len(plan) == 1

    def test_growth_required(self):
        p = SoftSVM(concept=[1.0, 0.0])
        with pytest.raises(NotApplicableError):
            restarted_budget_run(p, 1000, 0.3, 1.0, [p.stream(1)], np.array([0.0, 0.0]))

    def test_budget_consumed_within_limit(self):
        p = NormPower(s=2.0, sigma=1.0, dim=4)
        for budget in (10, 100, 1000):
            trace, _ = restarted_budget_run(
                p, budget, 0.3, 1.0, [p.stream(4)], np.array([1.0, 0, 0, 0])
            )
            assert trace.oracle_calls <= budget

    def test_restart_contracts(self):
        p = NormPower(s=2.0, sigma=0.5, dim=4)
        x0 = np.array([1.0, 0, 0, 0])
        plan = restart_stage_plan(p, 0.01, 0.3, 1.0)
        trace, _ = restarted_budget_run(p, sum(plan), 0.3, 1.0, [p.stream(9)], x0)
        assert p.population_gap(trace.averaged_point[0]) < p.population_gap(x0)


class TestMinibatchGradient:
    def test_r1_single_gradient(self):
        p = FiniteSumQuadratic(centers=[[1.0], [-1.0]])
        rows, stream = p.stream(6).draw_block(1)
        g = p.batch_subgrad_mean(np.array([0.3]), rows)
        (row,), _ = p.stream(6).draw_block(1)
        np.testing.assert_allclose(g, p.loss_subgradient([0.3], row))
        assert stream.counter == 1

    def test_variance_shrinks_like_one_over_r(self):
        # the minibatch gradient of batched_accelerated_run: the mean of r
        # fresh gradients; two symmetric centers give sigma_star_sq = 1
        p = FiniteSumQuadratic(centers=[[1.0], [-1.0]])
        r = 16
        stream = p.stream(12)
        x = np.array([0.0])
        grads = []
        for _ in range(10_000):
            rows, stream = stream.draw_block(r)
            grads.append(p.batch_subgrad_mean(x, rows)[0])
        var = np.var(grads)
        assert var == pytest.approx(1.0 / r, rel=0.2)


class TestBatchedAccelerated:
    def test_iteration_count_formula(self):
        # L = 1, R = 1, eps = 0.01 -> N = 10
        p = FiniteSumQuadratic(centers=[[1.0], [-1.0]])  # L = 1, sigma*^2 = 1
        assert p.constants().L == 1.0
        trace, _ = batched_accelerated_run(p, 0.01, [p.stream(3)], [1.0], 1.0)
        assert trace.iterations == 10

    def test_batch_size_formula(self):
        # sigma^2 = 1, L = 1, eps = 0.1 -> N = sqrt(1/0.1) ~ 4, r = N/0.1
        p = FiniteSumQuadratic(centers=[[1.0], [-1.0]])
        trace, _ = batched_accelerated_run(p, 0.1, [p.stream(3)], [1.0], 1.0)
        n = trace.iterations
        assert trace.oracle_calls == n * math.ceil(1.0 * n / (1.0 * 0.1))

    def test_zero_variance_degenerates_to_deterministic(self):
        p = FiniteSumQuadratic.interpolating([0.7, -0.3], n_terms=4)
        radius = float(np.linalg.norm([0.7, -0.3]))  # ||x0 - x*||
        a, _ = batched_accelerated_run(p, 1e-4, [p.stream(1)], [0.0, 0.0], radius)
        b, _ = batched_accelerated_run(p, 1e-4, [p.stream(999)], [0.0, 0.0], radius)
        assert a.oracle_calls == a.iterations  # r = 1
        np.testing.assert_array_equal(a.final_point, b.final_point)

    def test_converges_to_target(self):
        p = GaussianMean(mean=[0.0, 0.0], sigma=0.1,
                         feasible_set=unconstrained(2))
        trace, _ = batched_accelerated_run(p, 0.01, [p.stream(5)], [1.0, 0.0], 1.0)
        assert p.population_gap(trace.final_point[0]) <= 0.01

    def test_rejects_nonsmooth(self):
        p = SoftSVM(concept=[1.0, 0.0])
        with pytest.raises(NotApplicableError):
            batched_accelerated_run(p, 0.1, [p.stream(0)], [0.0, 0.0], 1.0)

    def test_rejects_simplex(self):
        p = GaussianMean(mean=[0.3, 0.3, 0.4], sigma=0.1,
                         feasible_set=FeasibleSet.simplex(3))
        with pytest.raises(NotApplicableError):
            batched_accelerated_run(p, 0.1, [p.stream(0)], p.default_x0(), 1.0)

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan])
    def test_rejects_nonpositive_epsilon(self, epsilon):
        p = FiniteSumQuadratic(centers=[[1.0], [-1.0]])
        with pytest.raises(InputError, match="epsilon must be positive"):
            batched_accelerated_run(p, epsilon, [p.stream(3)], [1.0], 1.0)


class TestInterpolationRegime:
    def test_linear_contraction_at_interpolation(self):
        # sigma*^2 = 0 and gamma = 1/(2L): squared distance contracts at
        # least as fast as (1 - gamma mu) per step
        scales = np.array([1.0, 4.0])
        p = FiniteSumQuadratic.interpolating([0.5, -1.0], n_terms=6, scales=scales)
        c = p.constants()
        gamma = 1.0 / (2.0 * c.L)
        schedule = ConstantHorizon(R=gamma, M=1.0, N=1)  # constant gamma
        x = np.array([2.0, 1.0])
        bound = (1.0 - gamma * c.mu_p) + 0.02
        stream = p.stream(3)
        for _ in range(60):
            trace, (stream,) = sgd_run(p, schedule, 1, [stream], x)
            d_old = np.linalg.norm(x - p.x_star) ** 2
            x = trace.final_point[0]
            d_new = np.linalg.norm(x - p.x_star) ** 2
            if d_old > 1e-24:
                assert d_new <= bound * d_old + 1e-30
