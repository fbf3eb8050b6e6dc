import math

import numpy as np
import pytest

from sastra.errors import InputError, SastraError
from sastra.sliding import (
    CallLedger,
    InnerModel,
    SlidingParams,
    check_smoothness,
    inner_solve,
    sliding_run,
)

from reference import accelerated_reference_run


def quadratic(eigs, seed, n=None):
    n = n or len(eigs)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = q @ np.diag(eigs) @ q.T
    b = rng.normal(size=n)
    return a, b


class TestParams:
    def test_coefficient_display(self):
        p = SlidingParams(L_g=4.0, L_h=4.0, mu=1.0)
        assert p.tau == pytest.approx(0.25)
        assert p.eta == pytest.approx(0.25)

    def test_tau_saturates_at_one(self):
        with pytest.warns(UserWarning):
            p = SlidingParams(L_g=0.01, L_h=0.01, mu=1.0)
        assert p.tau == 1.0

    def test_ordering_enforced(self):
        with pytest.raises(InputError):
            SlidingParams(L_g=10.0, L_h=1.0, mu=0.5)

    def test_mu_above_lg_warns(self):
        with pytest.warns(UserWarning):
            SlidingParams(L_g=1.0, L_h=2.0, mu=1.5)


class TestInnerSolve:
    def make_model(self, seed=0, n=6, lh=20.0):
        ah, bh = quadratic(np.linspace(1.0, lh, n), seed)
        grad_h = lambda x: ah @ x + bh
        x_tilde = np.zeros(n)
        gg = np.full(n, 0.5)
        return InnerModel(x_tilde, gg, 1.0, lh, grad_h), ah, bh, gg

    def test_matches_linear_system_oracle(self):
        model, ah, bh, gg = self.make_model()
        params = SlidingParams(L_g=1.0, L_h=20.0, mu=0.5)
        out = inner_solve(model, params, tol_override=1e-22)
        # grad A(x) = gg + 2 L_g x + ah x + bh = 0
        x_ref = np.linalg.solve(2.0 * np.eye(6) + ah, -(gg + bh))
        np.testing.assert_allclose(out, x_ref, atol=1e-8)

    def test_acceptance_criterion_holds(self):
        model, ah, bh, gg = self.make_model(seed=3)
        params = SlidingParams(L_g=1.0, L_h=20.0, mu=0.5)
        out = inner_solve(model, params)
        x_min = np.linalg.solve(2.0 * np.eye(6) + ah, -(gg + bh))
        lhs = np.linalg.norm(model.grad(out)) ** 2
        rhs = (1.0**2 / 3.0) * np.linalg.norm(model.x_tilde - x_min) ** 2
        assert lhs <= rhs

    def test_optimal_anchor_returns_immediately(self):
        # pick the linearized-g gradient so grad A vanishes at the anchor:
        # the criterion then holds with both sides zero, after zero steps
        n = 4
        ah, bh = quadratic(np.linspace(1.0, 5.0, n), 2)
        calls = []
        grad_h = lambda x: (calls.append(1), ah @ x + bh)[1]
        anchor = np.array([0.3, -0.1, 0.2, 0.0])
        gg = -(ah @ anchor + bh)  # cancels grad_h at the anchor
        model = InnerModel(anchor, gg, 1.0, 5.0, grad_h)
        out = inner_solve(model, SlidingParams(L_g=1.0, L_h=5.0, mu=0.5))
        np.testing.assert_array_equal(out, anchor)
        assert len(calls) == 1  # single evaluation at the anchor, zero steps

    def test_budget_exhaustion_diagnostic(self):
        model, *_ = self.make_model(seed=5, lh=500.0)
        params = SlidingParams(L_g=1.0, L_h=500.0, mu=0.5, inner_budget=2)
        with pytest.raises(SastraError, match="unreachable"):
            inner_solve(model, params)


class TestSlidingRun:
    def test_degenerate_half_step(self):
        # h = 0: the inner model minimizer is the explicit half step
        ag, bg = quadratic(np.linspace(0.2, 1.0, 5), 1)
        grad_g = lambda x: ag @ x + bg
        params = SlidingParams(L_g=1.0, L_h=1.0, mu=0.2)
        x0 = np.zeros(5)
        res = sliding_run(grad_g, None, params, x0, 1e-30, 1)
        x_tilde = params.tau * x0 + (1 - params.tau) * x0
        expected = x_tilde - grad_g(x_tilde) / 2.0
        # one outer iteration: x_f after the run equals the half step
        np.testing.assert_array_equal(res.point, expected)

    def test_bit_identity_with_reference(self):
        ag, bg = quadratic(np.linspace(0.05, 1.0, 6), 4)
        grad_g = lambda x: ag @ x + bg
        mu = 0.05
        x0 = np.ones(6)
        a = sliding_run(grad_g, None, SlidingParams(L_g=1.0, L_h=1.0, mu=mu),
                        x0, 1e-14, 3000)
        b = accelerated_reference_run(grad_g, 1.0, mu, x0, 1e-14, 3000)
        np.testing.assert_array_equal(a.point, b.point)
        assert a.certified and b.certified
        assert a.ledger.outer_iterations == b.ledger.outer_iterations
        assert a.ledger.grad_g_calls == b.ledger.grad_g_calls

    def test_catalyst_fixed_point(self):
        ah, bh = quadratic(np.linspace(0.5, 8.0, 5), 9)
        grad_h = lambda x: ah @ x + bh
        x_opt = np.linalg.solve(ah, -bh)
        params = SlidingParams(L_g=0.5, L_h=8.0, mu=0.5)
        res = sliding_run(None, grad_h, params, x_opt.copy(), 1e-18, 5)
        assert res.certified
        np.testing.assert_allclose(res.point, x_opt, atol=1e-9)

    def test_converges_with_composite(self):
        ag, bg = quadratic(np.linspace(-0.2, 1.0, 6), 1)  # nonconvex g
        ah, bh = quadratic(np.linspace(0.4, 30.0, 6), 2)
        mu = float(np.linalg.eigvalsh(ag + ah).min())
        assert 0 < mu < 1.0
        grad_g = lambda x: ag @ x + bg
        grad_h = lambda x: ah @ x + bh
        params = SlidingParams(L_g=1.0, L_h=30.0, mu=mu)
        res = sliding_run(grad_g, grad_h, params, np.zeros(6), 1e-10, 10_000)
        assert res.certified
        x_ref = np.linalg.solve(ag + ah, -(bg + bh))
        np.testing.assert_allclose(res.point, x_ref, atol=1e-4)

    def test_ledger_counts_every_call(self):
        ag, bg = quadratic(np.linspace(0.2, 1.0, 4), 3)
        ah, bh = quadratic(np.linspace(0.1, 10.0, 4), 5)
        g_calls, h_calls = [], []
        grad_g = lambda x: (g_calls.append(1), ag @ x + bg)[1]
        grad_h = lambda x: (h_calls.append(1), ah @ x + bh)[1]
        mu = float(np.linalg.eigvalsh(ag + ah).min())
        params = SlidingParams(L_g=1.0, L_h=10.0, mu=mu)
        res = sliding_run(grad_g, grad_h, params, np.zeros(4), 1e-8, 1000)
        assert res.ledger.grad_g_calls == len(g_calls)
        assert res.ledger.grad_h_calls == len(h_calls)
        assert res.ledger.grad_g_calls == 2 * res.ledger.outer_iterations

    def test_budget_exhaustion_flagged(self):
        ag, bg = quadratic(np.linspace(0.05, 1.0, 4), 6)
        grad_g = lambda x: ag @ x + bg
        res = sliding_run(grad_g, None, SlidingParams(L_g=1.0, L_h=1.0, mu=0.05),
                          np.ones(4), 1e-20, 3)
        assert not res.certified

    def test_outer_iteration_scaling(self):
        # outer iterations track sqrt(L_g/mu) log(1/eps) within a factor 3
        x0 = np.ones(6)
        for lg, mu in [(1.0, 0.05), (4.0, 0.05), (1.0, 0.2)]:
            ag, bg = quadratic(np.linspace(mu, lg, 6), 7)
            grad_g = lambda x: ag @ x + bg
            res = accelerated_reference_run(grad_g, lg, mu, x0, 1e-10, 100_000)
            predicted = math.sqrt(lg / mu) * math.log(1e10)
            assert res.certified
            assert predicted / 3 <= res.ledger.outer_iterations <= predicted * 3


class TestSmoothnessProbe:
    def test_accepts_true_constant(self):
        a, b = quadratic(np.linspace(-0.5, 2.0, 4), 8)
        check_smoothness(lambda x: a @ x + b, 2.0, 4)

    def test_rejects_understated_constant(self):
        a, b = quadratic(np.linspace(-0.5, 2.0, 4), 8)
        with pytest.raises(InputError, match="smoothness"):
            check_smoothness(lambda x: a @ x + b, 0.5, 4)

    def test_probe_runs_inside_sliding(self):
        ag, bg = quadratic(np.linspace(0.1, 1.0, 4), 9)
        grad_g = lambda x: ag @ x + bg
        params = SlidingParams(L_g=1.0, L_h=1.0, mu=0.1)
        res = sliding_run(grad_g, None, params, np.zeros(4), 1e-10, 5000,
                          probe=True)
        assert res.certified
