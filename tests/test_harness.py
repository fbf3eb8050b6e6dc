import math
from dataclasses import dataclass

import numpy as np
import pytest

from sastra.errors import DegenerateInputError, InputError
from sastra.geometry import FeasibleSet
from sastra.harness import (
    CurvePoint,
    SampleComplexityCurve,
    SgdSolver,
    TRIAL_HEADER,
    assert_disjoint_streams,
    find_sample_complexity,
    fit_rate,
    measure_curve,
    read_report,
    run_trials,
    success_probability,
    write_report,
)
from sastra.problems import GaussianMean, SoftSVM


@dataclass(frozen=True)
class PowerLawSolver:
    """Deterministic synthetic solver with gap(N) = C / sqrt(N)."""

    C: float = 10.0

    @property
    def id(self) -> str:
        return "synthetic"

    def run(self, problem, n, stream, epsilon=None):
        # place the point at exactly the distance giving the target gap
        gap = self.C / math.sqrt(n)
        return problem.x_star + math.sqrt(gap)


@dataclass(frozen=True)
class NeverSolver:
    @property
    def id(self) -> str:
        return "never"

    def run(self, problem, n, stream, epsilon=None):
        return problem.x_star + 100.0


def gaussian():
    return GaussianMean(mean=[0.0], sigma=1.0,
                        feasible_set=FeasibleSet.unconstrained(1))


class TestRunTrials:
    def test_single_trial(self):
        p = gaussian()
        res = run_trials(SgdSolver(schedule="inverse_strong"), p, 50, 1, 7)
        assert len(res) == 1
        assert res[0].trial == 1
        assert res[0].seed == 8

    def test_same_base_seed_identical(self):
        # trial t of a batch equals a one-trial run at seed base + t
        p = gaussian()
        solver = SgdSolver(schedule="inverse_strong")
        batch = run_trials(solver, p, 40, 8, 100)
        singles = [run_trials(solver, p, 40, 1, 100 + t)[0] for t in range(8)]
        assert [r.trial for r in batch] == list(range(1, 9))
        assert [(r.seed, r.gap) for r in batch] == [
            (r.seed, r.gap) for r in singles
        ]
        assert [(r.seed, r.gap) for r in run_trials(solver, p, 40, 8, 100)] == [
            (r.seed, r.gap) for r in batch
        ]

    def test_gap_scale_matches_sample_mean_distribution(self):
        # with the 1/(mu k) policy the solver output is a mean-like estimate:
        # median gap must sit within [0.2, 5] x sigma^2/N
        p = gaussian()
        res = run_trials(SgdSolver(schedule="inverse_strong"), p, 100, 100, 55)
        med = float(np.median([r.gap for r in res]))
        assert 0.2 * (1.0 / 100) <= med <= 5.0 * (1.0 / 100)

    def test_failed_trial_recorded(self):
        p = gaussian()

        @dataclass(frozen=True)
        class Exploding:
            @property
            def id(self):
                return "boom"

            def run(self, problem, n, stream, epsilon=None):
                raise DegenerateInputError("synthetic failure")

        res = run_trials(Exploding(), p, 10, 3, 0)
        assert all(r.failed for r in res)
        assert "synthetic failure" in res[0].diagnostic

    def test_programming_error_propagates(self):
        # only sastra, floating-point and linear-algebra errors fail a trial
        @dataclass(frozen=True)
        class Buggy:
            @property
            def id(self):
                return "buggy"

            def run(self, problem, n, stream, epsilon=None):
                raise TypeError("synthetic bug")

        with pytest.raises(TypeError, match="synthetic bug"):
            run_trials(Buggy(), gaussian(), 10, 3, 0)

    def test_soft_svm_truth_built_once_at_construction(self, monkeypatch):
        calls = []
        minimize = SoftSVM._minimize

        def counting(self):
            calls.append(1)
            return minimize(self)

        monkeypatch.setattr(SoftSVM, "_minimize", counting)
        p = SoftSVM(concept=2.0 * np.ones(10) / math.sqrt(10.0))
        assert len(calls) == 1
        res = run_trials(SgdSolver(), p, 100, 4, 7)
        assert len(calls) == 1  # every trial grades against the one truth
        assert not any(r.failed for r in res)

    def test_disjoint_streams(self):
        p = gaussian()
        res = run_trials(SgdSolver(schedule="inverse_strong"), p, 10, 5, 3)
        assert_disjoint_streams(res)


class TestSuccessProbability:
    def mk(self, gaps):
        from sastra.harness import TrialResult

        return [
            TrialResult(i + 1, i + 1, "s", "p", 10, g, 0.0) for i, g in enumerate(gaps)
        ]

    def test_all_within(self):
        p, _ = success_probability(self.mk([0.01, 0.02]), 0.1)
        assert p == 1.0

    def test_two_thirds(self):
        p, _ = success_probability(self.mk([0.05, 0.2, 0.05]), 0.1)
        assert p == pytest.approx(2 / 3)

    def test_interval_width_shrinks_like_root_t(self):
        gaps100 = [0.05] * 50 + [0.2] * 50
        gaps400 = [0.05] * 200 + [0.2] * 200
        _, (lo1, hi1) = success_probability(self.mk(gaps100), 0.1)
        _, (lo4, hi4) = success_probability(self.mk(gaps400), 0.1)
        assert (hi4 - lo4) == pytest.approx((hi1 - lo1) / 2, rel=0.2)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            success_probability([], 0.1)


class TestFindSampleComplexity:
    def test_analytic_inversion(self):
        # gap(N) = 10/sqrt(N) <= 0.1 exactly at N = 1e4
        res = find_sample_complexity(PowerLawSolver(10.0), gaussian(), 0.1, 0.3,
                                     trials=5, max_n=10**6)
        assert not res.saturated
        assert 10_000 <= res.n <= 11_000  # within one bisection step

    def test_trivial_epsilon(self):
        res = find_sample_complexity(PowerLawSolver(0.5), gaussian(), 1.0, 0.3,
                                     trials=5)
        assert res.n == 1

    def test_saturation_flag(self):
        res = find_sample_complexity(NeverSolver(), gaussian(), 0.1, 0.3,
                                     trials=3, max_n=64)
        assert res.saturated
        assert res.n == 64

    def test_monotone_in_epsilon(self):
        ns = []
        for eps in (0.4, 0.2, 0.1, 0.05):
            res = find_sample_complexity(PowerLawSolver(10.0), gaussian(), eps,
                                         0.3, trials=5)
            ns.append(res.n)
        assert ns == sorted(ns)

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            find_sample_complexity(PowerLawSolver(), gaussian(), -0.1, 0.3)
        with pytest.raises(InputError):
            find_sample_complexity(PowerLawSolver(), gaussian(), 0.1, 1.5)


class TestMeasureCurve:
    def test_power_law_curve_exponent(self):
        curve = measure_curve(PowerLawSolver(10.0), gaussian(),
                              [0.4, 0.2, 0.1, 0.05], 0.3, trials=5)
        # N(eps) proportional to eps^-2
        assert -curve.slope == pytest.approx(2.0, abs=0.15)
        ns = [p.n for p in curve.points]
        assert ns == sorted(ns)

    def test_monotonicity_enforced_on_type(self):
        with pytest.raises(InputError):
            SampleComplexityCurve(
                (CurvePoint(0.2, 0.3, 100, 10, 9),
                 CurvePoint(0.1, 0.3, 50, 10, 9))
            )


class TestFitRate:
    def test_two_point_exact(self):
        slope, _, resid = fit_rate([(100, 0.1), (10000, 0.01)])
        assert slope == pytest.approx(-0.5)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        slope, _, _ = fit_rate([(1, 3.0), (10, 3.0), (100, 3.0)])
        assert slope == pytest.approx(0.0)

    def test_noisy_inverse_law(self):
        rng = np.random.default_rng(12)
        xs = np.logspace(0, 3, 10)
        ys = 3.0 / xs * (1.0 + 0.01 * rng.normal(size=10))
        slope, _, _ = fit_rate(list(zip(xs, ys)))
        assert -1.05 <= slope <= -0.95

    def test_positive_inputs_required(self):
        with pytest.raises(InputError):
            fit_rate([(1.0, -2.0), (2.0, 1.0)])
        with pytest.raises(InputError):
            fit_rate([(1.0, 1.0)])


class TestReports:
    def test_empty_trials_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_report([], path)
        text = path.read_text(encoding="utf-8")
        assert text == ",".join(TRIAL_HEADER) + "\n"

    def test_three_records_four_lines(self, tmp_path):
        p = gaussian()
        res = run_trials(SgdSolver(schedule="inverse_strong"), p, 10, 3, 5)
        path = tmp_path / "t.csv"
        write_report(res, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 4

    def test_roundtrip(self, tmp_path):
        p = gaussian()
        res = run_trials(SgdSolver(schedule="inverse_strong"), p, 10, 3, 5)
        path = tmp_path / "t.csv"
        write_report(res, path)
        header, records = read_report(path)
        assert header == TRIAL_HEADER
        assert len(records) == 3
        for rec, r in zip(records, res):
            assert int(rec[0]) == r.trial
            assert int(rec[1]) == r.seed
            assert float(rec[5]) == r.gap

    def test_curve_report_with_fit_line(self, tmp_path):
        curve = SampleComplexityCurve(
            (CurvePoint(0.2, 0.3, 100, 10, 9), CurvePoint(0.1, 0.3, 400, 10, 8))
        )
        path = tmp_path / "c.csv"
        write_report(curve, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("epsilon,beta,N,trials,successes")
        assert "# fit slope=" in text
        header, records = read_report(path)
        assert len(records) == 2

    def test_write_failure_names_path(self):
        with pytest.raises(InputError, match="no/such/dir"):
            write_report([], "/no/such/dir/report.csv")
