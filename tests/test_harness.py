import gc
import math
import weakref
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sastra.errors import DegenerateInputError, InputError
from sastra.geometry import FeasibleSet
from sastra import problems, saa_solvers as saa
from sastra import harness
from sastra.harness import (
    BatchedAccelSolver,
    CurvePoint,
    ErmSolver,
    RegularizedErmSolver,
    RestartSolver,
    SampleComplexityCurve,
    SgdSolver,
    TRIAL_HEADER,
    VrErmSolver,
    assert_disjoint_streams,
    find_sample_complexity,
    fit_rate,
    measure_curve,
    run_trials,
    success_probability,
    write_report,
)
from sastra.problems import (
    FiniteSumQuadratic,
    GaussianMean,
    NormPower,
    PrefixStore,
    ProblemInstance,
    RidgeRegression,
    SampleStream,
    SoftSVM,
)
from sastra.sa_solvers import RunAborted
from reference import read_report


@dataclass(frozen=True)
class PowerLawSolver:
    """Deterministic synthetic solver with gap(N) = C / sqrt(N)."""

    C: float = 10.0

    @property
    def id(self) -> str:
        return "synthetic"

    def run(self, problem, n, streams, epsilon=None, prefixes=None):
        # place the point at exactly the distance giving the target gap
        gap = self.C / math.sqrt(n)
        return [problem.x_star + math.sqrt(gap) for _ in streams]


@dataclass(frozen=True)
class NeverSolver:
    @property
    def id(self) -> str:
        return "never"

    def run(self, problem, n, streams, epsilon=None, prefixes=None):
        return [problem.x_star + 100.0 for _ in streams]


@dataclass(frozen=True)
class StepSolver:
    """Every trial succeeds exactly when the budget reaches ``need``."""

    need: int

    @property
    def id(self) -> str:
        return "step"

    def run(self, problem, n, streams, epsilon=None, prefixes=None):
        return [problem.x_star + (0.0 if n >= self.need else 100.0) for _ in streams]


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

            def run(self, problem, n, streams, epsilon=None, prefixes=None):
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

            def run(self, problem, n, streams, epsilon=None, prefixes=None):
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


_SETS = {
    "free": FeasibleSet.unconstrained(3),
    "l2": FeasibleSet.l2_ball(3, 1.0),
    "l2_off_centre": FeasibleSet.l2_ball(3, 0.8, center=[0.3, -0.2, 0.4]),
    "l1": FeasibleSet.l1_ball(3, 1.5),
    "simplex": FeasibleSet.simplex(3),
}


_SGD_SCHEDULES = ("constant", "decreasing", "inverse_strong", "adagrad")


def _batching_cases():
    # every schedule on every set it applies to (constant and decreasing
    # steps need a finite M_p, which free space does not give), then the
    # families whose subgradients take row-wise dot products, and restarts
    for schedule in _SGD_SCHEDULES:
        for name, set_ in _SETS.items():
            if name == "free" and schedule in ("constant", "decreasing"):
                continue
            problem = GaussianMean(mean=[0.2, 0.3, 0.5], sigma=1.0, feasible_set=set_)
            yield pytest.param(SgdSolver(schedule=schedule), problem, 300,
                               id=f"sgd[{schedule}]-gaussian_mean-{name}")
    yield pytest.param(SgdSolver(), SoftSVM(concept=2.0 * np.ones(10) / math.sqrt(10.0)), 300,
                       id="sgd[constant]-soft_svm-l2")
    yield pytest.param(SgdSolver(schedule="decreasing"),
                       RidgeRegression(coefficients=[0.3, -0.2, 0.1], sigma=1.0,
                                       feasible_set=_SETS["l1"]), 300,
                       id="sgd[decreasing]-ridge-l1")
    yield pytest.param(RestartSolver(), NormPower(s=2.0, sigma=1.0, dim=5), 2000,
                       id="restart-norm_power-l2")
    yield pytest.param(RestartSolver(start="center"), NormPower(s=2.0, sigma=1.0, dim=5), 2000,
                       id="restart[center]-norm_power-l2")
    yield pytest.param(RestartSolver(start="center"),
                       GaussianMean(mean=[0.2, 0.3, 0.5], sigma=1.0,
                                    feasible_set=_SETS["l2_off_centre"]), 2000,
                       id="restart[center]-gaussian_mean-l2_off_centre")
    # minibatch acceleration: every ball kind, both starts, ridge's gemv
    # gradients on odd-length rows and the norm-power row norms
    for start, name in (("center", "l2"), ("boundary", "l2_off_centre"), ("boundary", "free")):
        problem = GaussianMean(mean=[0.2, 0.3, 0.5], sigma=1.0, feasible_set=_SETS[name])
        yield pytest.param(BatchedAccelSolver(start=start), problem, 2000,
                           id=f"batched_accel[{start}]-gaussian_mean-{name}")
    for start, name in (("center", "l1"), ("boundary", "l2_off_centre")):
        problem = RidgeRegression(coefficients=[0.3, -0.2, 0.1], sigma=1.0,
                                  feasible_set=_SETS[name])
        yield pytest.param(BatchedAccelSolver(start=start), problem, 2000,
                           id=f"batched_accel[{start}]-ridge-{name}")
    yield pytest.param(BatchedAccelSolver(start="boundary"), NormPower(s=3.0, sigma=0.5, dim=4),
                       800, id="batched_accel[boundary]-norm_power_s3-l2")
    # offline: exact ERM, free-space least squares and the secular equation
    for name, n in (("free", 30), ("l2_off_centre", 5)):
        yield pytest.param(ErmSolver(),
                           RidgeRegression(coefficients=[0.3, -0.2, 0.1], sigma=1.0,
                                           feasible_set=_SETS[name]), n,
                           id=f"erm-ridge-{name}")


class _NanSamples:
    """Sampler whose every sample is NaN, shaped like the problem's rows."""

    def __init__(self, problem):
        self.rng_words = problem.rng_words
        self.sample_width = problem.sample_width

    def rows_from_uniforms(self, u):
        return np.full((u.shape[0], self.sample_width), np.nan)


class TestLockstepTrials:
    @pytest.mark.parametrize("solver, problem, n", list(_batching_cases()))
    def test_block_equals_single_trials_bit_for_bit(self, solver, problem, n):
        block = run_trials(solver, problem, n, 8, 500)
        singles = [run_trials(solver, problem, n, 1, 500 + t)[0] for t in range(8)]
        assert not any(r.failed for r in block)
        assert [(r.seed, r.gap) for r in block] == [(r.seed, r.gap) for r in singles]
        points = solver.run(problem, n, [problem.stream(500 + t) for t in range(1, 9)])
        for t, point in enumerate(points, start=1):
            (alone,) = solver.run(problem, n, [problem.stream(500 + t)])
            assert point.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("solver, problem, n", [
        (SgdSolver(schedule="inverse_strong"),
         GaussianMean(mean=[0.2, 0.3, 0.5], sigma=1.0, feasible_set=_SETS["l2"]), 300),
        (RestartSolver(), NormPower(s=2.0, sigma=1.0, dim=5), 2000),
        (BatchedAccelSolver(start="boundary"), NormPower(s=2.0, sigma=1.0, dim=5), 2000),
    ], ids=["sgd", "restart", "batched_accel"])
    def test_non_finite_row_fails_alone(self, solver, problem, n, monkeypatch):
        streams = [problem.stream(700 + t) for t in range(1, 9)]
        streams[3] = SampleStream(_NanSamples(problem), 704)
        outcomes = solver.run(problem, n, streams)
        (alone,) = solver.run(problem, n, streams[3:4])
        others = solver.run(problem, n, streams[:3] + streams[4:])
        assert isinstance(alone, RunAborted)
        assert type(outcomes[3]) is RunAborted and str(outcomes[3]) == str(alone)
        for got, want in zip(outcomes[:3] + outcomes[4:], others):
            assert got.tobytes() == want.tobytes()

        # run_trials records the one failure with the T = 1 diagnostic
        stream = type(problem).stream
        monkeypatch.setattr(type(problem), "stream", lambda self, seed: (
            SampleStream(_NanSamples(self), seed) if seed == 704 else stream(self, seed)))
        block = run_trials(solver, problem, n, 8, 700)
        (single,) = run_trials(solver, problem, n, 1, 703)
        assert [r.failed for r in block] == [t == 4 for t in range(1, 9)]
        assert block[3].diagnostic == single.diagnostic == f"RunAborted: {alone}"


class _TruthRead(Exception):
    """Raised by a patched x_star or population_gap: the solver read the truth."""


def _truth_probe_cases():
    # every adapter from both starts (the two without a start run once) on
    # a centred ball whose centre is x*, an off-centre ball, and free space,
    # where the boundary start and the ERM minimum-norm anchor live
    problems = {
        "norm_power-l2": NormPower(s=2.0, sigma=1.0, dim=10),
        "gaussian_mean-l2_off_centre": GaussianMean(mean=[0.2, 0.3, 0.5], sigma=1.0,
                                                    feasible_set=_SETS["l2_off_centre"]),
        "gaussian_mean-free": GaussianMean(mean=[0.2, 0.3, 0.5], sigma=1.0,
                                           feasible_set=_SETS["free"]),
        "ridge-free": RidgeRegression(coefficients=np.linspace(-0.5, 0.5, 8), sigma=1.0,
                                      feasible_set=FeasibleSet.unconstrained(8)),
    }
    for name, problem in problems.items():
        for start in ("center", "boundary"):
            for adapter in (SgdSolver, RestartSolver, ErmSolver, BatchedAccelSolver):
                yield pytest.param(adapter(start=start), problem,
                                   id=f"{adapter(start=start).id}[{start}]-{name}")
        for solver in (RegularizedErmSolver(), VrErmSolver()):
            yield pytest.param(solver, problem, id=f"{solver.id}-{name}")


class TestNoSolverReadsTheTruth:
    """Only run_trials grades: no adapter reads x* or a population gap."""

    @pytest.mark.parametrize("solver, problem", list(_truth_probe_cases()))
    def test_solver_runs_without_the_truth(self, solver, problem, monkeypatch):
        def read(*args):
            raise _TruthRead

        monkeypatch.setattr(type(problem), "x_star", property(read))
        monkeypatch.setattr(ProblemInstance, "population_gap", read)
        streams = [problem.stream(t) for t in (1, 2)]
        try:
            outcomes = solver.run(problem, 5, streams, 0.1)
        except harness._TRIAL_ERRORS:
            return  # the solver does not apply; it failed before any read
        assert len(outcomes) == 2

    def test_centre_start_restart_leaves_the_optimum(self):
        # the centre of the unit ball is x*; a radius read from ||x0 - x*||
        # floored at 1e-8 and the run never left it
        results = run_trials(RestartSolver(start="center"), NormPower(s=2.0, sigma=1.0, dim=10),
                             10, 50, 1_000)
        assert not any(r.failed for r in results)
        assert float(np.median([r.gap for r in results])) > 1e-4

    def test_boundary_start_on_free_space_is_e1(self):
        problem = RidgeRegression(coefficients=[0.3, -0.2, 0.1], sigma=1.0,
                                  feasible_set=_SETS["free"])
        np.testing.assert_array_equal(harness._start_point(problem, "boundary"), [1.0, 0.0, 0.0])


class TestBatchedAccelSizing:
    """The (N, r) search fits every sample budget and runs from any start."""

    @pytest.mark.parametrize("problem", [
        NormPower(s=2.0, sigma=1.0, dim=10),
        GaussianMean(mean=[0.0, 0.0, 0.0], sigma=1.0, feasible_set=_SETS["l2"]),
    ], ids=["norm_power", "gaussian_mean"])
    @pytest.mark.parametrize("start", ["center", "boundary"])
    def test_every_row_within_budget(self, problem, start, monkeypatch):
        # the centre start of both problems is x*
        oracle_calls = []
        run = harness.batched_accelerated_run

        def recording(*args, **kwargs):
            trace, streams = run(*args, **kwargs)
            oracle_calls.append(trace.oracle_calls)
            return trace, streams

        monkeypatch.setattr(harness, "batched_accelerated_run", recording)
        for n in range(1, 65):
            results = run_trials(BatchedAccelSolver(start=start), problem, n, 2, 40)
            assert not any(r.failed for r in results)
            assert oracle_calls.pop() <= n

    def test_nonsmooth_problem_fails_every_trial(self):
        results = run_trials(BatchedAccelSolver(), SoftSVM(concept=[1.5, 0.0]), 100, 3, 0)
        assert [r.diagnostic for r in results] == [
            "NotApplicableError: batched acceleration needs a smooth problem"] * 3


class TestSimplexStart:
    """Entropic steps keep a zero coordinate at zero, so a run started at a
    simplex vertex would report the vertex's gap; it fails instead."""

    PROBLEM = GaussianMean(mean=[0.2, 0.3, 0.5], sigma=1.0, feasible_set=_SETS["simplex"])

    @pytest.mark.parametrize("solver", [RestartSolver()] + [
        SgdSolver(schedule=k, start="boundary") for k in _SGD_SCHEDULES], ids=lambda s: s.id)
    def test_vertex_start_fails_every_trial(self, solver):
        results = run_trials(solver, self.PROBLEM, 2000, 5, 60)
        assert all(r.failed for r in results)
        assert {r.diagnostic for r in results} == {
            "DegenerateInputError: entropic step undefined: zero in x0"}

    @pytest.mark.parametrize("solver", [RestartSolver(start="center")] + [
        SgdSolver(schedule=k, start="center") for k in _SGD_SCHEDULES], ids=lambda s: s.id)
    def test_centre_start_moves(self, solver):
        vertex_gap = self.PROBLEM.population_gap([1.0, 0.0, 0.0])
        results = run_trials(solver, self.PROBLEM, 2000, 5, 60)
        assert not any(r.failed for r in results)
        assert max(r.gap for r in results) < 0.2 * vertex_gap


class TestZeroLipschitzBound:
    """Every centre at the one point of the n = 1 simplex: every sample
    gradient vanishes on the set, the declared M_p is 0, and any step is
    exact."""

    PROBLEM = FiniteSumQuadratic(np.ones((4, 1)), feasible_set=FeasibleSet.simplex(1))

    @pytest.mark.parametrize("solver", [RestartSolver()] + [
        SgdSolver(schedule=k) for k in _SGD_SCHEDULES], ids=lambda s: s.id)
    def test_every_trial_succeeds_at_gap_zero(self, solver):
        assert self.PROBLEM.constants().M_p == 0.0
        results = run_trials(solver, self.PROBLEM, 100, 4, 80)
        assert [(r.failed, r.gap) for r in results] == [(False, 0.0)] * 4


class _IterativeCalled(Exception):
    pass


class TestErmFastPath:
    @pytest.fixture
    def no_iterative(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise _IterativeCalled
        monkeypatch.setattr(saa, "solve_erm", refuse)

    @pytest.mark.parametrize("problem", [
        RidgeRegression(coefficients=[0.3, -0.2, 0.1], sigma=1.0, feasible_set=_SETS["free"]),
        GaussianMean(mean=[0.2, 0.3, 0.5], sigma=1.0, feasible_set=_SETS["simplex"]),
        NormPower(s=2.0, sigma=1.0, dim=3, feasible_set=FeasibleSet.l2_ball(3, 2.0)),
    ], ids=["ridge-free", "gaussian_mean-simplex", "norm_power-l2_radius_2"])
    def test_closed_forms_never_iterate(self, problem, no_iterative):
        results = run_trials(ErmSolver(), problem, 40, 4, 900)
        assert not any(r.failed for r in results)

    def test_soft_svm_iterates(self, no_iterative):
        with pytest.raises(_IterativeCalled):
            run_trials(ErmSolver(), SoftSVM(concept=[1.5, 0.0]), 40, 1, 900)


class TestErmNormPower:
    """ERM on norm_power off the origin-centred l2 ball: an l1 ball iterates,
    free space has the closed form with r = inf."""

    @pytest.mark.parametrize("set_name, s", [
        ("l1", 1.5), ("l1", 2.0), ("l1", 3.0), ("free", 2.0), ("free", 3.0),
    ])
    def test_no_failed_trial_and_exact_point(self, set_name, s):
        set_ = FeasibleSet.l1_ball(5, 1.0) if set_name == "l1" else FeasibleSet.unconstrained(5)
        p = NormPower(s=s, sigma=1.0, dim=5, feasible_set=set_)
        results = run_trials(ErmSolver(), p, 20, 4, 300)
        assert not any(r.failed for r in results)
        points = ErmSolver().run(p, 20, [p.stream(r.seed) for r in results])
        for r, point in zip(results, points):
            emp, _ = saa.build_empirical(p, 20, p.stream(r.seed))
            if set_.is_bounded:
                reference = saa.solve_erm(emp, 1e-13).point
            else:
                reference = saa.norm_power_erm_closed_form(emp)
            assert np.linalg.norm(point - reference) <= 1e-6
            # the gap is the one of a converged point, not of the start x* = 0
            assert r.gap == p.population_gap(point) > 0.0

    def test_s1_free_space_without_minimizer_fails_the_trial(self):
        # sigma = 3, N = 2: ||xi_bar|| > 1, so ||x|| - <xi_bar, x> is unbounded below
        p = NormPower(s=1.0, sigma=3.0, dim=5, feasible_set=FeasibleSet.unconstrained(5))
        (r,) = run_trials(ErmSolver(), p, 2, 1, 300)
        emp, _ = saa.build_empirical(p, 2, p.stream(r.seed))
        assert np.linalg.norm(emp.samples.mean(axis=0)) > 1.0
        assert r.failed and r.diagnostic.startswith("NotApplicableError")


class TestOfflineConstants:
    """The offline adapters solve with fixed constants: ERM to delta = 1e-10
    within 100,000 iterations from the set centre, VR within 400 epochs, and
    the Tikhonov pipeline with its own inner accuracy."""

    def test_erm_iterative_fallback(self):
        # an active l1 constraint, and a stop that moves with delta
        set_ = FeasibleSet.l1_ball(5, 1.0)
        p = RidgeRegression(coefficients=[0.3, -0.2, 0.1, 0.05, 0.0], sigma=1.0,
                            feasible_set=set_)
        (point,) = ErmSolver().run(p, 10, [p.stream(41)])
        emp, _ = saa.build_empirical(p, 10, p.stream(41))
        assert saa.exact_erm(emp) is None
        want = saa.solve_erm(emp, 1e-10, budget=100_000, x0=set_.center)
        assert want.certified
        assert point.tobytes() == want.point.tobytes()

    def test_vr_erm(self):
        p = FiniteSumQuadratic.from_seed(3, 12, 1.0, seed=5, scales=[1.0, 2.0, 4.0])
        (point,) = VrErmSolver().run(p, 12, [p.stream(42)])
        emp, stream = saa.build_empirical(p, 12, p.stream(42))
        want = saa.vr_solve(emp, 1e-10, 400, stream)
        assert want.certified
        assert point.tobytes() == want.point.tobytes()

    def test_regularized_erm(self):
        # unequal scales on a ball: no closed form, so solve_erm runs
        p = FiniteSumQuadratic.from_seed(3, 12, 1.0, seed=5, scales=[1.0, 2.0, 4.0],
                                         set_=FeasibleSet.l2_ball(3, 1.0))
        (point,) = RegularizedErmSolver().run(p, 40, [p.stream(43)], epsilon=0.05)
        want, _ = saa.regularized_pipeline(p, 0.05, 40, p.stream(43))
        assert want.certificate == "strong_convexity"
        assert point.tobytes() == want.point.tobytes()


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
        res = measure_curve(PowerLawSolver(10.0), gaussian(), [0.1], 0.3,
                            trials=5, max_n=10**6).points[0]
        assert not res.saturated
        assert 10_000 <= res.n <= 11_000  # within one bisection step

    def test_trivial_epsilon(self):
        res = measure_curve(PowerLawSolver(0.5), gaussian(), [1.0], 0.3,
                            trials=5).points[0]
        assert res.n == 1

    def test_saturation_flag(self):
        res = measure_curve(NeverSolver(), gaussian(), [0.1], 0.3,
                            trials=3, max_n=64).points[0]
        assert res.saturated
        assert res.n == 64

    def test_monotone_in_epsilon(self):
        ns = []
        for eps in (0.4, 0.2, 0.1, 0.05):
            res = measure_curve(PowerLawSolver(10.0), gaussian(), [eps],
                                0.3, trials=5).points[0]
            ns.append(res.n)
        assert ns == sorted(ns)

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            measure_curve(PowerLawSolver(), gaussian(), [-0.1], 0.3).points[0]
        with pytest.raises(InputError):
            measure_curve(PowerLawSolver(), gaussian(), [0.1], 1.5).points[0]
        with pytest.raises(InputError):
            measure_curve(PowerLawSolver(), gaussian(), [0.1], 0.3, max_n=0).points[0]

    @pytest.mark.parametrize("search", [
        lambda eps: find_sample_complexity(PowerLawSolver(), gaussian(), eps, 0.3,
                                           trials=5, max_n=64),
        lambda eps: measure_curve(PowerLawSolver(), gaussian(), [eps], 0.3,
                                  trials=5, max_n=64),
    ], ids=["find_sample_complexity", "measure_curve"])
    def test_nan_epsilon_rejected(self, search):
        # a nan passed "epsilon <= 0" and the search probed up to max_n
        with pytest.raises(InputError):
            search(math.nan)

    def test_bisection_stays_above_the_last_failed_probe(self):
        # max_n clamps the doubling at 100, so the bracket is (64, 100]
        res = measure_curve(StepSolver(70), gaussian(), [0.1], 0.3, trials=1,
                            max_n=100).points[0]
        probed = [n for n, _k, _t in res.probes]
        assert probed[:8] == [1, 2, 4, 8, 16, 32, 64, 100]
        assert min(probed[8:]) > 64
        assert 70 <= res.n <= 70 * harness._RESOLUTION

    @pytest.mark.parametrize("solver, saturated", [(StepSolver(10), False), (NeverSolver(), True)],
                             ids=["passes", "never"])
    def test_n_start_above_max_n_probes_max_n(self, solver, saturated):
        res = _warm_search(solver, max_n=50, n_start=100)
        assert [n for n, _k, _t in res.probes] == [50]
        assert (res.n, res.saturated) == (50, saturated)

    @pytest.mark.parametrize("solver, problem", [
        (ErmSolver(), RidgeRegression(np.linspace(-0.5, 0.5, 8), 1.0, FeasibleSet.unconstrained(8))),
        (PowerLawSolver(10.0), gaussian()),
    ], ids=["erm-ridge", "online"])
    def test_is_the_one_point_curve(self, solver, problem):
        res = find_sample_complexity(solver, problem, 0.2, 0.3, trials=6, base_seed=300)
        assert len(res.probes) > 1
        assert res == measure_curve(solver, problem, [0.2], 0.3, trials=6,
                                    base_seed=300).points[0]


def _warm_search(solver, max_n, n_start):
    """The search measure_curve runs for a point after the first: doubling
    from the previous point's N."""
    problem = gaussian()
    return harness._search(solver, problem, 0.1, 0.3, 1, max_n, 10_000, n_start,
                           PrefixStore(problem, 1))


@settings(max_examples=200, deadline=None)
@given(need=st.integers(1, 5000), max_n=st.integers(1, 5000), n_start=st.integers(1, 5000))
def test_search_brackets_a_step(need, max_n, n_start):
    res = _warm_search(StepSolver(need), max_n, n_start)
    assert res.probes and max(n for n, _k, _t in res.probes) <= max_n
    assert res.successes == next(k for n, k, _t in reversed(res.probes) if n == res.n)
    assert all(t == res.trials for _n, _k, t in res.probes)
    assert res.saturated == (need > max_n)
    if not res.saturated and min(n_start, max_n) >= need:
        assert res.n == min(n_start, max_n)  # the first probe passes
    elif not res.saturated:
        assert need <= res.n <= need * harness._RESOLUTION


@dataclass(frozen=True)
class RecordingSolver(PowerLawSolver):
    """PowerLawSolver that logs each call's budget and stream seeds."""

    calls: list = field(default_factory=list)

    def run(self, problem, n, streams, epsilon=None, prefixes=None):
        self.calls.append((n, tuple(s.base_seed for s in streams)))
        return super().run(problem, n, streams, epsilon)


class TestCommonSeeds:
    """Trial t draws from seed base + t at every probe and every curve point."""

    def test_every_probe_runs_the_same_trials(self):
        solver = RecordingSolver()
        res = measure_curve(solver, gaussian(), [0.1], 0.3, trials=4, base_seed=700).points[0]
        assert len(solver.calls) == len(res.probes) > 10
        assert {seeds for _n, seeds in solver.calls} == {(701, 702, 703, 704)}

    def test_every_curve_point_runs_the_same_trials(self):
        solver = RecordingSolver()
        measure_curve(solver, gaussian(), [0.4, 0.2, 0.1], 0.3, trials=3, base_seed=90)
        assert len({n for n, _seeds in solver.calls}) > 10
        assert {seeds for _n, seeds in solver.calls} == {(91, 92, 93)}


def _offline_searches():
    """(solver, problem, epsilons) for every offline adapter: erm on ridge on
    free space and on an l2 ball and on gaussian_mean, regularized_erm on
    ridge over an off-centre l2 ball (the Gram-sum solve under HalfSqL2,
    interior and on the sphere), and regularized_erm and vr_erm on a
    bounded set without a Gram-sum solve."""
    free8, ball8 = FeasibleSet.unconstrained(8), FeasibleSet.l2_ball(8, 1.0)
    coefficients = np.linspace(-0.5, 0.5, 8)
    off_centre8 = FeasibleSet.l2_ball(8, 1.4, center=[0.3, -0.2, 0.1, 0.0, 0.2, -0.1, 0.3, -0.3])
    quadratic = FiniteSumQuadratic.from_seed(3, 12, 1.0, seed=5, scales=[1.0, 2.0, 4.0],
                                             set_=FeasibleSet.l2_ball(3, 1.0))
    yield pytest.param(ErmSolver(), RidgeRegression(coefficients, 1.0, free8), (0.4, 0.2),
                       id="erm-ridge-free")
    yield pytest.param(ErmSolver(), RidgeRegression(coefficients, 1.0, ball8), (0.4, 0.2),
                       id="erm-ridge-l2")
    yield pytest.param(ErmSolver(), GaussianMean([0.2, 0.3, 0.5], 1.0, FeasibleSet.unconstrained(3)),
                       (0.2, 0.1), id="erm-gaussian_mean-free")
    yield pytest.param(RegularizedErmSolver(), RidgeRegression(coefficients, 1.0, off_centre8),
                       (0.4, 0.2), id="regularized_erm-ridge-l2")
    yield pytest.param(RegularizedErmSolver(), quadratic, (0.4, 0.2), id="regularized_erm-l2")
    yield pytest.param(VrErmSolver(), quadratic, (0.2, 0.1), id="vr_erm-l2")


class TestPrefixStoreSearch:
    """The store changes no result: not without a cap, not at a cap the
    search crosses, not at its real value, and not at 0, where it holds nothing."""

    TRIALS = 6

    def _caps(self, problem):
        row = self.TRIALS * problem.sample_width * 8
        return [0, 20 * row, problems._PREFIX_BYTES, 1 << 62]

    @pytest.mark.parametrize("solver, problem, epsilons", list(_offline_searches()))
    def test_every_cap_gives_the_same_search(self, solver, problem, epsilons, monkeypatch):
        searches, curves = [], []
        for cap in self._caps(problem):
            monkeypatch.setattr(problems, "_PREFIX_BYTES", cap)
            searches.append(find_sample_complexity(solver, problem, epsilons[-1], 0.3,
                                                   trials=self.TRIALS, base_seed=300))
            curve = measure_curve(solver, problem, epsilons, 0.3, trials=self.TRIALS,
                                  base_seed=300)
            curves.append((curve.points, curve.slope))
        assert all(s == searches[0] for s in searches)
        assert all(c == curves[0] for c in curves)
        # each probe's count is that of run_trials run alone at its n
        probes = searches[0].probes
        assert len(probes) > 4
        for n, k, t in probes:
            results = run_trials(solver, problem, n, t, 300, epsilon=epsilons[-1])
            assert k == sum(1 for r in results if not r.failed and r.gap <= epsilons[-1])

    @pytest.mark.parametrize("solver, problem, epsilons", list(_offline_searches()))
    def test_gaps_with_a_shared_store_are_bit_identical(self, solver, problem, epsilons,
                                                        monkeypatch):
        monkeypatch.setattr(problems, "_PREFIX_BYTES", 20 * self.TRIALS * problem.sample_width * 8)
        store = PrefixStore(problem, self.TRIALS)
        # across the 2n switch of the Gram-sum solves (16 for ridge in 8
        # dimensions) and the 64-row block boundaries, in scrambled order
        for n in (16, 4, 200, 64, 40, 65, 130, 21, 9, 200):
            shared = run_trials(solver, problem, n, self.TRIALS, 300, epsilon=epsilons[-1],
                                prefixes=store)
            alone = run_trials(solver, problem, n, self.TRIALS, 300, epsilon=epsilons[-1])
            assert [(r.seed, r.gap, r.failed, r.diagnostic) for r in shared] == [
                (r.seed, r.gap, r.failed, r.diagnostic) for r in alone]
        assert store._held or store._sums


# the problem of the ridge_erm benchmark config, whose x_star defaults to 0
RIDGE_ERM = RidgeRegression(np.zeros(20), 1.0, FeasibleSet.unconstrained(20))


class TestRidgeErmSearch:
    """The ridge_erm benchmark search, N(0.05, 0.1) over 50 trials, pinned at
    two workload seeds.  These are the values of the rows path; the Gram-sum
    solves move its gaps only in their last bits."""

    PINNED = {
        2000: (609, 45, ((1, 42), (2, 26), (4, 6), (8, 1), (16, 0), (32, 0), (64, 0),
                         (128, 0), (256, 3), (512, 39), (1024, 50), (724, 50), (609, 45),
                         (558, 42))),
        17000: (609, 47, ((1, 31), (2, 15), (4, 6), (8, 0), (16, 0), (32, 0), (64, 0),
                          (128, 0), (256, 8), (512, 42), (1024, 50), (724, 48), (609, 47),
                          (558, 44))),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_search_is_pinned(self, seed):
        res = measure_curve(ErmSolver(), RIDGE_ERM, [0.05], 0.1, 50,
                            base_seed=seed + 10_000).points[0]
        n, k, probes = self.PINNED[seed]
        assert (res.n, res.successes, res.saturated) == (n, k, False)
        assert res.probes == tuple((m, km, 50) for m, km in probes)


class TestPrefixStoreMemory:
    # a search whose store holds rows: erm on gaussian_mean, T = 50 trials,
    # rows 20 floats wide; its search probes N = 512 and 1024, past the cap's
    # 393 rows per trial
    PROBLEM = GaussianMean(np.linspace(-0.5, 0.5, 20), 1.0, FeasibleSet.unconstrained(20))

    def _recording(self, monkeypatch):
        stores, held, sums = [], [], []

        class Recording(PrefixStore):
            def __init__(self, problem, trials):
                super().__init__(problem, trials)
                stores.append(weakref.ref(self))

            def draw(self, stream, count):
                out = super().draw(stream, count)
                held.append(sum(a.nbytes for a in self._held.values()))
                return out

            def gram(self, stream, count):
                out = super().gram(stream, count)
                sums.append((len(self._sums), max(map(len, self._sums.values()), default=0),
                             sum(a.nbytes for by in self._sums.values() for a in by.values()),
                             len(self._held)))
                return out

        monkeypatch.setattr(harness, "PrefixStore", Recording)
        return stores, held, sums

    def _search_frees_its_store(self, stores, problem, epsilon):
        gc.disable()  # no cycle collection: the store must be freed by refcount
        try:
            res = measure_curve(ErmSolver(), problem, [epsilon], 0.1, trials=50,
                                base_seed=12_000).points[0]
            assert max(n for n, _, _ in res.probes) == 1024
            assert len(stores) == 1 and stores[0]() is None
        finally:
            gc.enable()

    def test_store_stays_under_its_cap_and_dies_with_the_search(self, monkeypatch):
        stores, held, _ = self._recording(monkeypatch)
        self._search_frees_its_store(stores, self.PROBLEM, 0.05)
        cap = problems._PREFIX_BYTES
        assert 0 < max(held) <= cap
        assert max(held) == 50 * (cap // (50 * 20 * 8)) * 20 * 8  # full, not over

    def test_one_store_per_curve_and_none_outlives_it(self, monkeypatch):
        stores, held, _ = self._recording(monkeypatch)
        measure_curve(ErmSolver(), self.PROBLEM, [0.2, 0.1], 0.1, trials=50, base_seed=12_000)
        assert len(stores) == 1 and stores[0]() is None
        assert 0 < max(held) <= problems._PREFIX_BYTES

    def test_ridge_erm_store_holds_two_sums_per_trial_and_dies_with_the_search(
            self, monkeypatch):
        stores, held, sums = self._recording(monkeypatch)
        self._search_frees_its_store(stores, RIDGE_ERM, 0.05)  # its store holds sums
        assert held == []  # no rows: the probes below N = 40 draw theirs afresh
        seeds, per_seed, nbytes, rows_held = zip(*sums)
        assert max(seeds) == 50 and max(per_seed) == 2 and set(rows_held) == {0}
        assert max(nbytes) == 2 * 50 * 21 * 21 * 8 <= problems._PREFIX_BYTES


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
