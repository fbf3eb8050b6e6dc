import functools
import hashlib
import math
import sys
import threading

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sastra.errors import InputError, PreconditionError
from sastra.geometry import FeasibleSet, project
from sastra.problems import (
    FiniteSumQuadratic,
    GaussianMean,
    Lasso,
    NormPower,
    PrefixStore,
    RidgeRegression,
    SoftSVM,
    TRUNC3_VARIANCE,
    uniform_values,
)
from sastra import problems

from reference import nested_svm_minimizer


def unconstrained(n):
    return FeasibleSet.unconstrained(n)


@pytest.fixture(scope="module")
def gaussian1d():
    return GaussianMean(mean=[0.0], sigma=1.0, feasible_set=unconstrained(1))


class TestStreams:
    def test_same_seed_counter_same_sample(self, gaussian1d):
        a, _ = gaussian1d.stream(123).draw_block(1)
        b, _ = gaussian1d.stream(123).draw_block(1)
        np.testing.assert_array_equal(a, b)

    def test_counter_windows_are_position_independent(self, gaussian1d):
        # sample i is a pure function of (seed, i): drawing 10 at once must
        # reproduce drawing them one by one
        block, _ = gaussian1d.stream(9).draw_block(10)
        st = gaussian1d.stream(9)
        singles = []
        for _ in range(10):
            xi, st = st.draw_block(1)
            singles.append(xi)
        np.testing.assert_array_equal(block, np.vstack(singles))
        assert st.counter == 10

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

    # seeds above 2^53 once lost their low bits in the Philox key
    def test_adjacent_index_seeds_differ(self):
        assert not np.array_equal(uniform_values(2001, 0, 5), uniform_values(2002, 0, 5))

    def test_adjacent_center_seeds_differ(self):
        a = FiniteSumQuadratic.from_seed(3, 4, 1.0, seed=1)
        b = FiniteSumQuadratic.from_seed(3, 4, 1.0, seed=2)
        assert not np.array_equal(a.centers, b.centers)

    def test_adjacent_large_stream_seeds_differ(self, gaussian1d):
        a, _ = gaussian1d.stream(2**60).draw_block(5)
        b, _ = gaussian1d.stream(2**60 + 1).draw_block(5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 2001, 2**60 + 1])
    def test_streams_are_bare_philox_keyed_by_seed_and_kind(self, seed):
        # one key per seed; the stream kind is Philox counter word 3: samples
        # 0, uniform_values 1, from_seed centers 2
        def blocks(kind, first, count):
            bits = np.random.Philox(key=seed + (problems._KEY_SALT << 64),
                                    counter=first + (kind << 192))
            return np.random.Generator(bits).random(4 * count).reshape(count, 4)

        p = GaussianMean(mean=np.zeros(3), sigma=1.0, feasible_set=unconstrained(3))
        _, stream = p.stream(seed).draw_block(2)
        rows, _ = stream.draw_block(5)
        np.testing.assert_array_equal(rows, problems._std_normal(blocks(0, 2, 5)[:, :3]))
        np.testing.assert_array_equal(uniform_values(seed, 4, 6), blocks(1, 4, 6)[:, 0])
        z = problems._std_normal(blocks(2, 0, 6)[:, :3])
        np.testing.assert_array_equal(FiniteSumQuadratic.from_seed(3, 6, 1.0, seed=seed).centers,
                                      z + (np.zeros(3) - z.mean(axis=0)))

    def test_threads_draw_what_one_thread_draws(self, gaussian1d):
        # the reused bit generator is per thread: interleaved draws must not
        # leak state into each other
        expected = [gaussian1d.stream(seed).draw_block(2000)[0] for seed in range(6)]
        got = [None] * 6

        def draw(seed):
            stream, rows = gaussian1d.stream(seed), []
            for _ in range(2000):
                xi, stream = stream.draw_block(1)
                rows.append(xi)
            got[seed] = np.vstack(rows)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for seed in range(6):
            np.testing.assert_array_equal(got[seed], expected[seed])


def _golden_problem(family):
    u = FeasibleSet.unconstrained
    return {
        "gaussian_mean": lambda: GaussianMean(mean=[0.3, -0.2, 0.1], sigma=1.5,
                                              feasible_set=u(3)),
        "ridge": lambda: RidgeRegression(coefficients=[0.5, -0.4, 0.3, 0.1, 0.0],
                                         sigma=1.0, feasible_set=u(5)),
        "lasso": lambda: Lasso(coefficients=[0.5, 0.0, 0.0, -0.2], sigma=0.5,
                               feasible_set=u(4)),
        "soft_svm": lambda: SoftSVM(concept=[2.0, 0.0, 1.0, 0.5]),
        "norm_power": lambda: NormPower(s=2.0, sigma=1.0, dim=10),
        "finite_sum_quadratic": lambda: FiniteSumQuadratic(
            centers=[[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]]),
    }[family]()


# sha256 of the float64 bytes of draw_block(count) after `counter` samples;
# any change to a sample bit of any family fails here.  Ridge and lasso
# responses are one dot product per row (geometry.row_dot), so a row's bits
# do not depend on the block it is drawn in.
_GOLDEN_BLOCKS = {
    ("gaussian_mean", 1, 0, 1): "2fc32736830f3aa9b81de9e248a1010ec992d3c1de7e36d9aaa045a80d2847bf",
    ("gaussian_mean", 2000, 5, 50): "1243950f8554f609334da835d6b4408365f172ab7d5e5aa0e8e41ee7abb2a301",
    ("gaussian_mean", 2**53 - 1, 1000, 17): "3052198824f4c9d2c29e39851d1da6f5bad72355fd5b622b34b4749374d69d82",
    ("ridge", 1, 0, 1): "4036d4d93f3de329ad6c5c2366b67dbecf18041f3a3076baed175aab9bae1487",
    ("ridge", 2000, 5, 50): "a2fa500f38605eed779b0769fab019ea1b243c80e511986888a50a44ec15aa15",
    ("ridge", 2**53 - 1, 1000, 17): "e3066f4e75d92c3ff08f338d27e9905c300a5f691ceedb37465e5df8f34e9534",
    ("lasso", 1, 0, 1): "30722b2b6afea7db9c5f725ef2e549d7008749683e88869bb5135e632de6a9dc",
    ("lasso", 2000, 5, 50): "623395a5e2eae22f877febd6ac8802533a2fe2d8ed1cdfef0bd6e38f47473bd0",
    ("lasso", 2**53 - 1, 1000, 17): "d311430af14a10212ff432035527b256aad84e7c9f579186df2f300ef1ac6ffd",
    ("soft_svm", 1, 0, 1): "8b5bbe2c812f971757459fde959aaeca5247967a347bc09b2b90da763de710f6",
    ("soft_svm", 2000, 5, 50): "b3b92ea7340780050c5e9008f577ef50d72171fb6f9e5fb125e57a4d7d13a77e",
    ("soft_svm", 2**53 - 1, 1000, 17): "74afa2a3641eb2bec65d1dcc931edc5bde8148a4afe2b0e00526e8aaf30d0675",
    ("norm_power", 1, 0, 1): "69f9f745d1d677e437940d1f5481313bbd220c35bf0c43259da9a40a8b72a4ef",
    ("norm_power", 2000, 5, 50): "776f40f6b3687753922d130eec10d485a3daed0cb69cde7374f63f5937b299dc",
    ("norm_power", 2**53 - 1, 1000, 17): "6b0b99d6fb89af69c98389ef88d46863bd532ad6896ad80477b489254a8fe022",
    ("finite_sum_quadratic", 1, 0, 1): "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
    ("finite_sum_quadratic", 2000, 5, 50): "901e08579ef1504e7350344118626080d6e414c5ab92a073eaea0e93deaf4442",
    ("finite_sum_quadratic", 2**53 - 1, 1000, 17): "7649fcee8388dbc3c721901a7940b9571545a98a241658dc1f55792481f366b4",
}


@pytest.mark.parametrize("family, seed, counter, count", sorted(_GOLDEN_BLOCKS))
def test_draw_block_golden_bits(family, seed, counter, count):
    stream = _golden_problem(family).stream(seed)
    if counter:
        _, stream = stream.draw_block(counter)
    rows, stream = stream.draw_block(count)
    digest = hashlib.sha256(np.ascontiguousarray(rows, dtype="<f8").tobytes()).hexdigest()
    assert digest == _GOLDEN_BLOCKS[family, seed, counter, count]
    assert stream.counter == counter + count


# ridge and soft_svm rows are n + 1 wide, gaussian_mean's are n wide, and a
# finite_sum_quadratic row is a centre picked by one uniform
_STORE_PROBLEMS = {
    "ridge": RidgeRegression(coefficients=np.linspace(-0.5, 0.5, 20), sigma=1.0,
                             feasible_set=FeasibleSet.unconstrained(20)),
    "soft_svm": SoftSVM(concept=[2.0, 0.0, 1.0]),
    "gaussian_mean": GaussianMean(mean=[0.3, -0.2], sigma=1.5,
                                  feasible_set=FeasibleSet.unconstrained(2)),
    "finite_sum_quadratic": FiniteSumQuadratic.from_seed(3, 7, 1.0, seed=5),
}


class TestPrefixStore:
    @pytest.mark.parametrize("family", sorted(_STORE_PROBLEMS))
    @settings(max_examples=40, deadline=None)
    @given(calls=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 300)),
                          min_size=1, max_size=10),
           trials=st.integers(1, 3), cap_rows=st.integers(0, 200))
    def test_serves_fresh_draws_bit_for_bit(self, family, calls, trials, cap_rows):
        # any order of counts, repeats included, on both sides of a small cap
        p = _STORE_PROBLEMS[family]
        cap = cap_rows * trials * p.sample_width * 8
        with mock.patch.object(problems, "_PREFIX_BYTES", cap):
            store = PrefixStore(p, trials)
        for t, count in calls:
            stream = p.stream(100 + t)
            rows, end = store.draw(stream, count)
            fresh, fresh_end = stream.draw_block(count)
            assert rows.shape == fresh.shape == (count, p.sample_width)
            assert rows.tobytes() == fresh.tobytes()
            assert end == fresh_end and end.counter == count
            assert not rows.flags.writeable
            if count:
                with pytest.raises(ValueError):
                    rows[0, 0] = 0.0
            held = store._held
            assert len(held) <= trials
            assert sum(a.nbytes for a in held.values()) <= cap
            assert all(a.shape[0] <= cap_rows and not a.flags.writeable
                       for a in held.values())

    @pytest.mark.parametrize("problem", [
        *_STORE_PROBLEMS.values(),
        Lasso(coefficients=np.linspace(-0.5, 0.5, 20), sigma=0.5,
              feasible_set=FeasibleSet.unconstrained(20)),
        SoftSVM(concept=np.linspace(0.1, 1.0, 10)),
        NormPower(s=1.5, sigma=1.0, dim=10),
    ], ids=lambda p: f"{p.family}-{p.sample_width}")
    def test_a_sample_is_a_function_of_seed_and_index(self, problem):
        # what makes the store exact: row i is the same in every block that
        # holds it, whatever the block's start and length
        for seed in range(8):
            full, _ = problem.stream(seed).draw_block(300)
            for n in (1, 2, 3, 5, 17, 64, 255):
                head, stream = problem.stream(seed).draw_block(n)
                tail, _ = stream.draw_block(300 - n)
                assert head.tobytes() == full[:n].tobytes()
                assert tail.tobytes() == full[n:].tobytes()

    def test_later_draws_come_from_the_store(self, monkeypatch):
        p = _STORE_PROBLEMS["ridge"]
        store = PrefixStore(p, 1)
        store.draw(p.stream(7), 40)
        drawn = []
        draw_block = problems.SampleStream.draw_block
        monkeypatch.setattr(problems.SampleStream, "draw_block", lambda self, count: (
            drawn.append((self.counter, count)) or draw_block(self, count)))
        store.draw(p.stream(7), 25)
        store.draw(p.stream(7), 60)
        assert drawn == [(40, 20)]

    def test_other_streams_are_drawn_directly(self):
        p, q = _STORE_PROBLEMS["ridge"], _STORE_PROBLEMS["soft_svm"]
        store = PrefixStore(p, 2)
        _, advanced = p.stream(3).draw_block(5)
        for stream in (advanced, q.stream(3)):
            rows, end = store.draw(stream, 10)
            fresh, fresh_end = stream.draw_block(10)
            assert rows.tobytes() == fresh.tobytes() and end == fresh_end
        assert store._held == {}

    def test_rejects_no_trials(self):
        with pytest.raises(InputError):
            PrefixStore(_STORE_PROBLEMS["ridge"], 0)


def _loop_gram(rows):
    """block_gram's reference: each 64-row block's sum of outer products,
    added left to right to a zero start."""
    total = np.zeros((rows.shape[1], rows.shape[1]))
    for i in range(0, rows.shape[0], 64):
        total = total + sum((np.outer(r, r) for r in rows[i:i + 64]), np.zeros_like(total))
    return total


class TestGramStore:
    PROBLEM = _STORE_PROBLEMS["ridge"]

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 200])
    def test_block_gram_is_the_blockwise_sum(self, count):
        rows, _ = self.PROBLEM.stream(3).draw_block(count)
        got = problems.block_gram(rows)
        np.testing.assert_allclose(got, _loop_gram(rows), rtol=1e-13, atol=1e-12)
        np.testing.assert_allclose(got, rows.T @ rows, rtol=1e-13, atol=1e-12)
        cut = count // 64 * 64
        resumed = problems.block_gram(rows[cut:], problems.block_gram(rows[:cut]))
        assert resumed.tobytes() == got.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(calls=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 300)),
                          min_size=1, max_size=10),
           trials=st.integers(1, 3), hold=st.booleans())
    def test_serves_block_gram_of_fresh_draws_bit_for_bit(self, calls, trials, hold):
        # any order of counts, repeats included, with sums held or not
        p = self.PROBLEM
        cap = 2 * trials * p.sample_width ** 2 * 8 - (0 if hold else 1)
        with mock.patch.object(problems, "_PREFIX_BYTES", cap):
            store = PrefixStore(p, trials)
        for t, count in calls:
            stream = p.stream(100 + t)
            total, end = store.gram(stream, count)
            fresh, fresh_end = stream.draw_block(count)
            assert total.tobytes() == problems.block_gram(fresh).tobytes()
            assert end == fresh_end and end.counter == count
            held = store._sums
            assert len(held) <= trials and (hold or not held) and not store._held
            for by in held.values():
                assert 1 <= len(by) <= 2 and all(m > 0 and m % 64 == 0 for m in by)
                assert not any(a.flags.writeable for a in by.values())

    def test_later_grams_draw_only_past_the_nearest_held_boundary(self, monkeypatch):
        p = self.PROBLEM
        store = PrefixStore(p, 1)
        store.gram(p.stream(7), 300)  # holds the sum at 256
        drawn = []
        draw_block = problems.SampleStream.draw_block
        monkeypatch.setattr(problems.SampleStream, "draw_block", lambda self, count: (
            drawn.append((self.counter, count)) or draw_block(self, count)))
        for count in (100, 200, 260, 130, 40):
            store.gram(p.stream(7), count)
        # each call keeps the boundary it extended from and the one it
        # reached: 100 extends from 0 to 64 (dropping 256), 200 from 64 to
        # 192, 260 from 192 to 256 (dropping 64), so 130 starts at 0 again
        # and reaches 128; 40 reaches no boundary and keeps the sums
        assert drawn == [(0, 100), (64, 136), (192, 68), (0, 130), (0, 40)]
        assert sorted(store._sums[p.stream(7).base_seed]) == [128]

    def test_other_streams_are_summed_directly(self):
        p, q = self.PROBLEM, _STORE_PROBLEMS["soft_svm"]
        store = PrefixStore(p, 2)
        _, advanced = p.stream(3).draw_block(5)
        for stream in (advanced, q.stream(3)):
            total, end = store.gram(stream, 70)
            fresh, fresh_end = stream.draw_block(70)
            assert total.tobytes() == problems.block_gram(fresh).tobytes()
            assert end == fresh_end
        assert store._sums == {}


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

    def test_norm_power_s2_gradient_matches_masked_power(self):
        # s = 2 skips the factor s ||x||^(s-2); the bits must be the general path's
        p = NormPower(s=2.0, sigma=1.0, dim=3)
        x = np.array([[0.3, -0.4, 1e-300], [0.0, -0.0, 0.0], [np.inf, 1.0, -2.0],
                      [-np.inf, np.inf, 0.5], [np.nan] * 3, [1e200, -3e199, 7.0]])
        nx = np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
        coef = np.power(nx, 0.0, out=np.zeros_like(nx), where=nx > 0.0)
        assert p._norm_grad(x).tobytes() == ((2.0 * coef) * x).tobytes()

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


class TestPointLayout:
    def test_strided_soft_svm_point_grades_like_its_copy(self):
        # rows of a Fortran-ordered block are strided views; BLAS rounds
        # strided and contiguous dot products differently
        p = SoftSVM(concept=2.0 * np.ones(10) / math.sqrt(10.0))
        block = np.asfortranarray((uniform_values(5, 0, 640).reshape(64, 10) - 0.5) * 0.6)
        for row in block:
            assert not row.flags.c_contiguous
            assert p.population_gap(row) == p.population_gap(row.copy())


class TestConstants:
    def test_gaussian_strongly_convex(self, gaussian1d):
        assert gaussian1d.constants().mu_p == 2.0

    def test_norm_power_constants(self):
        for s in (1.0, 2.0, 3.0):
            c = NormPower(s=s, sigma=0.7, dim=6).constants()
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

    @pytest.mark.parametrize("concept", [0.0, [0.0, 0.0, 0.0]])
    def test_soft_svm_needs_a_concept(self, concept):
        # a zero concept makes labels independent of the covariates
        with pytest.raises(InputError, match="nonzero concept"):
            SoftSVM(concept=concept)

    def test_lasso_family_tag(self):
        p = Lasso(coefficients=[1.0, 0.0], sigma=0.1, feasible_set=unconstrained(2))
        assert p.family == "lasso"

    @pytest.mark.parametrize("n_terms", [-1, 0])
    def test_from_seed_needs_a_term(self, n_terms):
        with pytest.raises(InputError, match="n_terms must be >= 1"):
            FiniteSumQuadratic.from_seed(3, n_terms, 1.0, seed=1)

    def test_from_seed_centers_hit_requested_mean(self):
        p = FiniteSumQuadratic.from_seed(3, 10, 2.0, seed=9, mean=[1.0, 2.0, 3.0])
        np.testing.assert_allclose(p.x_star, [1.0, 2.0, 3.0], atol=1e-12)


# a centred unit ball and an off-centre ball of radius 1.6 per dimension
SVM_CASES = [(n, ball) for n in (1, 2, 3, 10) for ball in ("centred", "off_centre")]


def _svm_args(n, ball):
    """(concept, feasible set) of an SVM_CASES problem; None is the unit ball."""
    rng = np.random.default_rng(100 + n)
    concept = rng.normal(size=n)
    concept *= 1.7 / np.linalg.norm(concept)
    if ball == "centred":
        return concept, None
    return concept, FeasibleSet.l2_ball(n, 1.6, center=0.5 * rng.normal(size=n))


@functools.lru_cache(maxsize=None)
def _svm_problem(n, ball):
    return SoftSVM(*_svm_args(n, ball))


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


class TestSoftSvmMinimizer:
    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_off_centre_build_is_one_search(self, n, monkeypatch):
        # one golden section over alpha: the nested search took 2,127 calls
        calls = []
        objective = problems._svm_objective

        def counting(*args, **kwargs):
            calls.append(1)
            return objective(*args, **kwargs)

        monkeypatch.setattr(problems, "_svm_objective", counting)
        SoftSVM(*_svm_args(n, "off_centre"))
        assert len(calls) <= 60

    def test_objective_nondecreasing_off_axis(self):
        # F is convex and even in beta, so nondecreasing in beta >= 0: the
        # fact that puts each chord's minimum at the point nearest the axis
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.choice([2, 3, 4, 5, 10]))
            alpha, kappa = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 3.0)
            lo, hi = np.sort(rng.uniform(0.0, 2.0, size=2))
            f_lo = problems._svm_objective(alpha, lo, kappa, n)
            f_hi = problems._svm_objective(alpha, hi, kappa, n)
            assert f_lo <= f_hi + 1e-12, (n, alpha, kappa, lo, hi)

    @pytest.mark.parametrize("n,ball", SVM_CASES)
    def test_agrees_with_nested_search(self, n, ball):
        p = _svm_problem(n, ball)
        ref = nested_svm_minimizer(p)
        if ball == "centred":
            # on the concept axis the search is the nested one's inner search
            assert p.x_star.tobytes() == ref.tobytes()
        else:
            assert p.population_value(p.x_star) <= p.population_value(ref) + 1e-12
            assert np.linalg.norm(p.x_star - ref) <= 1e-6
