"""Acceptance suite: one test per headline criterion, stated tolerances.

Every test prints a single `ACCEPTANCE <id> ... PASS/FAIL` line (run pytest
with -s to watch them stream).  All randomness is Philox-seeded, so each
verdict is reproducible bit-for-bit.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from sastra.geometry import FeasibleSet, contains, mirror_step, project
from sastra.harness import (
    ErmSolver,
    RestartSolver,
    SgdSolver,
    fit_rate,
    measure_curve,
    run_trials,
    success_probability,
)
from sastra.problems import (
    FiniteSumQuadratic,
    GaussianMean,
    NormPower,
    SoftSVM,
    uniform_values,
)
from sastra.sa_solvers import (
    ConstantHorizon,
    InverseStrong,
    batched_accelerated_run,
    sgd_run,
)
from sastra import saa_solvers as saa
from sastra.sliding import SlidingParams, sliding_run

from reference import accelerated_reference_run


def verdict(ident, ok, detail):
    line = f"ACCEPTANCE {ident}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def median_gap_slope(solver, problem, n_grid, seeds, base_seed):
    medians = []
    for n in n_grid:
        res = run_trials(solver, problem, n, seeds, base_seed)
        gaps = [r.gap for r in res if not r.failed]
        assert len(gaps) == seeds
        medians.append(float(np.median(gaps)))
    slope, _, _ = fit_rate(list(zip(n_grid, medians)))
    return slope, medians


def test_01_sample_mean_identity():
    t0 = time.perf_counter()
    p = GaussianMean(mean=[0.7], sigma=1.0,
                     feasible_set=FeasibleSet.unconstrained(1))
    n = 10_000
    rows, _ = p.stream(31).draw_block(n)
    trace, _ = sgd_run(p, InverseStrong(2.0), n, [p.stream(31)], [0.0])
    err = abs(trace.final_point[0, 0] - rows.mean())
    verdict("01 sample-mean identity", err <= 1e-12,
            f"|x_N+1 - mean| = {err:.2e} <= 1e-12, {time.perf_counter()-t0:.1f}s")


def test_02_convex_online_rate():
    t0 = time.perf_counter()
    p = SoftSVM(concept=2.0 * np.ones(10) / math.sqrt(10.0))
    solver = SgdSolver(schedule="constant", start="center")
    slope, medians = median_gap_slope(solver, p, [100, 1000, 10_000, 100_000],
                                      seeds=50, base_seed=2_000)
    ok = -0.65 <= slope <= -0.35
    verdict("02 convex online rate", ok,
            f"slope {slope:.3f} in [-0.65,-0.35], medians {['%.4f' % m for m in medians]}, "
            f"{time.perf_counter()-t0:.0f}s")


def test_03_strongly_convex_online_rate():
    t0 = time.perf_counter()
    p = GaussianMean(mean=[0.5], sigma=1.0,
                     feasible_set=FeasibleSet.unconstrained(1))
    solver = SgdSolver(schedule="inverse_strong", start="center")
    slope, medians = median_gap_slope(solver, p, [100, 1000, 10_000, 100_000],
                                      seeds=50, base_seed=3_000)
    ok = -1.2 <= slope <= -0.8
    verdict("03 strongly convex online rate", ok,
            f"slope {slope:.3f} in [-1.2,-0.8], {time.perf_counter()-t0:.0f}s")


def test_04_growth_restart_complexity():
    t0 = time.perf_counter()
    eps_list = [0.2, 0.1, 0.05, 0.025]
    # per-s instances; stage-size multipliers are the exposed schedule
    # constants, calibrated once so a stage delivers its contractual halving
    configs = {
        1.0: dict(sigma=0.5, n=5, ball=4.0, mult=96.0, band=(-0.15, 0.15)),
        2.0: dict(sigma=1.0, n=10, ball=1.0, mult=1.0, band=(0.75, 1.25)),
        3.0: dict(sigma=1.0, n=20, ball=1.0, mult=1.0, band=(4.0 / 3 - 0.25, 4.0 / 3 + 0.25)),
    }
    details = []
    ok = True
    for s, c in configs.items():
        p = NormPower(s=s, sigma=c["sigma"], dim=c["n"],
                      feasible_set=FeasibleSet.l2_ball(c["n"], c["ball"]))
        solver = RestartSolver(beta=0.3, multiplier=c["mult"], start="boundary")
        curve = measure_curve(solver, p, eps_list, beta=0.3, trials=50,
                              max_n=1_000_000, base_seed=40_000)
        exponent = -curve.slope
        lo, hi = c["band"]
        ok = ok and (lo <= exponent <= hi)
        details.append(f"s={s:g}: {exponent:.3f} in [{lo:.2f},{hi:.2f}]")
    verdict("04 s-growth restart exponents", ok,
            "; ".join(details) + f", {time.perf_counter()-t0:.0f}s")


def test_05_erm_closed_form_agreement():
    t0 = time.perf_counter()
    u = uniform_values(77, 0, 600)
    worst = 0.0
    checked = 0
    i = 0
    while checked < 50:
        s = 1.25 + 1.75 * u[3 * i]
        boundary = u[3 * i + 1] < 0.5
        seed = int(u[3 * i + 2] * 1e6)
        i += 1
        n_dim, n_samp, sigma = (3, 6, 3.0) if boundary else (3, 40, 0.5)
        p = NormPower(s=float(s), sigma=sigma, dim=n_dim)
        emp, _ = saa.build_empirical(p, n_samp, p.stream(seed))
        norm = float(np.linalg.norm(emp.samples.mean(axis=0)))
        if abs(norm - 1.0) < 0.15:
            continue  # skip the measure-zero boundary band where both
            # branches coincide and curvature degenerates
        cf = saa.norm_power_erm_closed_form(emp)
        res = saa.solve_erm(emp, 1e-13, budget=60_000)
        worst = max(worst, float(np.linalg.norm(res.point - cf)))
        checked += 1
    verdict("05 closed-form ERM agreement", worst <= 1e-6,
            f"worst distance {worst:.2e} <= 1e-6 over 50 instances, "
            f"{time.perf_counter()-t0:.0f}s")


def test_06_saa_lower_bound_direction():
    t0 = time.perf_counter()
    n_dim, sigma, eps = 20, 1.0, 0.1
    p = NormPower(s=2.0, sigma=sigma, dim=n_dim)
    n_samples = int(0.5 * n_dim * sigma**2 / eps)
    assert n_samples == 100
    res = run_trials(ErmSolver(), p, n_samples, 200, 6_000)
    frac, (lo, hi) = success_probability(res, eps)
    verdict("06 SAA lower-bound direction", frac < 0.7,
            f"P(gap <= {eps}) = {frac:.3f} < 0.7 at N = {n_samples} "
            f"(95% CI [{lo:.3f},{hi:.3f}]), {time.perf_counter()-t0:.0f}s")


def test_07_tikhonov_pipeline():
    t0 = time.perf_counter()
    eps, beta = 0.1, 0.1
    p = GaussianMean(mean=[0.3], sigma=1.0,
                     feasible_set=FeasibleSet.l2_ball(1, 1.0))
    c = p.constants()
    r2 = 1.0
    # sample size from the regularized-ERM bound, constants set to one
    n = math.ceil((c.M_p**2 * r2**2 / eps**2)
                  * math.log(math.log(c.M_p * r2 / eps) / beta))
    successes = 0
    uncertified = 0
    for t in range(1, 201):
        res, _ = saa.regularized_pipeline(p, eps, n, p.stream(7_000 + t))
        if not res.certified:
            uncertified += 1
        if p.population_gap(res.point) <= eps:
            successes += 1
    verdict("07 Tikhonov pipeline", successes >= 180 and uncertified == 0,
            f"{successes}/200 trials reached gap <= {eps} at N = {n}, "
            f"{uncertified} uncertified, {time.perf_counter()-t0:.0f}s")


def test_08_interpolation_linear_rate():
    t0 = time.perf_counter()
    scales = np.array([1.0, 2.0, 4.0])
    p = FiniteSumQuadratic.interpolating([0.4, -0.2, 1.0], n_terms=8,
                                         scales=scales)
    c = p.constants()
    assert c.sigma_star_sq == 0.0
    gamma = 1.0 / (2.0 * c.L)
    bound = (1.0 - gamma * c.mu_p) + 0.02
    schedule = ConstantHorizon(R=gamma, M=1.0, N=1)  # constant step gamma
    x = np.array([2.0, 2.0, 2.0])
    stream = p.stream(9)
    dists = [float(np.linalg.norm(x - p.x_star) ** 2)]
    worst_factor = 0.0
    for _ in range(120):
        trace, (stream,) = sgd_run(p, schedule, 1, [stream], x)
        x = trace.final_point[0]
        d = float(np.linalg.norm(x - p.x_star) ** 2)
        if dists[-1] > 1e-20:
            worst_factor = max(worst_factor, d / dists[-1])
        dists.append(d)
    logs = np.log(np.array(dists[:80]))
    ks = np.arange(80)
    slope, intercept = np.polyfit(ks, logs, 1)
    resid = float(np.sqrt(np.mean((logs - slope * ks - intercept) ** 2)))
    ok = worst_factor <= bound and resid < 0.5
    verdict("08 interpolation linear rate", ok,
            f"max per-step factor {worst_factor:.4f} <= {bound:.4f}, "
            f"log-linear residual {resid:.3f}, {time.perf_counter()-t0:.1f}s")


def test_09_vr_identity_and_scaling():
    t0 = time.perf_counter()
    # exact unbiasedness of the control-variate gradient
    p0 = FiniteSumQuadratic.from_seed(4, 24, 1.0, seed=3, scales=[1.0, 2.0, 4.0, 8.0])
    emp0, _ = saa.build_empirical(p0, 24, p0.stream(5))
    state = saa.VRState.at(emp0, np.array([0.5, -0.5, 0.2, 0.0]))
    x = np.array([-0.1, 0.3, 0.0, 0.7])
    mean = np.mean([saa.vr_gradient(state, emp0, x, t) for t in range(24)], axis=0)
    identity_err = float(np.max(np.abs(mean - emp0.gradient(x))))

    def epochs_for(kappa):
        scales = np.concatenate([[1.0], np.full(7, float(kappa))])
        p = FiniteSumQuadratic.from_seed(8, 200, 1.0, seed=17, scales=scales)
        emp, _ = saa.build_empirical(p, 200, p.stream(18))
        r = saa.vr_solve(emp, 1e-8, 2000, p.stream(19))
        assert r.certified
        return r.epochs

    e50, e100 = epochs_for(50), epochs_for(100)
    ratio = e100 / e50
    ok = identity_err <= 1e-12 and ratio <= 1.5
    verdict("09 VR identity and epoch scaling", ok,
            f"identity err {identity_err:.1e} <= 1e-12; epochs {e50} -> {e100} "
            f"(x{ratio:.2f} <= 1.5), {time.perf_counter()-t0:.0f}s")


def test_10_batched_accelerated_scaling():
    t0 = time.perf_counter()
    p = GaussianMean(mean=[0.0, 0.0], sigma=0.01,
                     feasible_set=FeasibleSet.unconstrained(2))
    x0 = np.array([1.0, 0.0])
    eps = 0.02
    out = {}
    for e in (eps, eps / 4):
        trace, _ = batched_accelerated_run(p, e, [p.stream(11)], x0, 1.0)
        gap = p.population_gap(trace.final_point[0])
        out[e] = (trace.iterations, trace.oracle_calls, gap)
    n1, t1, g1 = out[eps]
    n2, t2, g2 = out[eps / 4]
    n_ratio, t_ratio = n2 / n1, t2 / t1
    ok = (2 / 1.3 <= n_ratio <= 2 * 1.3) and (4 / 1.5 <= t_ratio <= 4 * 1.5) \
        and g1 <= eps and g2 <= eps / 4
    verdict("10 batched accelerated scaling", ok,
            f"quartering eps: N x{n_ratio:.2f} (target 2 +-30%), "
            f"N*r x{t_ratio:.2f} (target 4 +-50%), gaps {g1:.1e},{g2:.1e}, "
            f"{time.perf_counter()-t0:.1f}s")


def test_11_sliding_reduction_and_split():
    t0 = time.perf_counter()
    n = 12

    def quad(eigs, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return q @ np.diag(eigs) @ q.T, rng.normal(size=n)

    # degenerate mode: h = 0 run is bit-identical to the standalone method
    ag0, bg0 = quad(np.linspace(0.05, 1.0, n), 5)
    grad_g0 = lambda x: ag0 @ x + bg0
    x0 = np.ones(n)
    a = sliding_run(grad_g0, None, SlidingParams(L_g=1.0, L_h=1.0, mu=0.05),
                    x0, 1e-12, 20_000)
    b = accelerated_reference_run(grad_g0, 1.0, 0.05, x0, 1e-12, 20_000)
    identical = np.array_equal(a.point, b.point) and a.certified

    # split accounting at L_h / L_g = 100
    ag, bg = quad(np.linspace(-0.2, 1.0, n), 1)  # g nonconvex, L_g = 1
    ah, bh = quad(np.linspace(0.4, 100.0, n), 2)
    mu = float(np.linalg.eigvalsh(ag + ah).min())
    grad_g = lambda x: ag @ x + bg
    grad_h = lambda x: ah @ x + bh
    params = SlidingParams(L_g=1.0, L_h=100.0, mu=mu)
    ratios = []
    for eps in (1e-2, 1e-4, 1e-6):
        res = sliding_run(grad_g, grad_h, params, np.zeros(n), eps, 100_000)
        assert res.certified
        ratios.append(res.ledger.grad_h_calls / res.ledger.grad_g_calls)
    target = math.sqrt(100.0)
    split_ok = all(target / 3 <= r <= target * 3 for r in ratios)
    verdict("11 sliding reduction and split", identical and split_ok,
            f"bit-identical={identical}; call ratios {['%.1f' % r for r in ratios]} "
            f"track sqrt(100)=10 within 3x, {time.perf_counter()-t0:.1f}s")


def test_12_geometry_property_suite():
    t0 = time.perf_counter()
    cases = 10_000
    u = uniform_values(99, 0, cases * 6).reshape(cases, 6) * 6.0 - 3.0
    failures = 0
    sets = [FeasibleSet.l2_ball(3, 1.2), FeasibleSet.l1_ball(3, 1.0),
            FeasibleSet.simplex(3)]
    for i in range(cases):
        s = sets[i % 3]
        x, y = u[i, :3], u[i, 3:]
        px, py = project(s, x), project(s, y)
        if np.linalg.norm(px - py) > np.linalg.norm(x - y) + 1e-9:
            failures += 1
        if np.linalg.norm(project(s, px) - px) > 1e-12:
            failures += 1
        if not contains(s, px, 1e-10):
            failures += 1
    # simplex normalization under entropic steps
    sx = FeasibleSet.simplex(4)
    w = uniform_values(101, 0, cases * 4).reshape(cases, 4)
    x = np.full(4, 0.25)
    for i in range(cases):
        x = mirror_step(sx, x, w[i] * 4.0 - 2.0, 0.3)
        if abs(float(x.sum()) - 1.0) > 1e-12 or np.any(x < 0):
            failures += 1
    verdict("12 geometry property suite", failures == 0,
            f"{failures} failures over {cases} cases x 4 properties, "
            f"{time.perf_counter()-t0:.0f}s")


def test_13_exact_erm_sample_complexity():
    """The search against a known answer.  On gaussian_mean over free space the
    ERM gap ||x_bar - mu||^2 is sigma^2 chi^2_n / N, so the true sample
    complexity is N*(eps, beta) = ceil(sigma^2 chi^2_{n,1-beta} / eps): 59,
    118, 236 and 472 here, with exponent 1.

    The bands come from the exact law, not from this seed: the doubling and
    bisection of measure_curve (warm starts, _RESOLUTION 1.1, 50 trials on
    common seeds) replayed on the running means of 50 x 4096 standard normal
    rows in R^10 from numpy's default_rng(seed), seeds 0-1999, no sastra
    code.  Replayed on sastra's own rows the replay gives measure_curve's N
    exactly.  Over the 2000 curves N_hat/N* ranged 0.763-1.419 (0.1% and
    99.9% quantiles 0.797 and 1.301, median 1.00) and the exponent 0.824-1.176
    (mean 1.001, sd 0.054).  The bands hold every one of the 2000.
    """
    t0 = time.perf_counter()
    n, beta, eps_list = 10, 0.3, [0.2, 0.1, 0.05, 0.025]
    p = GaussianMean(mean=np.zeros(n), sigma=1.0, feasible_set=FeasibleSet.unconstrained(n))
    curve = measure_curve(ErmSolver(), p, eps_list, beta=beta, trials=50,
                          max_n=1_000_000, base_seed=13_000)
    n_star = [math.ceil(chi2.ppf(1.0 - beta, n) / eps) for eps in eps_list]
    ratios = [pt.n / ns for pt, ns in zip(curve.points, n_star)]
    exponent = -curve.slope
    ok = all(0.75 <= r <= 1.45 for r in ratios) and 0.8 <= exponent <= 1.2
    verdict("13 exact ERM sample complexity", ok,
            f"N/N* {['%.3f' % r for r in ratios]} in [0.75,1.45] for N* = {n_star}, "
            f"exponent {exponent:.3f} in [0.80,1.20], {time.perf_counter()-t0:.0f}s")


def _tail_average_variance(n_samples):
    """c_N = sum_j w_j^2: sgd under inverse_strong makes x^{k+1} the mean of
    the first k samples (test_01), so the tail-half average of x^{N-m+1} ..
    x^N, m = ceil(N/2), weighs sample j by w_j = (1/m) sum_{k=max(j,N-m)}^{N-1} 1/k."""
    m = (n_samples + 1) // 2
    k = np.arange(n_samples - m, n_samples)
    weights = np.cumsum((1.0 / k)[::-1])[::-1] / m  # w_j for j = N-m .. N-1
    return float(np.sum(weights * weights) + (n_samples - m - 1) * weights[0] ** 2)


def test_14_exact_sa_sample_complexity():
    """The SA search against a known answer.  On gaussian_mean over free space
    the tail-half average of sgd under inverse_strong is mu + sigma sum_j w_j z_j,
    so its gap is sigma^2 c_N chi^2_n (N c_N = 1.3157, 1.2352, 1.2282 and
    1.2275 at N = 10, 100, 1000 and 10^4) and the true sample complexity is
    N*_SA(eps, beta) = min{N : sigma^2 c_N chi^2_{n,1-beta} <= eps}: 74, 146,
    290 and 580 here, against test_13's N*_SAA = 59, 118, 236 and 472.  The
    ratio tends to 1.227.  The start, the origin, is at distance sqrt(n) from
    the mean, so N = 1 (whose window is the start alone) fails.

    The bands come from the exact law, not from this seed, as test_13's did:
    the doubling and bisection of measure_curve replayed on the exact gaps
    of the tail-half averages of 50 x 4096 standard normal rows in R^10 from
    numpy's default_rng(seed), seeds 0-1999, no sastra code.  Replayed on
    sastra's own rows the replay gives measure_curve's N exactly (base seeds
    500, 777, 14000 and 20000).  Over the 2000 curves N_hat/N*_SA ranged
    0.740-1.362 (0.1% and 99.9% quantiles 0.801 and 1.338, median 1.041) and
    the exponent 0.824-1.174 (mean 0.997, sd 0.054).  The bands hold every
    one of the 2000.
    """
    t0 = time.perf_counter()
    n, beta, eps_list = 10, 0.3, [0.2, 0.1, 0.05, 0.025]
    p = GaussianMean(mean=np.ones(n), sigma=1.0, feasible_set=FeasibleSet.unconstrained(n))
    curve = measure_curve(SgdSolver("inverse_strong"), p, eps_list, beta=beta, trials=50,
                          max_n=1_000_000, base_seed=14_000)
    q = chi2.ppf(1.0 - beta, n)
    n_star = []
    for eps in eps_list:
        size = 2
        while _tail_average_variance(size) * q > eps:
            size += 1
        n_star.append(size)
    sa_over_saa = [ns / math.ceil(q / eps) for ns, eps in zip(n_star, eps_list)]
    ratios = [pt.n / ns for pt, ns in zip(curve.points, n_star)]
    exponent = -curve.slope
    ok = all(0.70 <= r <= 1.40 for r in ratios) and 0.8 <= exponent <= 1.2
    verdict("14 exact SA sample complexity", ok,
            f"N/N* {['%.3f' % r for r in ratios]} in [0.70,1.40] for N*_SA = {n_star}, "
            f"exponent {exponent:.3f} in [0.80,1.20]; N*_SA/N*_SAA "
            f"{['%.3f' % r for r in sa_over_saa]} (limit 1.227), {time.perf_counter()-t0:.0f}s")
