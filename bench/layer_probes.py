"""Fixed-size layer probes: direct, timed calls to public functions no workload reaches.

Each probe times one public function at a fixed size and reports the median
of several repeats, under the name of the layer metric it feeds:

- ``problems.draw_us.<family>``: ``SampleStream.draw_block`` per row and
  ``problems.subgrad_us.<family>``: ``loss_subgradient`` per call, for all six
  families at n = 10;
- ``geometry.project_us.<set>`` and ``geometry.mirror_step_us.<set>`` per call
  for the four set kinds at n = 10;
- ``saa_solvers.vr_solve.ms_per_epoch`` on a conditioned finite sum;
- ``sliding.sliding_run.ms`` and ``sliding.grad_h_per_grad_g`` on test_11's
  quadratic pair (L_h / L_g = 100); the call ratio is a count and repeats exactly.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

DIM = 10
REPEATS = 5


def _median_time(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _families(sastra):
    p, FS = sastra.problems, sastra.geometry.FeasibleSet
    concept = np.full(DIM, 1.0 / math.sqrt(DIM))
    return {
        "gaussian_mean": p.GaussianMean(mean=np.zeros(DIM), sigma=1.0,
                                        feasible_set=FS.unconstrained(DIM)),
        "ridge": p.RidgeRegression(coefficients=concept, sigma=1.0,
                                   feasible_set=FS.unconstrained(DIM)),
        "lasso": p.Lasso(coefficients=concept, sigma=1.0, feasible_set=FS.unconstrained(DIM)),
        # draws and subgradients never touch the lazily built reference pool
        "soft_svm": p.SoftSVM(concept=2.0 * concept),
        "norm_power": p.NormPower(s=2.0, sigma=1.0, dim=DIM),
        "finite_sum_quadratic": p.FiniteSumQuadratic.from_seed(DIM, 16, 1.0, seed=0),
    }


def probe_problems(sastra) -> dict:
    out = {}
    rows_per_draw, subgrad_calls = 4096, 2000
    x = np.full(DIM, 0.1)
    for family, problem in _families(sastra).items():
        stream = problem.stream(7)
        t = _median_time(lambda: stream.draw_block(rows_per_draw))
        out[f"problems.draw_us.{family}"] = t / rows_per_draw * 1e6
        rows, _ = stream.draw_block(subgrad_calls)

        def subgrads():
            for xi in rows:
                problem.loss_subgradient(x, xi)

        out[f"problems.subgrad_us.{family}"] = _median_time(subgrads) / subgrad_calls * 1e6
    return out


def probe_geometry(sastra) -> dict:
    g = sastra.geometry
    FS = g.FeasibleSet
    sets = {
        "unconstrained": FS.unconstrained(DIM),
        "l2_ball": FS.l2_ball(DIM, 1.0),
        "l1_ball": FS.l1_ball(DIM, 1.0),
        "simplex": FS.simplex(DIM),
    }
    calls = 2000
    u = sastra.problems.uniform_values(11, 0, calls * DIM).reshape(calls, DIM)
    outside = 3.0 * u - 1.0  # mostly outside the bounded sets, so projections do work
    grads = 2.0 * u - 1.0
    out = {}
    for kind, set_ in sets.items():
        def projections():
            for v in outside:
                g.project(set_, v)

        x = np.full(DIM, 1.0 / DIM) if kind == "simplex" else np.zeros(DIM)

        def steps():
            for v in grads:
                g.mirror_step(set_, x, v, 0.1)

        out[f"geometry.project_us.{kind}"] = _median_time(projections) / calls * 1e6
        out[f"geometry.mirror_step_us.{kind}"] = _median_time(steps) / calls * 1e6
    return out


def probe_vr(sastra) -> dict:
    p, saa = sastra.problems, sastra.saa_solvers
    scales = np.concatenate([[1.0], np.full(DIM - 1, 20.0)])
    problem = p.FiniteSumQuadratic.from_seed(DIM, 200, 1.0, seed=17, scales=scales)
    emp, _ = saa.build_empirical(problem, 200, problem.stream(18))
    epochs = 4
    # target 0 is never certified, so every call runs exactly `epochs` epochs
    t = _median_time(lambda: saa.vr_solve(emp, 0.0, epochs, problem.stream(19)), repeats=3)
    return {"saa_solvers.vr_solve.ms_per_epoch": t / epochs * 1e3}


def probe_sliding(sastra) -> dict:
    sl = sastra.sliding
    n = 12

    def quad(eigs, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return q @ np.diag(eigs) @ q.T, rng.normal(size=n)

    ag, bg = quad(np.linspace(-0.2, 1.0, n), 1)  # g nonconvex, L_g = 1
    ah, bh = quad(np.linspace(0.4, 100.0, n), 2)
    mu = float(np.linalg.eigvalsh(ag + ah).min())
    params = sl.SlidingParams(L_g=1.0, L_h=100.0, mu=mu)
    results = []

    def run():
        results.append(sl.sliding_run(lambda x: ag @ x + bg, lambda x: ah @ x + bh,
                                      params, np.zeros(n), 1e-6, 100_000))

    t = _median_time(run, repeats=3)
    ledger = results[-1].ledger
    return {
        "sliding.sliding_run.ms": t * 1e3,
        "sliding.grad_h_per_grad_g": ledger.grad_h_calls / ledger.grad_g_calls,
    }


def run_all(sastra) -> dict:
    out = {}
    for probe in (probe_problems, probe_geometry, probe_vr, probe_sliding):
        out.update(probe(sastra))
    return out
