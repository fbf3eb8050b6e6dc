"""Config-driven command line: run / complexity / curve / verify.

Config files are flat sectioned key=value text (INI syntax) with three
sections: [problem], [solver], [experiment].  [solver] names the algorithm
and, where the algorithm has one, its schedule, restart multiplier and start
point; every other solver parameter follows from the problem, the target
epsilon and [experiment] beta.  Parsing validates every key and reports all
problems at once; an unknown key is an error naming that key, and so is a
[problem] key that the built problem would not read.
The `sastra` entry point exposes one subcommand per experiment mode plus a
built-in invariant suite; `--strict` turns flagged results (saturated
searches, failed trials) into a nonzero exit status.
"""

from __future__ import annotations

import argparse
import math
import sys
from configparser import ConfigParser
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, SastraError
from .geometry import FeasibleSet
from . import harness, problems, saa_solvers as saa

__all__ = ["ExperimentConfig", "parse_config", "dispatch", "main"]

_MODES = ("single-run", "sample-complexity", "rate-curve", "verify")
_ALGORITHMS = ("sgd", "restart", "erm", "regularized_erm", "vr_erm", "batched_accel")
_SCHEDULES = ("constant", "inverse_strong", "decreasing", "adagrad")
_SETS = ("unconstrained", "l2_ball", "l1_ball", "simplex")
_FAMILIES = tuple(problems._FAMILIES)

# key -> (type tag, default) ; None default means "absent unless given"
_PROBLEM_KEYS = {
    "family": ("str", None),
    "dimension": ("int", None),
    "sigma": ("float", 1.0),
    "s": ("float", 2.0),
    "x_star": ("floats", None),
    "set": ("str", None),
    "radius": ("float", 1.0),
    "center": ("floats", None),
    "n_terms": ("int", 16),
    "spread": ("float", 1.0),
    "scales": ("floats", None),
    # accepted for old configs; soft_svm ground truth is exact and ignores them
    "pool_size": ("int", 1_000_000),
    "pool_seed": ("int", 2024),
    "seed": ("int", 0),
}
# [problem] keys that only some families read; any other family rejects them
_FAMILY_KEYS = {
    "gaussian_mean": ("sigma", "x_star"),
    "ridge": ("sigma", "x_star"),
    "lasso": ("sigma", "x_star"),
    "soft_svm": ("x_star",),
    "norm_power": ("sigma", "s"),
    "finite_sum_quadratic": ("x_star", "n_terms", "spread", "scales"),
}
_SOLVER_KEYS = {
    "algorithm": ("str", None),
    "schedule": ("str", "constant"),
    "multiplier": ("float", 1.0),
    "start": ("str", None),
}
_EXPERIMENT_KEYS = {
    "mode": ("str", None),
    "epsilons": ("floats", None),
    "beta": ("float", 0.1),
    "trials": ("int", 50),
    "n": ("int", 100),
    "max_n": ("int", 1_000_000),
    "output": ("str", "report.csv"),
}

# (section, key, test, requirement) for numeric keys; every trial would fail
# with a value outside its range, so such a config is rejected up front
_RANGES = (
    ("solver", "multiplier", lambda v: v > 0, "must be positive"),
    ("experiment", "beta", lambda v: 0 < v < 1, "must lie in (0, 1)"),
    ("experiment", "trials", lambda v: v >= 1, "must be >= 1"),
    ("experiment", "n", lambda v: v >= 1, "must be >= 1"),
    ("experiment", "max_n", lambda v: v >= 1, "must be >= 1"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: tuple  # sorted (key, value) pairs, values normalized
    solver: tuple
    experiment: tuple

    def section(self, name: str) -> dict:
        return dict(getattr(self, name))


def _parse_value(tag: str, raw: str, where: str, errors: list):
    """The typed value of one key, or None after appending its error.

    Every float, alone or in a list, must be finite: float() accepts nan
    and inf, which no key can use.
    """
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            value = float(raw)
            floats = (value,)
        elif tag == "floats":
            value = floats = tuple(float(v) for v in raw.split(",") if v.strip())
        else:
            return raw
    except ValueError:
        errors.append(f"{where}: cannot parse {raw!r} as {tag}")
        return None
    if not all(math.isfinite(v) for v in floats):
        errors.append(f"{where}: {raw!r} is not finite")
        return None
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Validate config text; raises ConfigError listing every violation."""
    cp = ConfigParser(interpolation=None)
    errors: list[str] = []
    try:
        cp.read_string(text)
    except Exception as exc:
        raise ConfigError([f"config syntax: {exc}"]) from exc

    specs = {"problem": _PROBLEM_KEYS, "solver": _SOLVER_KEYS, "experiment": _EXPERIMENT_KEYS}
    for section in cp.sections():
        if section not in specs:
            errors.append(f"unknown section [{section}]")
    for section in specs:
        if section not in cp:
            errors.append(f"missing required section [{section}]")

    out, given = {}, {}
    for section, schema in specs.items():
        values = {}
        if section in cp:
            for key, raw in cp[section].items():
                if key not in schema:
                    errors.append(f"[{section}]: unknown key {key!r}")
                    continue
                v = _parse_value(schema[key][0], raw, f"[{section}] {key}", errors)
                if v is not None:
                    values[key] = v
        given[section] = set(values)
        for key, (_tag, default) in schema.items():
            if key not in values and default is not None:
                values[key] = default
        out[section] = values

    p, s, e = out["problem"], out["solver"], out["experiment"]
    if "family" not in p:
        errors.append("[problem]: family is required")
    elif p["family"] not in _FAMILIES:
        errors.append(f"[problem]: unknown family {p['family']!r}")
    if "dimension" not in p:
        errors.append("[problem]: dimension is required")
    elif p["dimension"] < 1:
        errors.append("[problem]: dimension must be >= 1")
    if "set" in p and p["set"] not in _SETS:
        errors.append(f"[problem]: unknown set {p['set']!r}")
    # a key the built problem would not read is an error, not a silent default
    for key in sorted(given["problem"] & {"radius", "center"}):
        if p.get("set") not in ("l2_ball", "l1_ball"):
            errors.append(f"[problem]: {key} needs set = l2_ball or l1_ball")
    if p.get("family") in _FAMILY_KEYS:
        read = set(_FAMILY_KEYS[p["family"]])
        for key in sorted(given["problem"] & set().union(*_FAMILY_KEYS.values()) - read):
            errors.append(f"[problem]: family {p['family']} does not read {key}")

    if "algorithm" not in s:
        errors.append("[solver]: algorithm is required")
    elif s["algorithm"] not in _ALGORITHMS:
        errors.append(f"[solver]: unknown algorithm {s['algorithm']!r}")
    if s.get("schedule") not in _SCHEDULES:
        errors.append(f"[solver]: unknown schedule {s.get('schedule')!r}")
    if "start" in s and s["start"] not in ("center", "boundary"):
        errors.append(f"[solver]: unknown start {s['start']!r}")

    mode = e.get("mode")
    if mode is None:
        errors.append("[experiment]: mode is required")
    elif mode not in _MODES:
        errors.append(f"[experiment]: unknown mode {mode!r}")
    for section, key, ok, requirement in _RANGES:
        value = out[section].get(key)
        if value is not None and not ok(value):
            errors.append(f"[{section}]: {key} {requirement}")
    eps = e.get("epsilons")
    if mode in ("sample-complexity", "rate-curve") and not eps:
        errors.append(f"[experiment]: mode {mode} needs an epsilons list")
    elif s.get("algorithm") == "regularized_erm" and not eps:
        # the regularizer weight follows the target epsilon
        errors.append("[experiment]: algorithm regularized_erm needs an epsilons list")
    if eps:
        if any(v <= 0 for v in eps):
            errors.append("[experiment]: epsilons must be positive")
        if mode == "rate-curve" and not all(a > b for a, b in zip(eps, eps[1:])):
            errors.append("[experiment]: rate-curve epsilons must be strictly decreasing")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        problem=tuple(sorted(p.items())),
        solver=tuple(sorted(s.items())),
        experiment=tuple(sorted(e.items())),
    )


# ---------------------------------------------------------------------------
# building runtime objects from a config
# ---------------------------------------------------------------------------


def _build_set(p: dict, default: FeasibleSet | None) -> FeasibleSet | None:
    kind = p.get("set")
    if kind is None:
        return default
    n = p["dimension"]
    center = np.asarray(p["center"], float) if "center" in p else None
    if kind == "unconstrained":
        return FeasibleSet.unconstrained(n)
    if kind == "l2_ball":
        return FeasibleSet.l2_ball(n, p["radius"], center)
    if kind == "l1_ball":
        return FeasibleSet.l1_ball(n, p["radius"], center)
    return FeasibleSet.simplex(n)


def build_problem(config: ExperimentConfig) -> problems.ProblemInstance:
    p = config.section("problem")
    n = p["dimension"]
    family = p["family"]
    x_star = np.asarray(p["x_star"], float) if "x_star" in p else np.zeros(n)
    if x_star.shape != (n,):
        raise ConfigError([f"[problem]: x_star needs {n} entries"])
    if family == "gaussian_mean":
        set_ = _build_set(p, FeasibleSet.unconstrained(n))
        return problems.GaussianMean(mean=x_star, sigma=p["sigma"], feasible_set=set_)
    if family in ("ridge", "lasso"):
        cls = problems.RidgeRegression if family == "ridge" else problems.Lasso
        set_ = _build_set(p, FeasibleSet.unconstrained(n))
        return cls(coefficients=x_star, sigma=p["sigma"], feasible_set=set_)
    if family == "soft_svm":
        set_ = _build_set(p, FeasibleSet.l2_ball(n, 1.0))
        return problems.SoftSVM(concept=x_star, feasible_set=set_)
    if family == "norm_power":
        set_ = _build_set(p, None)
        return problems.NormPower(s=p["s"], sigma=p["sigma"], dim=n, feasible_set=set_)
    # finite_sum_quadratic
    scales = np.asarray(p["scales"], float) if "scales" in p else None
    set_ = _build_set(p, None)
    return problems.FiniteSumQuadratic.from_seed(
        n, p["n_terms"], p["spread"], seed=p["seed"],
        scales=scales, set_=set_, mean=x_star,
    )


def build_solver(config: ExperimentConfig):
    s = config.section("solver")
    e = config.section("experiment")
    algo = s["algorithm"]
    if algo == "sgd":
        return harness.SgdSolver(schedule=s["schedule"], start=s.get("start", "center"))
    if algo == "restart":
        return harness.RestartSolver(
            beta=e["beta"], multiplier=s["multiplier"], start=s.get("start", "boundary")
        )
    if algo == "erm":
        return harness.ErmSolver(start=s.get("start", "center"))
    if algo == "regularized_erm":
        return harness.RegularizedErmSolver()
    if algo == "vr_erm":
        return harness.VrErmSolver()
    return harness.BatchedAccelSolver(start=s.get("start", "center"))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def dispatch(config: ExperimentConfig, strict: bool = False, out: str | None = None) -> int:
    """Run the configured mode, write reports, print a one-line summary.

    Returns the process exit status: 0 on success; under --strict any
    flagged result (a saturated search, a failed trial) becomes nonzero.
    """
    e = config.section("experiment")
    mode = e["mode"]
    if mode == "verify":
        checks = builtin_verify()
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
        bad = [name for name, ok, _ in checks if not ok]
        print(f"verify: {len(checks) - len(bad)}/{len(checks)} checks passed")
        return 1 if bad else 0

    problem = build_problem(config)
    solver = build_solver(config)
    path = out or e["output"]
    seed = config.section("problem")["seed"]
    eps = e.get("epsilons")
    flagged = False

    if mode == "single-run":
        epsilon = eps[0] if eps else None
        results = harness.run_trials(
            solver, problem, e["n"], e["trials"], seed, epsilon=epsilon
        )
        harness.assert_disjoint_streams(results)
        harness.write_report(results, path)
        failures = sum(1 for r in results if r.failed)
        flagged = failures > 0
        gaps = [r.gap for r in results if not r.failed]
        med = float(np.median(gaps)) if gaps else math.nan
        frac = ""
        if epsilon is not None:
            frac = f" success_fraction={harness.success_probability(results, epsilon)[0]:.3f}"
        print(
            f"single-run solver={solver.id} problem={problem.family} n={e['n']} "
            f"trials={e['trials']}{frac} median_gap={med:.6g} failures={failures} out={path}"
        )
    elif mode == "sample-complexity":
        epsilon = eps[0]
        curve = harness.measure_curve(
            solver, problem, [epsilon], e["beta"], trials=e["trials"],
            max_n=e["max_n"], base_seed=seed + 10_000,
        )
        harness.write_report(curve, path)
        (point,) = curve.points
        flagged = point.saturated
        print(
            f"complexity solver={solver.id} problem={problem.family} epsilon={epsilon} "
            f"N={point.n}{' SATURATED' if flagged else ''} out={path}"
        )
    elif mode == "rate-curve":
        curve = harness.measure_curve(
            solver, problem, eps, e["beta"], trials=e["trials"],
            max_n=e["max_n"], base_seed=seed + 10_000,
        )
        harness.write_report(curve, path)
        flagged = any(p.saturated for p in curve.points)
        print(
            f"rate-curve solver={solver.id} problem={problem.family} "
            f"points={len(curve.points)} slope={curve.slope:.4f}"
            f"{' SATURATED' if flagged else ''} out={path}"
        )
    else:
        raise InputError(f"unhandled mode {mode!r}")

    return 1 if (strict and flagged) else 0


# ---------------------------------------------------------------------------
# built-in invariant suite (verify mode)
# ---------------------------------------------------------------------------


def builtin_verify():
    """Fast self-checks of the core algebraic contracts; returns (name, ok, detail)."""
    from .geometry import mirror_step, project
    from .problems import FiniteSumQuadratic, GaussianMean, NormPower, RidgeRegression
    from .sa_solvers import InverseStrong, sgd_run

    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    def geometry_suite():
        u = problems.uniform_values(7, 0, 2000 * 6).reshape(2000, 6) * 4.0 - 2.0
        for set_ in (FeasibleSet.l2_ball(3, 1.5), FeasibleSet.l1_ball(3, 1.0),
                     FeasibleSet.simplex(3)):
            for row in u:
                x, y = row[:3], row[3:]
                px, py = project(set_, x), project(set_, y)
                if np.linalg.norm(px - py) > np.linalg.norm(x - y) + 1e-9:
                    raise AssertionError("projection expansion")
                if np.linalg.norm(project(set_, px) - px) > 1e-10:
                    raise AssertionError("projection not idempotent")

    def simplex_norm():
        set_ = FeasibleSet.simplex(4)
        u = problems.uniform_values(9, 0, 1000 * 8).reshape(1000, 8)
        for row in u:
            x = row[:4] + 1e-3
            x = x / x.sum()
            out = mirror_step(set_, x, row[4:] * 3.0 - 1.5, 0.5)
            if abs(out.sum() - 1.0) > 1e-12 or np.any(out < 0):
                raise AssertionError("simplex step left the simplex")

    def mean_identity():
        p = GaussianMean(mean=[0.3], sigma=1.0,
                         feasible_set=FeasibleSet.unconstrained(1))
        rows, _ = p.stream(5).draw_block(2000)
        trace, _ = sgd_run(p, InverseStrong(2.0), 2000, [p.stream(5)], [0.0])
        if abs(trace.final_point[0, 0] - rows.mean()) > 1e-12:
            raise AssertionError("iterate drifted from the sample mean")

    def vr_identity():
        p = FiniteSumQuadratic.from_seed(3, 12, 1.0, seed=3)
        emp, _ = saa.build_empirical(p, 12, p.stream(4))
        x = np.array([0.2, -0.4, 0.1])
        state = saa.VRState.at(emp, np.array([1.0, 0.0, -1.0]))
        mean = np.mean([saa.vr_gradient(state, emp, x, t) for t in range(12)], axis=0)
        if np.max(np.abs(mean - emp.gradient(x))) > 1e-12:
            raise AssertionError("vr gradient mean != full gradient")

    def adjacent_seeds():
        # derived seeds sit above 2^53, so their Philox keys must keep every bit
        if np.array_equal(problems.uniform_values(2001, 0, 5),
                          problems.uniform_values(2002, 0, 5)):
            raise AssertionError("uniform_values(2001) == uniform_values(2002)")
        a, b = (FiniteSumQuadratic.from_seed(3, 4, 1.0, seed=s).centers for s in (1, 2))
        if np.array_equal(a, b):
            raise AssertionError("from_seed(seed=1) == from_seed(seed=2)")

    def prox_example():
        out = saa.composite_prox_step([0.0], [3.0], 0.1, saa.L1(1.0),
                                      FeasibleSet.unconstrained(1))
        if abs(out[0] + 0.2) > 1e-12:
            raise AssertionError(f"prox value {out[0]} != -0.2")

    def determinism():
        # the block paths: stateless steps, restart stages, per-row AdaGrad
        cases = (
            (harness.SgdSolver(schedule="inverse_strong"), 50,
             GaussianMean(mean=[0.0], sigma=1.0, feasible_set=FeasibleSet.unconstrained(1))),
            (harness.RestartSolver(), 400, NormPower(s=2.0, sigma=1.0, dim=5)),
            (harness.SgdSolver(schedule="adagrad"), 50,
             GaussianMean(mean=[0.2, 0.3, 0.5], sigma=1.0, feasible_set=FeasibleSet.simplex(3))),
        )
        for solver, n, p in cases:
            batch = harness.run_trials(solver, p, n, 8, 100)
            singles = [harness.run_trials(solver, p, n, 1, 100 + t)[0] for t in range(8)]
            if [(r.seed, r.gap, r.diagnostic) for r in batch] != [
                (r.seed, r.gap, r.diagnostic) for r in singles
            ]:
                raise AssertionError(f"{solver.id} trial results depend on batching")

    def exact_vs_iterative():
        # free least squares, an active l1 projection, an interior norm-power point
        cases = (
            (RidgeRegression(coefficients=[0.5, -0.4, 0.3], sigma=1.0,
                             feasible_set=FeasibleSet.unconstrained(3)), 200),
            (GaussianMean(mean=[0.05, 0.05, 0.05], sigma=1.0,
                          feasible_set=FeasibleSet.l1_ball(3, 0.3)), 20),
            (NormPower(s=3.0, sigma=3.0, dim=3, feasible_set=FeasibleSet.l2_ball(3, 2.0)), 4),
        )
        for p, n in cases:
            emp, _ = saa.build_empirical(p, n, p.stream(6))
            exact = saa.exact_erm(emp)
            it = saa.solve_erm(emp, 1e-14)
            if exact.value > it.value + 1e-12:
                raise AssertionError(f"{p.family}: exact value above the iterative one")
            if np.linalg.norm(exact.point - it.point) > 1e-6:
                raise AssertionError(f"{p.family}: exact and iterative points differ")

    check("geometry projections (nonexpansive, idempotent)", geometry_suite)
    check("simplex entropic step stays normalized", simplex_norm)
    check("gaussian-mean recursion equals sample mean", mean_identity)
    check("vr gradient is unbiased over term index", vr_identity)
    check("derived streams of adjacent seeds differ", adjacent_seeds)
    check("l1 prox closed form", prox_example)
    check("trial determinism across batching", determinism)
    check("exact ERM matches iterative ERM", exact_vs_iterative)
    return checks


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_SUBCOMMAND_MODE = {
    "run": "single-run",
    "complexity": "sample-complexity",
    "curve": "rate-curve",
    "verify": "verify",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sastra",
        description="stochastic-optimization lab: experiments and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_MODE:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "verify"))
        p.add_argument("--strict", action="store_true")
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if args.command == "verify" and args.config is None:
        cfg = ExperimentConfig(
            problem=(("dimension", 1), ("family", "gaussian_mean"), ("seed", 0)),
            solver=(("algorithm", "sgd"),),
            experiment=(("mode", "verify"),),
        )
    else:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 2
        except ConfigError as exc:
            for msg in exc.errors:
                print(f"config error: {msg}", file=sys.stderr)
            return 2
        expected = _SUBCOMMAND_MODE[args.command]
        if cfg.section("experiment")["mode"] != expected:
            print(
                f"error: subcommand {args.command} needs mode {expected}, "
                f"config says {cfg.section('experiment')['mode']}",
                file=sys.stderr,
            )
            return 2

    try:
        return dispatch(cfg, strict=args.strict, out=args.out)
    except SastraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
