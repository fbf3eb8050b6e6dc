"""Config-driven command line: run / complexity / curve / verify.

Config files are flat sectioned key=value text (INI syntax) with three
sections: [problem], [solver], [experiment].  [solver] names the algorithm
and, where the algorithm has one, its schedule, restart multiplier and start
point; every other solver parameter follows from the problem, the target
epsilon and [experiment] beta.  One key table, ``_KEYS``, states each key's
section, type, default or requirement, allowed values or range, and the
family, set, algorithm or mode that reads it.  Parsing checks every key
against that table and reports all problems at once; an unknown key is an
error naming that key, and so is a key the run would not read: a [problem]
key the built problem ignores, a [solver] key the algorithm ignores, an
[experiment] key the mode ignores, and more than one epsilon outside
rate-curve.
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
_SEARCHES = ("sample-complexity", "rate-curve")
_ALGORITHMS = ("sgd", "restart", "erm", "regularized_erm", "vr_erm", "batched_accel")
_SETS = ("unconstrained", "l2_ball", "l1_ball", "simplex")
_FAMILIES = tuple(problems._FAMILIES)
_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    """The rules of one config key."""

    tag: str  # int | float | floats | str
    default: object = None  # _REQUIRED, or None for "absent unless given"
    allowed: tuple = ()  # the only values a str key may take, if any
    # (test, requirement) the value must pass: every trial would fail
    # with a value outside it, so such a config is rejected up front
    limit: tuple = ()
    # (selector key, the selector values whose run reads this key); given
    # under any other value, the key is an error
    readers: tuple = ()


_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_BALLS = ("l2_ball", "l1_ball")
_FINITE_SUM = ("family", ("finite_sum_quadratic",))

# section -> key -> rules
_KEYS = {
    "problem": {
        "family": _Key("str", _REQUIRED, allowed=_FAMILIES),
        "dimension": _Key("int", _REQUIRED, limit=_AT_LEAST_ONE),
        "sigma": _Key("float", 1.0, readers=(
            "family", ("gaussian_mean", "ridge", "lasso", "norm_power"))),
        "s": _Key("float", 2.0, readers=("family", ("norm_power",))),
        "x_star": _Key("floats", readers=(
            "family", ("gaussian_mean", "ridge", "lasso", "soft_svm", "finite_sum_quadratic"))),
        "set": _Key("str", allowed=_SETS),
        "radius": _Key("float", 1.0, readers=("set", _BALLS)),
        "center": _Key("floats", readers=("set", _BALLS)),
        "n_terms": _Key("int", 16, limit=_AT_LEAST_ONE, readers=_FINITE_SUM),
        "spread": _Key("float", 1.0, readers=_FINITE_SUM),
        "scales": _Key("floats", readers=_FINITE_SUM),
        # accepted for old configs; soft_svm ground truth is exact and ignores them
        "pool_size": _Key("int", 1_000_000),
        "pool_seed": _Key("int", 2024),
        "seed": _Key("int", 0),
    },
    "solver": {
        "algorithm": _Key("str", _REQUIRED, allowed=_ALGORITHMS),
        "schedule": _Key("str", "constant",
                         allowed=("constant", "inverse_strong", "decreasing", "adagrad"),
                         readers=("algorithm", ("sgd",))),
        "multiplier": _Key("float", 1.0, limit=(lambda v: v > 0, "must be positive"),
                           readers=("algorithm", ("restart",))),
        "start": _Key("str", allowed=("center", "boundary"), readers=(
            "algorithm", ("sgd", "restart", "erm", "batched_accel"))),
    },
    "experiment": {
        "mode": _Key("str", _REQUIRED, allowed=_MODES),
        "epsilons": _Key("floats", limit=(lambda v: all(x > 0 for x in v), "must be positive")),
        # restart also reads beta in every mode (see parse_config)
        "beta": _Key("float", 0.1, limit=(lambda v: 0 < v < 1, "must lie in (0, 1)"),
                     readers=("mode", _SEARCHES)),
        "trials": _Key("int", 50, limit=_AT_LEAST_ONE),
        "n": _Key("int", 100, limit=_AT_LEAST_ONE, readers=("mode", ("single-run",))),
        "max_n": _Key("int", 1_000_000, limit=_AT_LEAST_ONE, readers=("mode", _SEARCHES)),
        "output": _Key("str", "report.csv"),
    },
}


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

    for section in cp.sections():
        if section not in _KEYS:
            errors.append(f"unknown section [{section}]")
    for section in _KEYS:
        if section not in cp:
            errors.append(f"missing required section [{section}]")

    out, given = {}, {}
    for section, schema in _KEYS.items():
        values = {}
        if section in cp:
            for key, raw in cp[section].items():
                if key not in schema:
                    errors.append(f"[{section}]: unknown key {key!r}")
                    continue
                v = _parse_value(schema[key].tag, raw, f"[{section}] {key}", errors)
                if v is not None:
                    values[key] = v
        given[section] = sorted(values)
        for key, rules in schema.items():
            if key not in values and rules.default not in (None, _REQUIRED):
                values[key] = rules.default
        out[section] = values

    algorithm = out["solver"].get("algorithm")
    for section, schema in _KEYS.items():
        values = out[section]
        for key, rules in schema.items():
            value = values.get(key)
            if value is None:
                if rules.default is _REQUIRED:
                    errors.append(f"[{section}]: {key} is required")
            elif rules.allowed and value not in rules.allowed:
                errors.append(f"[{section}]: unknown {key} {value!r}")
            elif rules.limit and not rules.limit[0](value):
                errors.append(f"[{section}]: {key} {rules.limit[1]}")
        # a key the run would not read is an error, not a silent default
        for key in given[section]:
            if not schema[key].readers or (key == "beta" and algorithm == "restart"):
                continue  # restart reads beta, its schedule's confidence, in every mode
            selector, readers = schema[key].readers
            choice = values.get(selector)
            if schema[selector].default is not _REQUIRED:  # an absent set reads no key
                if choice not in readers:
                    errors.append(f"[{section}]: {key} needs {selector} = {' or '.join(readers)}")
            elif choice in schema[selector].allowed and choice not in readers:
                errors.append(f"[{section}]: {selector} {choice} does not read {key}")

    mode, eps = out["experiment"].get("mode"), out["experiment"].get("epsilons")
    if mode in _MODES and mode != "rate-curve" and eps and len(eps) > 1:
        errors.append(f"[experiment]: mode {mode} reads one epsilon, not {len(eps)}")
    if mode in _SEARCHES and not eps:
        errors.append(f"[experiment]: mode {mode} needs an epsilons list")
    elif algorithm == "regularized_erm" and not eps:
        # the regularizer weight follows the target epsilon
        errors.append("[experiment]: algorithm regularized_erm needs an epsilons list")
    if mode == "rate-curve" and eps and not all(a > b for a, b in zip(eps, eps[1:])):
        errors.append("[experiment]: rate-curve epsilons must be strictly decreasing")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**{section: tuple(sorted(values.items()))
                               for section, values in out.items()})


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
    # each adapter states its own default start
    start = {"start": s["start"]} if "start" in s else {}
    if algo == "sgd":
        return harness.SgdSolver(schedule=s["schedule"], **start)
    if algo == "restart":
        return harness.RestartSolver(beta=e["beta"], multiplier=s["multiplier"], **start)
    if algo == "erm":
        return harness.ErmSolver(**start)
    if algo == "regularized_erm":
        return harness.RegularizedErmSolver()
    if algo == "vr_erm":
        return harness.VrErmSolver()
    return harness.BatchedAccelSolver(**start)


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
    elif mode in _SEARCHES:
        curve = harness.measure_curve(
            solver, problem, eps, e["beta"], trials=e["trials"],
            max_n=e["max_n"], base_seed=seed + 10_000,
        )
        harness.write_report(curve, path)
        flagged = any(p.saturated for p in curve.points)
        if mode == "sample-complexity":
            print(
                f"complexity solver={solver.id} problem={problem.family} epsilon={eps[0]} "
                f"N={curve.points[0].n}{' SATURATED' if flagged else ''} out={path}"
            )
        else:
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

    def distinct_streams():
        # the three stream kinds of one seed, and each kind at adjacent seeds;
        # seeds above 2^53 must keep every bit of their Philox key
        keys = [(seed, kind) for seed in (2001, 2002, 2**60, 2**60 + 1) for kind in range(3)]
        draws = {problems._uniform_windows(seed, 0, 5, 1, kind).tobytes() for seed, kind in keys}
        if len(draws) != len(keys):
            raise AssertionError("two (seed, kind) streams draw the same values")

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
    check("streams of distinct (seed, kind) differ", distinct_streams)
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
