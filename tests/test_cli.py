import os

import pytest

from sastra.cli import (
    _ALGORITHMS,
    _FAMILIES,
    _SETS,
    ExperimentConfig,
    build_problem,
    build_solver,
    dispatch,
    main,
    parse_config,
)
from sastra.errors import ConfigError, SastraError
from sastra.harness import run_trials
from reference import read_report

MINIMAL = """
[problem]
family = gaussian_mean
dimension = 1
seed = 5

[solver]
algorithm = sgd
schedule = inverse_strong

[experiment]
mode = single-run
n = 100
trials = 1
output = {out}
"""

CURVE = """
[problem]
family = gaussian_mean
dimension = 1
sigma = 1.0
seed = 5

[solver]
algorithm = sgd
schedule = inverse_strong

[experiment]
mode = rate-curve
epsilons = 0.2, 0.05
beta = 0.3
trials = 10
max_n = 100000
output = {out}
"""


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = parse_config(MINIMAL.format(out="r.csv"))
        assert cfg.section("problem")["family"] == "gaussian_mean"
        assert cfg.section("experiment")["mode"] == "single-run"
        # defaults filled in
        assert cfg.section("experiment")["beta"] == 0.1

    def test_unknown_solver_id_named(self):
        bad = MINIMAL.format(out="r.csv").replace("algorithm = sgd",
                                                  "algorithm = adamw")
        with pytest.raises(ConfigError, match="adamw"):
            parse_config(bad)

    def test_unknown_key_named(self):
        bad = MINIMAL.format(out="r.csv").replace("n = 100", "n = 100\nwarp = 9")
        with pytest.raises(ConfigError, match="warp"):
            parse_config(bad)

    @pytest.mark.parametrize("epsilons", ["0.05, 0.2", "0.2, 0.2", "0.1, 0.2, 0.1"])
    def test_rate_curve_requires_decreasing_epsilons(self, epsilons):
        # one error however many pairs are out of order or repeated
        bad = CURVE.format(out="r.csv").replace("0.2, 0.05", epsilons)
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.errors == ["[experiment]: rate-curve epsilons must be strictly decreasing"]

    def test_regularized_erm_requires_epsilons(self):
        # its regularizer weight follows epsilon: without one every trial failed
        bad = MINIMAL.format(out="r.csv").replace("algorithm = sgd", "algorithm = regularized_erm")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.errors == ["[experiment]: algorithm regularized_erm needs an epsilons list"]

    def test_missing_section(self):
        text = "[problem]\nfamily = gaussian_mean\ndimension = 1\n"
        with pytest.raises(ConfigError, match="solver"):
            parse_config(text)

    def test_all_errors_collected(self):
        text = """
[problem]
family = unobtainium
dimension = 0

[solver]
algorithm = voodoo

[experiment]
mode = dance
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msgs = " | ".join(err.value.errors)
        for frag in ("unobtainium", "dimension", "voodoo", "dance"):
            assert frag in msgs
        assert len(err.value.errors) >= 4

    def test_out_of_range_values_collected(self):
        # each of these made every trial fail while the run exited 0
        bad = {
            ("solver", "multiplier"): "0",
            ("experiment", "beta"): "1.5",
            ("experiment", "trials"): "0",
            ("experiment", "n"): "0",
            ("experiment", "max_n"): "0",
        }
        text = MINIMAL.format(out="r.csv").replace("n = 100\n", "").replace("trials = 1\n", "")
        for (section, key), value in bad.items():
            text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        for section, key in bad:
            assert any(m.startswith(f"[{section}]: {key} ") for m in err.value.errors), key
        assert len(err.value.errors) == len(bad)

    @pytest.mark.parametrize("section, key, value", [
        ("problem", "sigma", "nan"),
        ("problem", "sigma", "inf"),
        ("experiment", "epsilons", "nan"),
        ("solver", "multiplier", "inf"),
    ])
    def test_non_finite_values_rejected(self, section, key, value):
        # float() parses nan and inf; a nan epsilon made the search run to max_n
        text = CURVE.format(out="c.csv")
        given = {"sigma": "sigma = 1.0", "epsilons": "epsilons = 0.2, 0.05"}
        if key in given:
            text = text.replace(given[key], f"{key} = {value}")
        else:
            text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert f"[{section}] {key}: {value!r} is not finite" in err.value.errors

    @pytest.mark.parametrize("family, extra, error", [
        ("norm_power", "radius = 2.0", "radius needs set = l2_ball or l1_ball"),
        ("gaussian_mean", "center = 5, 5, 5", "center needs set = l2_ball or l1_ball"),
        ("gaussian_mean", "set = simplex\nradius = 2.0", "radius needs set = l2_ball or l1_ball"),
        ("norm_power", "x_star = 0.5, 0, 0", "family norm_power does not read x_star"),
        ("ridge", "s = 3.0", "family ridge does not read s"),
        ("soft_svm", "x_star = 1, 0, 0\nsigma = 0.5", "family soft_svm does not read sigma"),
        ("finite_sum_quadratic", "sigma = 0.5", "family finite_sum_quadratic does not read sigma"),
        ("gaussian_mean", "n_terms = 4", "family gaussian_mean does not read n_terms"),
        ("norm_power", "spread = 2.0", "family norm_power does not read spread"),
        ("ridge", "scales = 1, 2, 4", "family ridge does not read scales"),
    ])
    def test_unread_problem_keys_rejected(self, family, extra, error):
        # each was accepted and silently dropped: the built problem differed
        # from the config text
        text = MINIMAL.format(out="r.csv").replace(
            "family = gaussian_mean\ndimension = 1", f"family = {family}\ndimension = 3\n{extra}")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == [f"[problem]: {error}"]

    def test_ball_keys_accepted_with_a_ball(self):
        text = MINIMAL.format(out="r.csv").replace(
            "dimension = 1", "dimension = 3\nset = l1_ball\nradius = 2.0\ncenter = 0.5, 0, 0")
        set_ = build_problem(parse_config(text)).feasible_set
        assert set_.radius == 2.0 and list(set_.center) == [0.5, 0.0, 0.0]


class TestBuilders:
    def test_build_each_family(self):
        for family, extra in [
            ("gaussian_mean", ""),
            ("ridge", ""),
            ("lasso", ""),
            ("norm_power", "s = 2.0"),
            ("finite_sum_quadratic", "n_terms = 4"),
        ]:
            text = MINIMAL.format(out="r.csv").replace(
                "family = gaussian_mean", f"family = {family}\ndimension = 2\n{extra}"
            ).replace("dimension = 1\n", "")
            cfg = parse_config(text)
            p = build_problem(cfg)
            assert p.family == family

    def test_build_each_solver(self):
        for algo in ("sgd", "restart", "erm", "regularized_erm", "vr_erm",
                     "batched_accel"):
            text = MINIMAL.format(out="r.csv").replace(
                "algorithm = sgd", f"algorithm = {algo}").replace("n = 100", "n = 100\nepsilons = 0.1")
            solver = build_solver(parse_config(text))
            assert hasattr(solver, "run")


MATRIX = """
[problem]
family = {family}
dimension = 3
set = {set}
{extra}

[solver]
algorithm = {algorithm}
start = {start}

[experiment]
mode = single-run
epsilons = 0.1
n = 20
trials = 1
"""


class TestConfigMatrix:
    """Every algorithm on every family and set kind, from the config text to
    one trial: a config either fails to build with a sastra error or runs,
    its trial failing at most; no other exception escapes."""

    @pytest.mark.parametrize("algorithm, start", [
        (algorithm, start) for algorithm in _ALGORITHMS
        for start in (("center", "boundary") if algorithm in ("sgd", "restart", "batched_accel")
                      else ("center",))])
    def test_builds_or_fails_cleanly(self, algorithm, start):
        escaped = []
        for family in _FAMILIES:
            for set_ in _SETS:
                # soft_svm needs a nonzero concept
                extra = "x_star = 1.5, 0, 0" if family == "soft_svm" else ""
                config = MATRIX.format(family=family, set=set_, extra=extra,
                                       algorithm=algorithm, start=start)
                try:
                    cfg = parse_config(config)
                    problem, solver = build_problem(cfg), build_solver(cfg)
                except SastraError:
                    continue
                try:
                    run_trials(solver, problem, 20, 1, 0, epsilon=0.1)
                except Exception as exc:  # noqa: BLE001 - collect every escape
                    escaped.append(f"{family}/{set_}: {type(exc).__name__}: {exc}")
        assert escaped == []


class TestDispatch:
    def test_single_run_one_record(self, tmp_path, capsys):
        out = tmp_path / "single.csv"
        cfg = parse_config(MINIMAL.format(out=out))
        assert dispatch(cfg) == 0
        header, records = read_report(out)
        assert len(records) == 1
        assert "single-run" in capsys.readouterr().out

    def test_rate_curve_two_rows_and_slope(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        cfg = parse_config(CURVE.format(out=out))
        assert dispatch(cfg) == 0
        header, records = read_report(out)
        assert len(records) == 2
        text = out.read_text(encoding="utf-8")
        assert "# fit slope=" in text
        assert "slope=" in capsys.readouterr().out

    def test_single_run_summary_counts_failures(self, tmp_path, capsys):
        # s = 1 on free space: a sample with |xi| > 1 leaves ERM without a
        # minimizer, which fails that trial; the summary must say so
        text = """
[problem]
family = norm_power
dimension = 1
sigma = 1.0
s = 1.0
set = unconstrained
seed = 1

[solver]
algorithm = erm

[experiment]
mode = single-run
n = 1
trials = 10
epsilons = 0.5
output = {out}
"""
        cfg = parse_config(text.format(out=tmp_path / "f.csv"))
        assert dispatch(cfg) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert " success_fraction=0.900 " in line and " failures=1 " in line

    def test_out_override(self, tmp_path):
        cfg = parse_config(MINIMAL.format(out=tmp_path / "a.csv"))
        other = tmp_path / "b.csv"
        dispatch(cfg, out=str(other))
        assert other.exists()

    def test_verify_mode(self, capsys):
        cfg = ExperimentConfig(
            problem=(("dimension", 1), ("family", "gaussian_mean"), ("seed", 0)),
            solver=(("algorithm", "sgd"),),
            experiment=(("mode", "verify"),),
        )
        assert dispatch(cfg) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "PASS derived streams of adjacent seeds differ" in out

    def test_strict_flags_saturation(self, tmp_path):
        # max_n too small for the target epsilon: search saturates
        text = CURVE.format(out=tmp_path / "s.csv").replace(
            "mode = rate-curve", "mode = sample-complexity"
        ).replace("epsilons = 0.2, 0.05", "epsilons = 0.000000001").replace(
            "max_n = 100000", "max_n = 4"
        ).replace("seed = 5", "seed = 5\nx_star = 0.5")
        cfg = parse_config(text)
        assert dispatch(cfg, strict=False) == 0
        assert dispatch(cfg, strict=True) == 1

    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        cfg = parse_config(CURVE.format(out=out1))
        dispatch(cfg)
        dispatch(cfg, out=str(out2))
        # curve reports carry no timestamps: byte-identical
        assert out1.read_bytes() == out2.read_bytes()

    def test_trial_report_deterministic_modulo_wall(self, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        base = MINIMAL.format(out=out1).replace("trials = 1", "trials = 5")
        cfg = parse_config(base)
        dispatch(cfg)
        dispatch(cfg, out=str(out2))
        strip = lambda p: [
            ",".join(line.split(",")[:-1])
            for line in p.read_text(encoding="utf-8").splitlines()
        ]
        assert strip(out1) == strip(out2)


class TestMain:
    def test_end_to_end(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        out = tmp_path / "out.csv"
        cfg_path.write_text(MINIMAL.format(out=out), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert out.exists()

    def test_subcommand_mode_mismatch(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(MINIMAL.format(out=tmp_path / "o.csv"), encoding="utf-8")
        assert main(["curve", "--config", str(cfg_path)]) == 2
        assert "mode" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/no/such/file.ini"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_config_errors_reported(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text("[problem]\nfamily = nope\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "nope" in err

    def test_soft_svm_without_concept(self, tmp_path, capsys):
        # the all-zero default concept graded every trial with gap 0
        cfg_path = tmp_path / "svm.ini"
        cfg_path.write_text(MINIMAL.format(out=tmp_path / "o.csv").replace(
            "family = gaussian_mean", "family = soft_svm"), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "soft_svm needs a nonzero concept (x_star)" in capsys.readouterr().err

    def test_verify_without_config(self, capsys):
        assert main(["verify"]) == 0
