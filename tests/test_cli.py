import os

import pytest

from sastra.cli import (
    ExperimentConfig,
    build_problem,
    build_solver,
    dispatch,
    format_config,
    main,
    parse_config,
)
from sastra.errors import ConfigError
from sastra.harness import read_report

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

    def test_rate_curve_requires_decreasing_epsilons(self):
        bad = CURVE.format(out="r.csv").replace("0.2, 0.05", "0.05, 0.2")
        with pytest.raises(ConfigError, match="decreasing"):
            parse_config(bad)

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
            ("solver", "step_multiplier"): "-1",
            ("solver", "multiplier"): "0",
            ("solver", "delta"): "-1",
            ("solver", "budget"): "0",
            ("solver", "epoch_budget"): "0",
            ("solver", "beta"): "1.5",
            ("experiment", "n"): "0",
            ("experiment", "max_n"): "0",
        }
        text = MINIMAL.format(out="r.csv").replace("n = 100\n", "")
        for (section, key), value in bad.items():
            text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        for section, key in bad:
            assert any(m.startswith(f"[{section}]: {key} ") for m in err.value.errors), key
        assert len(err.value.errors) == len(bad)

    def test_roundtrip(self):
        cfg = parse_config(CURVE.format(out="c.csv"))
        again = parse_config(format_config(cfg))
        assert again == cfg


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
            text = MINIMAL.format(out="r.csv").replace("algorithm = sgd", f"algorithm = {algo}")
            solver = build_solver(parse_config(text))
            assert hasattr(solver, "run")


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

    def test_verify_without_config(self, capsys):
        assert main(["verify"]) == 0
