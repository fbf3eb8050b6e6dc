import os

import pytest

from sastra.cli import (
    _ALGORITHMS,
    _FAMILIES,
    _KEYS,
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
from sastra import problems
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
        bad = MINIMAL.format(out="r.csv").replace(
            "algorithm = sgd\nschedule = inverse_strong", "algorithm = regularized_erm")
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
        # each of these made every trial fail while the run exited 0; each
        # config sets only keys that its run reads
        cases = [
            # a restart run reads multiplier, beta, trials and n
            (MINIMAL.replace("algorithm = sgd\nschedule = inverse_strong", "algorithm = restart")
             .replace("n = 100\n", "").replace("trials = 1\n", ""),
             {("solver", "multiplier"): "0", ("experiment", "beta"): "1.5",
              ("experiment", "trials"): "0", ("experiment", "n"): "0"}),
            # a search reads max_n
            (CURVE.replace("max_n = 100000\n", ""), {("experiment", "max_n"): "0"}),
        ]
        for template, bad in cases:
            text = template.format(out="r.csv")
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

    @pytest.mark.parametrize("base, old, new, error", [
        ("minimal", "algorithm = sgd\nschedule = inverse_strong", "algorithm = erm\nschedule = adagrad",
         "[solver]: algorithm erm does not read schedule"),
        ("minimal", "schedule = inverse_strong", "schedule = inverse_strong\nmultiplier = 5.0",
         "[solver]: algorithm sgd does not read multiplier"),
        ("minimal", "algorithm = sgd\nschedule = inverse_strong", "algorithm = vr_erm\nstart = boundary",
         "[solver]: algorithm vr_erm does not read start"),
        ("curve", "algorithm = sgd\nschedule = inverse_strong", "algorithm = regularized_erm\nstart = center",
         "[solver]: algorithm regularized_erm does not read start"),
        ("curve", "trials = 10", "trials = 10\nn = 7", "[experiment]: mode rate-curve does not read n"),
        ("minimal", "n = 100", "n = 100\nmax_n = 7", "[experiment]: mode single-run does not read max_n"),
        ("minimal", "n = 100", "n = 100\nbeta = 0.2",
         "[experiment]: mode single-run does not read beta"),
        ("curve", "mode = rate-curve", "mode = sample-complexity",
         "[experiment]: mode sample-complexity reads one epsilon, not 2"),
        ("minimal", "n = 100", "n = 100\nepsilons = 0.1, 0.05",
         "[experiment]: mode single-run reads one epsilon, not 2"),
    ], ids=["schedule", "multiplier", "start-vr_erm", "start-regularized_erm", "n", "max_n",
            "beta", "epsilons-complexity", "epsilons-single-run"])
    def test_unread_run_keys_rejected(self, base, old, new, error):
        # each was accepted and silently ignored (an epsilon after the first
        # was never searched): the run differed from the config text
        text = {"minimal": MINIMAL, "curve": CURVE}[base].format(out="r.csv")
        assert old in text
        with pytest.raises(ConfigError) as err:
            parse_config(text.replace(old, new))
        assert err.value.errors == [error]

    @pytest.mark.parametrize("n_terms", ["-1", "0"])
    def test_n_terms_below_one_rejected(self, n_terms):
        # -1 stopped the run with a numpy traceback, 0 with an empty-mean warning
        text = MINIMAL.format(out="r.csv").replace(
            "family = gaussian_mean", f"family = finite_sum_quadratic\nn_terms = {n_terms}")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == ["[problem]: n_terms must be >= 1"]

    @pytest.mark.parametrize("changes, errors", [
        ("[problem]\nseed = 1\nseed = 2\n",
         ["config syntax: While reading from '<string>' [line  3]: option 'seed' "
          "in section 'problem' already exists"]),
        ({"extra": {"x": "1"}}, ["unknown section [extra]"]),
        ({"problem": None}, ["missing required section [problem]",
                             "[problem]: family is required", "[problem]: dimension is required"]),
        ({"solver": None}, ["missing required section [solver]",
                            "[solver]: algorithm is required"]),
        ({"experiment": None}, ["missing required section [experiment]",
                                "[experiment]: mode is required"]),
        ({"solver": {"warp": "9"}}, ["[solver]: unknown key 'warp'"]),
        ({"experiment": {"trials": "many"}}, ["[experiment] trials: cannot parse 'many' as int"]),
        ({"problem": {"sigma": "wide"}}, ["[problem] sigma: cannot parse 'wide' as float"]),
        ({"experiment": {"epsilons": "0.1, small"}},
         ["[experiment] epsilons: cannot parse '0.1, small' as floats"]),
        ({"problem": {"sigma": "inf"}}, ["[problem] sigma: 'inf' is not finite"]),
        ({"problem": {"family": None}}, ["[problem]: family is required"]),
        ({"problem": {"dimension": None}}, ["[problem]: dimension is required"]),
        ({"solver": {"algorithm": None}}, ["[solver]: algorithm is required"]),
        ({"experiment": {"mode": None}}, ["[experiment]: mode is required"]),
        ({"problem": {"family": "unobtainium"}}, ["[problem]: unknown family 'unobtainium'"]),
        ({"problem": {"dimension": "0"}}, ["[problem]: dimension must be >= 1"]),
        ({"problem": {"set": "torus"}}, ["[problem]: unknown set 'torus'"]),
        ({"problem": {"radius": "2"}}, ["[problem]: radius needs set = l2_ball or l1_ball"]),
        ({"problem": {"s": "3"}}, ["[problem]: family gaussian_mean does not read s"]),
        ({"solver": {"algorithm": "adamw"}}, ["[solver]: unknown algorithm 'adamw'"]),
        ({"solver": {"schedule": "fast"}}, ["[solver]: unknown schedule 'fast'"]),
        ({"solver": {"start": "middle"}}, ["[solver]: unknown start 'middle'"]),
        ({"solver": {"algorithm": "restart", "multiplier": "0"}},
         ["[solver]: multiplier must be positive"]),
        ({"solver": {"multiplier": "2"}}, ["[solver]: algorithm sgd does not read multiplier"]),
        ({"experiment": {"mode": "dance"}}, ["[experiment]: unknown mode 'dance'"]),
        ({"experiment": {"mode": "sample-complexity", "epsilons": "0.1", "beta": "1.5"}},
         ["[experiment]: beta must lie in (0, 1)"]),
        ({"experiment": {"trials": "0"}}, ["[experiment]: trials must be >= 1"]),
        ({"experiment": {"n": "0"}}, ["[experiment]: n must be >= 1"]),
        ({"experiment": {"mode": "sample-complexity", "epsilons": "0.1", "max_n": "0"}},
         ["[experiment]: max_n must be >= 1"]),
        ({"experiment": {"max_n": "9"}}, ["[experiment]: mode single-run does not read max_n"]),
        ({"experiment": {"epsilons": "0.2, 0.1"}},
         ["[experiment]: mode single-run reads one epsilon, not 2"]),
        ({"experiment": {"mode": "rate-curve"}},
         ["[experiment]: mode rate-curve needs an epsilons list"]),
        ({"solver": {"algorithm": "regularized_erm"}},
         ["[experiment]: algorithm regularized_erm needs an epsilons list"]),
        ({"experiment": {"epsilons": "-0.1"}}, ["[experiment]: epsilons must be positive"]),
        ({"experiment": {"mode": "rate-curve", "epsilons": "0.1, 0.2"}},
         ["[experiment]: rate-curve epsilons must be strictly decreasing"]),
    ])
    def test_every_message(self, changes, errors):
        # one config per message parse_config can emit, each from a valid
        # base; a missing section also lacks its required keys
        if isinstance(changes, str):
            text = changes
        else:
            sections = {"problem": {"family": "gaussian_mean", "dimension": "1"},
                        "solver": {"algorithm": "sgd"}, "experiment": {"mode": "single-run"}}
            for section, keys in changes.items():
                if keys is None:
                    del sections[section]
                else:
                    sections.setdefault(section, {}).update(keys)
            # a key set to None is left out
            text = "".join(f"[{section}]\n" + "".join(
                f"{k} = {v}\n" for k, v in keys.items() if v is not None)
                for section, keys in sections.items())
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == errors

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
            schedule = "\nschedule = inverse_strong" if algo == "sgd" else ""
            text = MINIMAL.format(out="r.csv").replace(
                "algorithm = sgd\nschedule = inverse_strong", f"algorithm = {algo}{schedule}"
            ).replace("n = 100", "n = 100\nepsilons = 0.1")
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
{start}

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
        escaped, built = [], 0
        # regularized_erm and vr_erm read no start; their rows set none
        start = f"start = {start}" if algorithm in _KEYS["solver"]["start"].readers[1] else ""
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
                built += 1
                try:
                    run_trials(solver, problem, 20, 1, 0, epsilon=0.1)
                except Exception as exc:  # noqa: BLE001 - collect every escape
                    escaped.append(f"{family}/{set_}: {type(exc).__name__}: {exc}")
        assert escaped == []
        assert built > 0  # a config the parser rejects tests nothing


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
        assert "PASS streams of distinct (seed, kind) differ" in out

    def test_verify_fails_when_stream_kinds_collapse(self, monkeypatch, capsys):
        # every stream kind drawn as the sample stream: verify must say so
        windows = problems._uniform_windows
        monkeypatch.setattr(problems, "_uniform_windows",
                            lambda seed, first, count, words, kind: windows(seed, first, count, words, 0))
        assert main(["verify"]) == 1
        fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
        assert fails == ["FAIL streams of distinct (seed, kind) differ: "
                         "AssertionError: two (seed, kind) streams draw the same values"]

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

    def test_n_terms_below_one_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "terms.ini"
        cfg_path.write_text(MINIMAL.format(out=tmp_path / "o.csv").replace(
            "family = gaussian_mean", "family = finite_sum_quadratic\nn_terms = -1"),
            encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "config error: [problem]: n_terms must be >= 1\n"

    def test_soft_svm_without_concept(self, tmp_path, capsys):
        # the all-zero default concept graded every trial with gap 0
        cfg_path = tmp_path / "svm.ini"
        cfg_path.write_text(MINIMAL.format(out=tmp_path / "o.csv").replace(
            "family = gaussian_mean", "family = soft_svm"), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "soft_svm needs a nonzero concept (x_star)" in capsys.readouterr().err

    def test_verify_without_config(self, capsys):
        assert main(["verify"]) == 0
