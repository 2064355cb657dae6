import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import heavenly
from heavenly import calculus, cliapp, exprdsl, superpose
from heavenly.cliapp import (
    MAX_KEPT_FLOATS,
    MAX_POINTS,
    MAX_RESOLUTION,
    Scenario,
    ScenarioError,
    csv_header,
    load_scenario,
    _PCG64,
    main,
    run,
    scrambled_halton,
)
from heavenly.fdoracle import certify_sample
from heavenly.superpose import (
    balance_checks,
    kept_per_point,
    reduce_chunks,
    solve_point,
    theorem_checks,
)
from test_golden import CASES

GOLDEN = {case["name"]: case for case in CASES}
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ("shock_n2", "shock_n3", "general_unbalanced", "general_balanced",
           "trivial_overlap")
# README "Reading a verdict": the shipped scenario that verify passes and
# balance fails
PROBE = "general_weighted"
COMMANDS = ("verify", "balance", "sample", "fdcheck")


def scenario_path(name):
    return str(SCENARIO_DIR / f"{name}.json")


def write_scenario(tmp_path, payload, name="case.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


BASE = {
    "family": "shock",
    "shared": {"alpha": "t", "beta": "y", "delta": "z"},
    "seeds": [{"F": "p^2/2", "G": "p", "m": "0", "n": "0"}],
    "coefficients": [1.0],
    "sampling": {"box": {"x": [-1, 1], "y": [0.5, 1.5],
                         "z": [0.5, 1.5], "t": [0.5, 1.5]},
                 "count": 20, "seed": 3},
}


class TestLoadScenario:
    def test_shipped_scenarios_load(self):
        for name in SHIPPED:
            sc = load_scenario(scenario_path(name))
            assert sc.build_family().size == len(sc.coefficients)

    def test_unknown_top_level_key(self, tmp_path):
        bad = dict(BASE, extra=1)
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario(write_scenario(tmp_path, bad))

    def test_unknown_seed_key(self, tmp_path):
        bad = dict(BASE)
        bad["seeds"] = [dict(BASE["seeds"][0], H="p")]
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario(write_scenario(tmp_path, bad))

    def test_malformed_expression_reports_location(self, tmp_path):
        bad = dict(BASE)
        bad["seeds"] = [dict(BASE["seeds"][0], F="p +* 2")]
        with pytest.raises(ScenarioError, match="offset 3"):
            load_scenario(write_scenario(tmp_path, bad))

    def test_coefficient_count(self, tmp_path):
        bad = dict(BASE, coefficients=[1.0, 2.0])
        with pytest.raises(ScenarioError, match="one number per seed"):
            load_scenario(write_scenario(tmp_path, bad))

    def test_empty_box_rejected(self, tmp_path):
        bad = dict(BASE)
        bad["sampling"] = {"box": {"x": [1, -1], "y": [0, 1], "z": [0, 1],
                                   "t": [0, 1]}, "count": 10}
        sc = load_scenario(write_scenario(tmp_path, bad))
        with pytest.raises(ScenarioError, match="empty sampling box"):
            sc.points()

    def test_explicit_points(self, tmp_path):
        good = dict(BASE)
        good["sampling"] = {"points": [[0.1, 1.0, 1.0, 1.0]]}
        sc = load_scenario(write_scenario(tmp_path, good))
        assert np.array_equal(sc.points(), [[0.1, 1.0, 1.0, 1.0]])
        assert sc.points().dtype == np.float64

    @pytest.mark.parametrize("rows", [[[0.1, "a", 1.0, 1.0]],
                                      [[0.1, None, 1.0, 1.0]],
                                      [[0.1, float("nan"), 1.0, 1.0]],
                                      ["abcd"], [[0.1, 1.0, 1.0]], []])
    def test_explicit_points_malformed(self, rows, tmp_path):
        bad = dict(BASE, sampling={"points": rows})
        with pytest.raises(ScenarioError, match="finite numbers"):
            load_scenario(write_scenario(tmp_path, bad))

    @pytest.mark.parametrize("key", ["box", "count", "seed"])
    def test_explicit_points_take_no_other_sampling_key(self, key, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        raw = json.loads(Path(scenario_path("shock_n2")).read_text())
        raw["sampling"] = {"points": [[0.1, 1.0, 1.0, 1.0]],
                           key: raw["sampling"][key]}
        assert main(["verify", write_scenario(tmp_path, raw)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: sampling: explicit points take no {key}\n")
        assert not Path("case.report.json").exists()

    def test_defaults(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, BASE))
        assert sc.policy.p_lo == -10.0
        assert sc.policy.resolution == 1024
        assert sc.tolerances["residual"] == 1e-9
        assert sc.expect == "satisfy"


class TestCommands:
    def test_verify_positive_exit_zero(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", scenario_path("shock_n2"),
                     "--points", "60"]) == 0
        report = json.loads(Path("shock_n2.report.json").read_text())
        assert report["passed"] is True
        assert report["schema_version"] == 1

    def test_verify_expected_violation_exit_zero(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", scenario_path("general_unbalanced"),
                     "--points", "60"]) == 0

    def test_verify_residual_failure_exit_one(self, tmp_path, monkeypatch):
        # unbalanced pair with expect=satisfy must fail with exit 1
        monkeypatch.chdir(tmp_path)
        raw = json.loads(Path(scenario_path("general_unbalanced")).read_text())
        raw["expect"] = "satisfy"
        path = write_scenario(tmp_path, raw, "unbalanced_as_satisfy.json")
        assert main(["verify", path, "--points", "40"]) == 1

    def test_config_error_exit_two(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = dict(BASE)
        bad["seeds"] = [dict(BASE["seeds"][0], F="p +* 2")]
        path = write_scenario(tmp_path, bad)
        assert main(["verify", path]) == 2

    def test_unwritable_report_exit_two(self, tmp_path, capsys):
        report = tmp_path / "missing" / "r.json"
        assert main(["verify", scenario_path("shock_n2"), "--points", "20",
                     "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {report}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "balance", "fdcheck"])
    def test_unwritable_report_refused_before_the_solve(
            self, command, tmp_path, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved for a report that cannot be written")
        monkeypatch.setattr("heavenly.superpose.solve_chunks", no_solve)
        monkeypatch.setattr("heavenly.cliapp.solve_chunks", no_solve)
        report = tmp_path / "missing" / "r.json"
        assert main([command, scenario_path("shock_n2"),
                     "--report", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"configuration error: cannot write {report}: "
                       "No such file or directory\n")

    @pytest.mark.parametrize("target, reason", [
        ("file/r.json", "Not a directory"),
        ("dir", "Is a directory"),
    ])
    def test_report_path_checked_first(self, target, reason, tmp_path,
                                       capsys):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        report = tmp_path / target
        # refused before the scenario, which does not exist, is read
        assert main(["verify", str(tmp_path / "absent.json"),
                     "--report", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"configuration error: cannot write {report}: {reason}\n"

    def test_unwritable_csv_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s.csv"
        assert main(["sample", scenario_path("shock_n2"), "--points", "20",
                     "--out", str(out),
                     "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {out}")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("paths", [
        ["--out", "same.json", "--report", "./same.json"],
        ["--out", "shock_n2.report.json"],
        # the default CSV, <scenario name>.csv, known once the scenario
        # is read
        ["--report", "shock_n2.csv"],
    ])
    def test_sample_csv_and_report_must_differ(self, paths, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sample", scenario_path("shock_n2"), "--points", "5",
                     *paths]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("configuration error: --out and the report are one "
                       f"file: {paths[1]}\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_is_only_the_sample_csv(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", scenario_path("shock_n2"), "--points", "20",
                     "--report", "R", "--out", "mine.json"]) == 0
        assert json.loads(Path("R").read_text())["command"] == "verify"
        assert not Path("mine.json").exists()

    def test_balance_shock(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["balance", scenario_path("shock_n3"),
                     "--points", "40"]) == 0
        out = capsys.readouterr().out
        assert "pairwise" in out and "PASS" in out

    def test_balance_single_seed_empty_pairs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path, BASE)
        assert main(["balance", path]) == 0
        report = json.loads(Path("case.report.json").read_text())
        assert report["result"]["pairwise"]["count"] == 0
        assert report["result"]["n_term"]["max"] == 0.0

    def test_sample_csv_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for out in ("a.csv", "b.csv"):
            assert main(["sample", scenario_path("shock_n2"),
                         "--points", "30", "--out", out]) == 0
        assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()

    def test_sample_header(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sample", scenario_path("shock_n2"), "--points", "5",
                     "--out", "c.csv"]) == 0
        header = Path("c.csv").read_text().splitlines()[0].split(",")
        assert header == csv_header(2)
        assert header[:6] == ["index", "status", "x", "y", "z", "t"]

    def test_fdcheck(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fdcheck", scenario_path("shock_n2"),
                     "--points", "15"]) == 0
        report = json.loads(Path("shock_n2.report.json").read_text())
        assert report["result"]["max_deviation"] <= 1e-6

    @pytest.mark.parametrize("command", ["verify", "sample", "balance",
                                         "fdcheck"])
    def test_report_header(self, command, tmp_path, monkeypatch):
        # main writes the header; the name comes from the scenario, not
        # from the file, which is renamed here
        monkeypatch.chdir(tmp_path)
        raw = json.loads(Path(scenario_path("shock_n2")).read_text())
        path = write_scenario(tmp_path, dict(raw, name="renamed"))
        assert main([command, path, "--points", "10"]) == 0
        report = json.loads(Path("case.report.json").read_text())
        assert (report["schema_version"], report["command"],
                report["scenario"]) == (1, command, "renamed")

    def test_fdcheck_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        outs = []
        for name in ("r1.json", "r2.json"):
            assert main(["fdcheck", scenario_path("shock_n2"),
                         "--points", "10", "--report", name]) == 0
            outs.append(Path(name).read_bytes())
        assert outs[0] == outs[1]


class TestInputBounds:
    """Sizes the array engine allocates by are bounded before any work."""

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled a cloud past its bound")
        monkeypatch.setattr("heavenly.cliapp.scrambled_halton", refuse)

    def test_resolution_bound(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path, dict(BASE, branch={
            "resolution": MAX_RESOLUTION + 1}))
        assert main(["verify", path]) == 2
        assert "resolution" in capsys.readouterr().err

    def test_scenario_count_bound(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        sampling = dict(BASE["sampling"], count=MAX_POINTS + 1)
        path = write_scenario(tmp_path, dict(BASE, sampling=sampling))
        assert main(["verify", path]) == 2
        assert "count" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "sample", "balance",
                                         "fdcheck"])
    def test_points_option_bound(self, command, tmp_path, monkeypatch,
                                 capsys):
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path, BASE)
        assert main([command, path, "--points", str(MAX_POINTS + 1)]) == 2
        assert "exceeds the bound" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "-5", str(MAX_POINTS + 1)])
    @pytest.mark.parametrize("command", ["verify", "sample", "balance",
                                         "fdcheck"])
    def test_points_option_checked_on_explicit_cloud(
            self, command, points, tmp_path, monkeypatch, capsys):
        # an explicit cloud ignores --points, but a bad value still exits 2
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path, dict(BASE, sampling={
            "points": [[0.1, 1.0, 1.0, 1.0]]}))
        assert main([command, path, "--points", points]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --points ")
        assert "Traceback" not in err
        assert not Path("case.report.json").exists()

    @pytest.mark.parametrize("command, points, message", [
        ("balance", 20000, "balance keeps 3541 floats a point on 60 seeds, "
                           "70820000 at 20000 points"),
        ("verify", MAX_POINTS, "verify keeps 185 floats a point on 60 seeds, "
                               "185000000 at 1000000 points"),
        ("verify", 20000, None),
        ("sample", MAX_POINTS, None),
        ("fdcheck", MAX_POINTS, None),
    ])
    def test_kept_floats_bound(self, command, points, message, tmp_path,
                               monkeypatch, capsys):
        # 60 seeds: balance keeps 2 * 1770 pairs + 1 floats a point and
        # verify 3 * 60 + 5; a run inside the bound goes on to the build
        def built(scenario):
            raise ScenarioError("family built")

        monkeypatch.setattr(Scenario, "build_family", built)
        path = write_scenario(tmp_path, dict(
            BASE, seeds=BASE["seeds"] * 60, coefficients=[1.0] * 60))
        assert main([command, path, "--points", str(points), "--report",
                     str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        if message is None:
            assert err == "configuration error: family built\n"
        else:
            assert err == (f"configuration error: {message}, above the "
                           f"bound of {MAX_KEPT_FLOATS} floats\n")

    @pytest.mark.parametrize("command", ["verify", "balance"])
    def test_shipped_scenarios_fit_the_kept_floats_bound(self, command):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            seeds = len(json.loads(path.read_text())["seeds"])
            assert kept_per_point(command, seeds) * MAX_POINTS <= \
                MAX_KEPT_FLOATS, path.name


@pytest.mark.parametrize("command", ["verify", "balance"])
def test_kept_floats_are_what_the_checks_keep(command):
    # the lane arrays that reduce_chunks joins over shock_n3's admissible
    # points, against kept_per_point
    sc = load_scenario(scenario_path("shock_n3"))
    family = sc.build_family()
    checks = {"verify": lambda cloud: theorem_checks(
                  cloud.samples, family.shared, sc.coefficients)[1],
              "balance": lambda cloud: balance_checks(cloud.samples,
                                                      family.shared)}
    joined, counts = reduce_chunks(family, sc.points(40), sc.policy,
                                   checks[command])
    admissible = counts[superpose.OK]
    assert admissible > 0
    assert sum(len(v) for v in joined.values()) == \
        kept_per_point(command, 3) * admissible


class TestToleranceOption:
    """--tol is a finite number, not below 0: nan or inf would turn every
    comparison against it into a pass."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("command", ["verify", "balance", "fdcheck"])
    def test_exit_2(self, command, value, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([command, scenario_path("shock_n3"), "--points", "20",
                     f"--tol={value}"]) == 2
        err = capsys.readouterr().err
        assert "--tol must" in err and "Traceback" not in err
        assert not Path("shock_n3.report.json").exists()

    @pytest.mark.parametrize("command", ["verify", "balance", "fdcheck"])
    def test_tight_tolerance_fails(self, command, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([command, scenario_path("shock_n3"), "--points", "20",
                     "--tol", "1e-20"]) == 1
        assert main([command, scenario_path("shock_n3"), "--points", "20",
                     "--tol", "0"]) == 1


class TestSamplingSeed:
    """A seed numpy cannot take is a configuration error, not a crash."""

    def test_negative_seed_option(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", scenario_path("shock_n2"), "--seed", "-1"]) \
            == 2
        err = capsys.readouterr().err
        assert "--seed must be a non-negative integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", [-1, "abc", 1.5, True])
    def test_bad_scenario_seed(self, seed, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        sampling = dict(BASE["sampling"], seed=seed)
        path = write_scenario(tmp_path, dict(BASE, sampling=sampling))
        assert main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert "sampling.seed must be a non-negative integer" in err
        assert "Traceback" not in err


class TestMalformedValues:
    """A scenario value of the wrong type or range exits 2 with a message."""

    NAN = float("nan")
    DEEP = "(" * 3000 + "p" + ")" * 3000

    @pytest.mark.parametrize("patch, message", [
        ({"sampling": dict(BASE["sampling"], count="abc")}, "sampling.count"),
        ({"sampling": dict(BASE["sampling"], count=2.5)}, "sampling.count"),
        ({"branch": {"resolution": "x"}}, "branch.resolution"),
        ({"branch": {"p_hi": NAN}}, "branch.p_hi"),
        ({"coefficients": ["a"]}, "coefficients[0]"),
        ({"coefficients": [0.0]}, "must not all be zero"),
        ({"constants": {"a": "x", "b": 1.0}}, "constants.a"),
        ({"tolerances": {"residual": "tight"}}, "tolerances.residual"),
        ({"tolerances": {"seed_residual": NAN}}, "tolerances.seed_residual"),
        ({"sampling": dict(BASE["sampling"], box=dict(
            BASE["sampling"]["box"], y=[1]))}, "sampling.box.y"),
        ({"sampling": dict(BASE["sampling"], box=dict(
            BASE["sampling"]["box"], z=[0.5, NAN]))}, "sampling.box.z"),
        ({"seeds": ["pos"]}, "seeds[0] must be a JSON object"),
        ({"seeds": [dict(BASE["seeds"][0], F=DEEP)]}, "nested deeper"),
        ({"coefficients": [10 ** 400]}, "coefficients[0]"),
        ({"sampling": dict(BASE["sampling"], box=dict(
            BASE["sampling"]["box"], x=[-1, 10 ** 400]))}, "sampling.box.x"),
        *(({"seeds": [dict(BASE["seeds"][0], G=g)]}, "not finite")
          for g in ("p + 1/0", "p + 0/0", "p + 1/(1-1)", "p + 1e308*10",
                    "p + 10^400")),
        ({"tolerances": {"fd": -1e-6}}, "tolerances.fd must not be negative"),
        *(({"branch": {"selection": k}}, "branch: selection")
          for k in (10 ** 30, -10 ** 30, True, False, -1, 1024, 2.0)),
        ({"sampling": dict(BASE["sampling"], box=dict(
            BASE["sampling"]["box"], x=[-1e308, 1e308]))},
         "sampling.box.x is too wide"),
        ({"branch": {"p_lo": -1e308, "p_hi": 1e308}},
         "scan interval p_lo..p_hi is too wide"),
        *(({"tolerances": {"pass_fraction": f}},
           "tolerances.pass_fraction must not exceed 1")
          for f in (2.5, 10 ** 30, 1e308)),
        *(({"family": kind}, "unknown family kind")
          for kind in ("Shock", [], {})),
        *(({"name": name}, "name must be a non-empty string")
          for name in (None, ["a"], "", "../escaped", "a\\b", "a\0b", 3)),
        *(({"description": d}, "description must be a string")
          for d in (None, ["a"], 3)),
    ])
    def test_exit_2(self, patch, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path, dict(BASE, **patch))
        assert main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_long_sum_verifies(tmp_path, monkeypatch):
    # 100 terms nest 100 deep without a parenthesis; the parser's nesting
    # bound of 64 counts parentheses, calls, unary minus and ^ only
    monkeypatch.chdir(tmp_path)
    seed = dict(BASE["seeds"][0], F="+".join(["p^2/200"] * 100),
                G="+".join(["p/100"] * 100))
    path = write_scenario(tmp_path, dict(BASE, seeds=[seed]))
    assert main(["verify", path]) == 0


def test_violate_mode_honours_seed_residual(tmp_path, monkeypatch, capsys):
    # the negative control's seeds solve the equation to about 5e-16
    monkeypatch.chdir(tmp_path)
    raw = json.loads(Path(scenario_path("general_unbalanced")).read_text())
    assert main(["verify", write_scenario(tmp_path, raw)]) == 0
    raw["tolerances"] = {"seed_residual": 1e-17}
    assert main(["verify", write_scenario(tmp_path, raw)]) == 1
    assert "seeds do not solve the equation" in capsys.readouterr().out


@pytest.mark.parametrize("name, clean_code", [
    ("general_unbalanced", 0),
    # balanced seeds marked violate: no violation to observe
    ("general_balanced", 1),
])
def test_violate_mode_fails_a_derivative_bug(name, clean_code, tmp_path,
                                             monkeypatch, capsys):
    # p_y -> 1.7 p_y + 0.3.  seed_ghe cannot see it: each bracket of a
    # general seed is one product written in two orders, so the seeds still
    # solve the equation to rounding.  seed_compat (p_y = q_x) reads about 2.
    monkeypatch.chdir(tmp_path)
    raw = json.loads(Path(scenario_path(name)).read_text())
    raw["expect"] = "violate"
    path = write_scenario(tmp_path, raw)
    gate = "violation control: seed compatibility residual above tolerance"
    assert main(["verify", path]) == clean_code
    assert gate not in capsys.readouterr().out

    implicit = calculus._implicit

    def skewed(point, p, D, phi, q, r):
        phi = (1.7 * phi[0] - 0.3 * D, phi[1], phi[2])
        return implicit(point, p, D, phi, q, r)

    monkeypatch.setattr(calculus, "_implicit", skewed)
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert gate in out
    assert "seeds do not solve the equation" not in out


@pytest.mark.parametrize("name", ["general_balanced", "shock_n2", "shock_n3"])
def test_seed_compat_sees_a_q_p_error(name, tmp_path, monkeypatch, capsys):
    # q_p -> 1.7 q_p: Q's (1, 1) partial on the general family, beta' on the
    # shock family.  The relation compiles through compile_expr, not
    # SmoothFn.compiled, so its Phi_y stays exact and seed_compat, which
    # reads (q_p - Phi_y) / D, sees the error.
    monkeypatch.chdir(tmp_path)
    compiled = exprdsl.SmoothFn.compiled

    def scaled(self, orders=None):
        fn = compiled(self, orders)
        if (self.variables, orders) in ((("p", "y"), (1, 1)), (("y",), (1,))):
            return lambda *args: 1.7 * fn(*args)
        return fn

    monkeypatch.setattr(exprdsl.SmoothFn, "compiled", scaled)
    assert main(["verify", scenario_path(name)]) == 1
    assert "seed compatibility residual above tolerance" in \
        capsys.readouterr().out


@pytest.mark.parametrize("name", ["shock_n2", "shock_n3", "general_balanced"])
def test_verify_tells_the_declared_b_bracket(name, tmp_path, monkeypatch,
                                             capsys):
    # The seeds solve a{r,p}_{yt} + b{r,q}_{xt} = 0 and also the form with
    # b{q,p}_{xt}, but their superposition solves only the declared one:
    # with the b term swapped, seed_ghe stays at rounding while
    # superposed_ghe reads 0.91, 0.73 and 0.80, and verify fails.
    a_term, (b, _r, _q, u, v) = calculus.BRACKETS
    monkeypatch.setattr(calculus, "BRACKETS", (a_term, (b, "q", "p", u, v)))
    report = tmp_path / "r.json"
    assert main(["verify", scenario_path(name), "--report",
                 str(report)]) == 1
    assert "superposed residual pass fraction too low" in \
        capsys.readouterr().out
    checks = json.loads(report.read_text())["report"]["checks"]
    assert checks["seed_ghe"]["max"] <= 1e-15
    assert checks["superposed_ghe"]["max"] >= 0.5


@pytest.mark.parametrize("term", [0, 1])
def test_violate_control_tells_a_bracket_orientation(term, tmp_path,
                                                     monkeypatch, capsys):
    # {g, f} = -{f, g}: flipping either bracket changes the sign of one
    # term of the equation, and general_unbalanced's cross terms then
    # cancel, so its expected violation is not seen.
    brackets = list(calculus.BRACKETS)
    coef, f, g, u, v = brackets[term]
    brackets[term] = (coef, g, f, u, v)
    monkeypatch.setattr(calculus, "BRACKETS", tuple(brackets))
    assert main(["verify", scenario_path("general_unbalanced"), "--report",
                 str(tmp_path / "r.json")]) == 1
    assert "expected violation not observed" in capsys.readouterr().out


def test_verify_weights_each_cross_term_by_its_coefficients(shipped_runs):
    # README "Reading a verdict": three general seeds on general_unbalanced's
    # box, coefficients (1, 1, -1).  No pair balances, yet the weighted sum
    # c_1 c_2 B_12 + c_1 c_3 B_13 + c_2 c_3 B_23 cancels and the
    # superposition holds; the unweighted sum reads 8.25
    raw = json.loads(Path(scenario_path(PROBE)).read_text())
    base = json.loads(Path(scenario_path("general_unbalanced")).read_text())
    assert raw["sampling"] == base["sampling"]
    assert raw["seeds"] == base["seeds"] + [
        {"Q": "p^2*y/2 + y^2", "R": "p^2*z/2", "T": "p*t"}]
    assert (raw["coefficients"], raw["expect"]) == ([1.0, 1.0, -1.0],
                                                    "satisfy")
    code, report, _ = shipped_runs[PROBE, "verify"]
    assert code == 0
    checks = report["report"]["checks"]
    assert checks["n_term_balance"]["count"] == 400
    assert checks["n_term_balance"]["max"] < 1e-15
    # balance checks the pairs themselves: each fails, and so does their
    # unweighted sum
    code, report, _ = shipped_runs[PROBE, "balance"]
    assert code == 1
    assert report["result"]["n_term"]["max"] > 8.0
    assert [shipped_runs[PROBE, command][0]
            for command in ("fdcheck", "sample")] == [0, 0]
    assert all(shipped_runs[PROBE, command][2] == [] for command in COMMANDS)


class TestNanFails:
    """A check whose maximum or median is nan could not be computed: it
    fails, and the run prints no floating-point warning."""

    def test_nan_maximum_is_named(self, tmp_path, monkeypatch, capsys):
        # superposing with 1e308 overflows the superposed residual's terms
        monkeypatch.chdir(tmp_path)
        raw = json.loads(Path(scenario_path("shock_n2")).read_text())
        raw.update(seeds=raw["seeds"][:1], coefficients=[1e308])
        assert main(["verify", write_scenario(tmp_path, raw)]) == 1
        out, err = capsys.readouterr()
        assert "quadratic_identity   max nan" in out
        assert "quadratic-form identity defect above tolerance" in out
        assert "pass fraction too low" in out
        assert err == ""

    def test_nan_median_is_no_violation(self, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.chdir(tmp_path)
        raw = json.loads(Path(scenario_path("general_unbalanced")).read_text())
        raw["coefficients"] = [1e200, 1e200]
        assert main(["verify", write_scenario(tmp_path, raw)]) == 1
        out, err = capsys.readouterr()
        assert "superposed_ghe       max nan  median nan" in out
        assert "expected violation not observed" in out
        assert err == ""


class TestHaltonSampler:
    LOWS = [-1.0, 0.5, 0.5, 0.5]
    HIGHS = [1.0, 1.5, 1.5, 1.5]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
    def test_matches_scipy_bit_for_bit(self, seed):
        qmc = pytest.importorskip("scipy.stats").qmc
        for n in (1, 2, 40, 400, 5000, 20000):
            ref = qmc.scale(qmc.Halton(d=4, scramble=True, seed=seed)
                            .random(n), self.LOWS, self.HIGHS)
            got = scrambled_halton(n, seed, self.LOWS, self.HIGHS)
            assert np.array_equal(got, ref), (seed, n)

    def test_points_in_box(self):
        pts = scrambled_halton(1000, 3, self.LOWS, self.HIGHS)
        assert pts.shape == (1000, 4) and pts.dtype == np.float64
        assert (pts >= self.LOWS).all() and (pts < self.HIGHS).all()

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 17,
                                      10**30, 2**200 + 5])
    def test_stream_matches_numpy_shuffle(self, seed):
        rng = np.random.default_rng(seed)
        stream = _PCG64(seed)
        for base in range(2, 8):
            for _ in range(40):
                ref = np.arange(base)
                rng.shuffle(ref)
                got = list(range(base))
                stream.shuffle(got)
                assert got == ref.tolist(), (seed, base)

    def test_import_loads_no_scipy(self, tmp_path):
        # every command on a shipped scenario, then the modules it loaded
        src = str(Path(heavenly.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys\n"
            "from heavenly.cliapp import main\n"
            "for command in ('verify', 'balance', 'sample', 'fdcheck'):\n"
            f"    main([command, {scenario_path('general_balanced')!r}, "
            "'--out', 'case.csv'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'statistics') or m.split('.')[:2] in "
            "(['numpy', 'random'], ['numpy', 'ma'])))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             cwd=tmp_path, capture_output=True, text=True,
                             check=True)
        assert out.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "case.csv").exists()


class TestProcessEntry:
    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_run_returns_main_code_with_heap_frozen(self, code, monkeypatch):
        seen = []

        def fake_main(argv):
            seen.append((argv, gc.get_freeze_count()))
            return code
        monkeypatch.setattr("heavenly.cliapp.main", fake_main)
        try:
            assert run(["verify", "x.json"]) == code
        finally:
            gc.unfreeze()
        assert len(seen) == 1
        assert seen[0][0] == ["verify", "x.json"]
        assert seen[0][1] > 0

    def test_main_leaves_the_heap_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["verify", scenario_path("shock_n2"), "--points", "20",
                     "--report", str(tmp_path / "r.json")]) == 0
        assert gc.get_freeze_count() == before

    def test_module_entry_report_matches_main(self, tmp_path):
        src = str(Path(heavenly.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        child = tmp_path / "child.json"
        out = subprocess.run(
            [sys.executable, "-m", "heavenly.cliapp", "verify",
             scenario_path("shock_n2"), "--report", str(child)],
            env=env, cwd=tmp_path, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "verdict: PASS"
        own = tmp_path / "own.json"
        assert main(["verify", scenario_path("shock_n2"),
                     "--report", str(own)]) == 0
        assert child.read_bytes() == own.read_bytes()


_X_FOLD = -2.0 / (3.0 * 3.0 ** 0.5)


@pytest.mark.parametrize("points, counts, code", [
    # just past x = -2/(3 sqrt 3) the lowest root sits 8e-5 from the fold
    # at p = -1/sqrt(3), so |D| ~ 3e-4 < 1e-3
    ([[_X_FOLD + 1e-8, 1.0, 1.0, 1.0], [-0.2, 1.0, 1.0, 1.0]], (1, 1, 0), 0),
    # across the fold: 100 holes, 14 folds, 86 admissible points, all
    # within 1e-6 of the fold; the complex step leaves no real point on
    # the fold's other side, so all 86 certify
    (GOLDEN["folds_cubic"]["points"], (86, 14, 100), 0),
], ids=["past_the_fold", "folds_cubic"])
def test_fdcheck_counts_solve_folds_as_near_fold(points, counts, code,
                                                 tmp_path, monkeypatch):
    # x + p^3 - p on [-1, 0]
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path, {
        "family": "general",
        "shared": {"alpha": "t", "beta": "y", "delta": "z"},
        "seeds": [{"Q": "0", "R": "0", "T": "p^3 - p"}],
        "coefficients": [1.0],
        "sampling": {"points": points},
        "branch": {"p_lo": -1.0, "p_hi": 0.0, "resolution": 16384},
    })
    assert main(["verify", path, "--report", "verify.json"]) == 0
    solved = json.loads(Path("verify.json").read_text())["report"]
    assert main(["fdcheck", path, "--report", "fdcheck.json"]) == code
    result = json.loads(Path("fdcheck.json").read_text())["result"]
    assert (result["certified"], result["near_fold"], result["holes"]) == \
        counts
    assert result["near_fold"] == solved["n_folds"]
    assert result["certified"] + result["holes"] == \
        solved["n_points"] - solved["n_folds"]


def _one_seed(raw):
    raw.update(seeds=raw["seeds"][:1], coefficients=[2.0])


def _positive_x(raw):
    raw["sampling"]["box"]["x"] = [0.2, 1.0]


@pytest.mark.parametrize("seed, change, counts", [
    # p^t scanned above p = 0.1: most points have no root there
    ({"T": "p^t + p"}, lambda raw: raw.update(branch={"p_lo": 0.1}),
     (152, 0, 324)),
    ({"Q": "y^2/2 + y*sqrt(p + 11)", "T": "log(p + 11) + t*p"}, None,
     (800, 0, 0)),
    # a call between p and y, as in call_one (see _call_one)
    ({"Q": "y^2/2 + y*p^2/2 + sin(y*p)/10"}, _one_seed, (400, 0, 0)),
    # p^5 compiles to ** and x > 0 puts every root below 0
    ({"T": "t*p + p + p^5"}, _positive_x, (800, 0, 0)),
], ids=["p_pow_t", "sqrt_and_log", "sin_yp", "p5_negative"])
def test_fdcheck_certifies_calls_and_powers_to_rounding(seed, change, counts,
                                                        tmp_path):
    # general_balanced with seed 0 changed: the complex step goes through
    # every compiled call and power with a complex argument
    raw = json.loads(Path(scenario_path("general_balanced")).read_text())
    raw["seeds"][0].update(seed)
    if change:
        change(raw)
    report = tmp_path / "fdcheck.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fdcheck", write_scenario(tmp_path, raw), "--points",
                     "400", "--report", str(report)]) == 0
    result = json.loads(report.read_text())["result"]
    assert (result["certified"], result["near_fold"], result["holes"]) == \
        counts
    assert result["max_deviation"] <= 1e-14


@pytest.mark.parametrize("name", ["shock_n2", "shock_n3", "general_balanced",
                                  "general_unbalanced", "trivial_overlap"])
def test_fdcheck_fails_a_wrong_partial(name, tmp_path, monkeypatch, capsys):
    # p_y -> 1.7 p_y + 0.3, as in test_violate_mode_fails_a_derivative_bug.
    # The oracle reads Phi and the family's q and r, never the closed-form
    # partials, so the error shows on every shipped scenario.
    implicit = calculus._implicit

    def skewed(point, p, D, phi, q, r):
        phi = (1.7 * phi[0] - 0.3 * D, phi[1], phi[2])
        return implicit(point, p, D, phi, q, r)

    monkeypatch.setattr(calculus, "_implicit", skewed)
    report = tmp_path / "fdcheck.json"
    assert main(["fdcheck", scenario_path(name), "--report",
                 str(report)]) == 1
    assert "complex-step deviation above tolerance" in \
        capsys.readouterr().out
    deviations = json.loads(report.read_text())["result"]["deviations"]
    assert min(devs["p_y"] for devs in deviations) >= 0.2


def test_infinite_root_derivative_is_a_hole(tmp_path, monkeypatch):
    # Phi = x + sqrt(p) - 0.3: at x = 0.3 the root p = 0 is a grid node
    # where dPhi/dp = 1/(2 sqrt(p)) is infinite; at x = 0.1 it is p = 0.04
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path, {
        "family": "general",
        "shared": {"alpha": "t", "beta": "y", "delta": "z"},
        "seeds": [{"Q": "0", "R": "0", "T": "sqrt(p) - 0.3"}],
        "coefficients": [1.0],
        "sampling": {"points": [[0.3, 1.0, 1.0, 1.0], [0.1, 1.0, 1.0, 1.0]]},
        "branch": {"p_lo": -1.0, "p_hi": 1.0, "resolution": 1025},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", path]) == 0
        report = json.loads(Path("case.report.json").read_text())["report"]
        assert (report["n_admissible"], report["n_holes"]) == (1, 1)
        assert main(["sample", path, "--out", "case.csv"]) == 0
        rows = Path("case.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["hole", "ok"]
        assert main(["fdcheck", path]) == 0
        result = json.loads(Path("case.report.json").read_text())["result"]
        assert (result["certified"], result["holes"]) == (1, 1)


@pytest.mark.parametrize("name", ["shock_n2", "shock_n3", "trivial_overlap"])
def test_balance_checks_the_reduced_condition_on_shock_seeds(name,
                                                             shipped_runs):
    # on a shock seed (q_p, r_p, Phi_t) = F'(p) (beta', delta', alpha'), so
    # both factors of each pair's reduced term cancel to rounding
    code, report, _ = shipped_runs[name, "balance"]
    assert code == 0
    result = report["result"]
    assert result["reduced"]["count"] == result["pairwise"]["count"] > 0
    assert result["reduced"]["max"] <= 1e-15


@pytest.mark.parametrize("name", SHIPPED)
def test_balance_and_fdcheck_cover_every_pair_and_seed(name, shipped_runs):
    # at shipped size: balance reads a reduced term wherever it reads a
    # pairwise one, and fdcheck writes one deviation table per seed
    seeds = len(json.loads(Path(scenario_path(name)).read_text())["seeds"])
    (balance_code, balance, _), (fdcheck_code, fdcheck, _) = (
        shipped_runs[name, command] for command in ("balance", "fdcheck"))
    assert (balance_code, fdcheck_code) == (0, 0)
    result = balance["result"]
    assert result["reduced"]["count"] == result["pairwise"]["count"] > 0
    assert len(fdcheck["result"]["deviations"]) == seeds


def test_fdcheck_reports_each_seeds_deviations(tmp_path, capsys):
    # 4 100 points are two slices; each seed's entry folds both of them
    sc = load_scenario(scenario_path("shock_n3"))
    report = tmp_path / "report.json"
    assert main(["fdcheck", scenario_path("shock_n3"), "--points", "4100",
                 "--report", str(report)]) == 0
    result = json.loads(report.read_text())["result"]
    family = sc.build_family()
    cloud, _ = solve_point(family, sc.points(count=4100), sc.policy)
    assert len(result["deviations"]) == family.size
    for i, devs in enumerate(result["deviations"]):
        assert sorted(devs) == sorted(calculus.FieldSample.PARTIAL_NAMES)
        assert devs == certify_sample(cloud.samples[i], family, i).deviations
    assert max(max(devs.values()) for devs in result["deviations"]) == \
        result["max_deviation"]


def test_balance_violate_with_one_seed_observes_nothing(tmp_path, capsys):
    # one seed has no pair, so no reduced term to read a violation from
    path = write_scenario(tmp_path, dict(BASE, expect="violate"))
    report = tmp_path / "report.json"
    assert main(["balance", path, "--report", str(report)]) == 1
    payload = json.loads(report.read_text())
    assert payload["result"]["reduced"]["count"] == 0
    assert payload["failures"] == ["expected balance violation not observed"]


def _call_one(tmp_path):
    """call_one.json: general_balanced's first seed with sin(y*p) in Q, a
    relation the scan cannot bound."""
    raw = json.loads(Path(scenario_path("general_balanced")).read_text())
    _one_seed(raw)
    raw["seeds"][0]["Q"] = "y^2/2 + y*p^2/2 + sin(y*p)/10"
    return write_scenario(tmp_path, raw, "call_one.json")


@pytest.fixture(scope="module")
def shipped_runs(tmp_path_factory):
    """Each command once on each shipped scenario and on call_one, at
    shipped size: (exit code, report, compile_expr calls made after the
    family's build) by (scenario, command).  A RuntimeWarning raises in
    the run, and fails every test that reads it (see pyproject.toml)."""
    tmp_path = tmp_path_factory.mktemp("shipped_runs")
    compile_expr = exprdsl.compile_expr
    build = Scenario.build_family
    calls, runs = [], {}
    with pytest.MonkeyPatch.context() as mp:
        def counted_after_build(scenario):
            family = build(scenario)
            mp.setattr(exprdsl, "compile_expr",
                       lambda *a: calls.append(a) or compile_expr(*a))
            return family

        mp.setattr(Scenario, "build_family", counted_after_build)
        for name in SHIPPED + (PROBE, "call_one"):
            path = _call_one(tmp_path) if name == "call_one" \
                else scenario_path(name)
            for command in COMMANDS:
                mp.setattr(exprdsl, "compile_expr", compile_expr)
                report = tmp_path / f"{name}.{command}.json"
                code = main([command, path, "--report", str(report),
                             "--out", str(tmp_path / "sample.csv")])
                runs[name, command] = (code, json.loads(report.read_text()),
                                       calls[:])
                calls.clear()
    return runs


@pytest.mark.parametrize("name", SHIPPED + ("call_one",))
def test_commands_compile_nothing_after_the_build(name, shipped_runs):
    # the family's build compiles every expression a command evaluates,
    # the scan's bound program included; every command exits 0
    for command in COMMANDS:
        code, _report, calls = shipped_runs[name, command]
        assert code == 0, command
        assert calls == [], command
