import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import heavenly
from heavenly.cliapp import (
    MAX_POINTS,
    MAX_RESOLUTION,
    ScenarioError,
    csv_header,
    load_scenario,
    _PCG64,
    main,
    scrambled_halton,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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
        for name in ("shock_n2", "shock_n3", "general_unbalanced",
                     "general_balanced", "trivial_overlap"):
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


def test_fdcheck_counts_solve_folds_as_near_fold(tmp_path, monkeypatch):
    # x + p^3 - p on [-1, 0]: just past x = -2/(3 sqrt 3) the lowest root
    # sits 8e-5 from the fold at p = -1/sqrt(3), so |D| ~ 3e-4 < 1e-3
    monkeypatch.chdir(tmp_path)
    x_fold = -2.0 / (3.0 * 3.0 ** 0.5)
    path = write_scenario(tmp_path, {
        "family": "general",
        "shared": {"alpha": "t", "beta": "y", "delta": "z"},
        "seeds": [{"Q": "0", "R": "0", "T": "p^3 - p"}],
        "coefficients": [1.0],
        "sampling": {"points": [[x_fold + 1e-8, 1.0, 1.0, 1.0],
                                [-0.2, 1.0, 1.0, 1.0]]},
        "branch": {"p_lo": -1.0, "p_hi": 0.0, "resolution": 16384},
    })
    assert main(["fdcheck", path]) == 0
    result = json.loads(Path("case.report.json").read_text())["result"]
    assert (result["certified"], result["near_fold"], result["holes"]) == \
        (1, 1, 0)


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
