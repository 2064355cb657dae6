"""Results do not depend on how a cloud is cut into solved slices.

Every command runs with superpose.CLOUD_CHUNK set to 7 rows (slices that
cut through runs of holes and folds), to 256 rows (one scan block) and to
more rows than the cloud; exit codes, stdout, reports and CSVs must be the
same bytes.  The slices of the golden hole and fold clouds must also add
up to the whole-cloud solve: statuses, failed seeds, samples and the first
failure.  Each command computes a slice's cross term of each seed pair once,
and the residual columns of `sample` are the arrays of
superpose.theorem_checks.  superpose.reduce_chunks joins the slices'
status counts, each lane check into one float64 buffer and other values
into one list, and `fdcheck` keeps a nan deviation of any slice.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from heavenly import calculus, cliapp, fdoracle, superpose
from heavenly.calculus import FIELD_NAMES
from heavenly.cliapp import MAX_POINTS, main
from test_golden import CASES, build

ROOT = Path(__file__).resolve().parent.parent
CHUNKS = (7, 256, MAX_POINTS)
GOLDEN = {case["name"]: case for case in CASES}


def _shipped(name):
    return json.loads((ROOT / "scenarios" / f"{name}.json").read_text())


def _holes():
    # shock_n2 scanned on [-0.2, 0.2]: 42 of the 200 points have no root
    raw = _shipped("shock_n2")
    raw["branch"] = {"p_lo": -0.2, "p_hi": 0.2, "resolution": 64}
    raw["sampling"] = {"points": GOLDEN["holes_narrow_scan"]["points"]}
    return raw


def _folds():
    # x + p^3 - p across its fold: 100 holes, 14 folds, 86 admissible
    return {
        "family": "general",
        "shared": {"alpha": "t", "beta": "y", "delta": "z"},
        "seeds": [{"Q": "0", "R": "0", "T": "p^3 - p"}],
        "coefficients": [1.0],
        "sampling": {"points": GOLDEN["folds_cubic"]["points"]},
        "branch": {"p_lo": -1.0, "p_hi": 0.0, "resolution": 16384},
    }


SCENARIOS = {
    "shock_n3": lambda: _shipped("shock_n3"),
    "general_balanced": lambda: _shipped("general_balanced"),
    "general_unbalanced": lambda: _shipped("general_unbalanced"),
    "holes": _holes,
    "folds": _folds,
}


def _run(command, path, chunk, tmp_path, monkeypatch, capsys):
    """Exit code, stdout, report and CSV bytes of one command."""
    monkeypatch.setattr(superpose, "CLOUD_CHUNK", chunk)
    report, csv = tmp_path / "report.json", tmp_path / "sample.csv"
    code = main([command, path, "--points", "300", "--seed", "3",
                 "--report", str(report), "--out", str(csv)])
    return (code, capsys.readouterr().out, report.read_bytes(),
            csv.read_bytes() if command == "sample" else None)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("command", ["verify", "balance", "fdcheck",
                                     "sample"])
def test_outputs_do_not_depend_on_the_chunk(command, name, tmp_path,
                                            monkeypatch, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SCENARIOS[name]()))
    runs = [_run(command, str(path), chunk, tmp_path, monkeypatch, capsys)
            for chunk in CHUNKS]
    assert runs[0][0] in (0, 1)
    assert runs[1:] == runs[:1] * (len(CHUNKS) - 1)


@pytest.mark.parametrize("name", ["holes_narrow_scan", "folds_cubic"])
def test_slices_add_up_to_the_whole_cloud(name, monkeypatch):
    family, _coeffs, policy = build(GOLDEN[name])
    pts = np.array(GOLDEN[name]["points"])
    whole, failure = superpose.solve_point(family, pts, policy)
    monkeypatch.setattr(superpose, "CLOUD_CHUNK", 7)
    slices = list(superpose.solve_chunks(family, pts, policy))

    assert [len(c.points) for c in slices] == \
        [len(part) for part in np.array_split(pts, range(7, len(pts), 7))]
    # runs of holes and folds cross slice boundaries
    assert sum(len(set(c.status.tolist())) > 1 for c in slices) > 1
    got = {attr: np.concatenate([getattr(c, attr) for c in slices])
           for attr in ("status", "failed_seed")}
    for attr, values in got.items():
        assert np.array_equal(values, getattr(whole, attr))
    for i, sample in enumerate(whole.samples):
        for field in FIELD_NAMES:
            values = np.concatenate([getattr(c.samples[i], field)
                                     for c in slices])
            assert values.tobytes() == getattr(sample, field).tobytes()
    # the whole cloud's first failure is the slices' first failed row
    bad = np.flatnonzero(got["status"] != superpose.OK)[0]
    assert failure == (superpose.STATUS[got["status"][bad]],
                       int(got["failed_seed"][bad]))
    for status in (superpose.HOLE, superpose.FOLD):
        assert sum(np.count_nonzero(c.status == status) for c in slices) \
            == np.count_nonzero(whole.status == status)
    # reduce_chunks joins each slice's lists in cloud order and sums the
    # status counts as Python ints, which json.dumps accepts
    joined, counts = superpose.reduce_chunks(
        family, pts, policy, lambda cloud: {"rows": [len(cloud.points)]})
    assert joined == {"rows": [len(c.points) for c in slices]}
    assert counts == [sum(np.count_nonzero(c.status == s) for c in slices)
                      for s in range(len(superpose.STATUS))]
    assert all(type(n) is int for n in counts)


@pytest.mark.parametrize("chunk", [7, 256])
def test_each_lane_check_is_one_buffer(chunk, monkeypatch):
    # 1 000 points: 143 slices of 7 rows, or 4 of 256
    monkeypatch.setattr(superpose, "CLOUD_CHUNK", chunk)
    scenario = cliapp.load_scenario(ROOT / "scenarios" / "shock_n3.json")
    family = scenario.build_family()
    points = scenario.points(count=1000)
    checks = lambda cloud: superpose.theorem_checks(
        cloud.samples, family.shared, scenario.coefficients)[1]
    joined, counts = superpose.reduce_chunks(family, points,
                                             scenario.policy, checks)

    expected = {}
    for cloud in superpose.solve_chunks(family, points, scenario.policy):
        for name, values in checks(cloud).items():
            expected.setdefault(name, []).extend(values)
    assert list(joined) == list(expected)
    for name, values in joined.items():
        assert type(values) is np.ndarray and values.dtype == np.float64
        assert values.ndim == 1 and values.flags.c_contiguous
        assert values.tobytes() == np.concatenate(expected[name]).tobytes()
    # seed_compat: two residuals for each of the 3 seeds at every point
    assert counts[superpose.OK] > 0
    assert joined["seed_compat"].size == 6 * counts[superpose.OK]


def test_an_empty_cloud_is_one_empty_slice():
    family, coeffs, policy = build(GOLDEN["shock_n3"])
    slices = list(superpose.solve_chunks(family, np.zeros((0, 4)), policy))
    assert [len(c.points) for c in slices] == [0]
    report = superpose.verify_theorem(family, coeffs, np.zeros((0, 4)),
                                      policy=policy)
    assert report.n_points == 0
    assert all(check["count"] == 0 for check in report.checks.values())


def test_a_nan_deviation_in_a_middle_slice_fails_fdcheck(tmp_path,
                                                         monkeypatch, capsys):
    # 300 points in slices of 64 are 5 slices; the nan is in the second.
    # Builtin max would drop it whichever operand order it takes.
    certify = fdoracle.certify_sample
    calls = []

    def nan_in_slice_two(sample, family, index):
        calls.append(index)
        cert = certify(sample, family, index)
        if len(calls) == family.size + 1:
            cert = cert.replace(
                deviations=dict(cert.deviations, p_x=float("nan")))
        return cert

    monkeypatch.setattr(fdoracle, "certify_sample", nan_in_slice_two)
    monkeypatch.setattr(superpose, "CLOUD_CHUNK", 64)
    report = tmp_path / "r.json"
    assert main(["fdcheck", str(ROOT / "scenarios" / "shock_n3.json"),
                 "--points", "300", "--report", str(report)]) == 1
    assert len(calls) == 5 * 3
    out = capsys.readouterr().out
    assert "max deviation: nan" in out
    assert "complex-step deviation above tolerance" in out
    result = json.loads(report.read_text())["result"]
    assert math.isnan(result["max_deviation"])
    assert math.isnan(result["deviations"][0]["p_x"])


@pytest.mark.parametrize("command", ["verify", "balance", "sample"])
def test_each_cross_term_once_per_slice(command, tmp_path, monkeypatch,
                                        capsys):
    # shock_n3 has 3 pairs; 600 points in slices of 256 are 3 slices
    calls = []
    original = calculus.pairwise_balance

    def counted(*args):
        calls.append(args)
        return original(*args)

    # every module that binds the function, so no call goes uncounted
    for module in (calculus, superpose, cliapp):
        if getattr(module, "pairwise_balance", None) is original:
            monkeypatch.setattr(module, "pairwise_balance", counted)
    monkeypatch.setattr(superpose, "CLOUD_CHUNK", 256)
    assert main([command, str(ROOT / "scenarios" / "shock_n3.json"),
                 "--points", "600", "--report", str(tmp_path / "r.json"),
                 "--out", str(tmp_path / "s.csv")]) == 0
    capsys.readouterr()
    assert len(calls) == 3 * 3


@pytest.mark.parametrize("name", ["general_balanced", "shock_n3"])
def test_csv_residuals_are_the_theorem_checks(name, tmp_path, monkeypatch):
    # 300 points in slices of 64 are 5 slices
    monkeypatch.setattr(superpose, "CLOUD_CHUNK", 64)
    path = ROOT / "scenarios" / f"{name}.json"
    csv = tmp_path / "sample.csv"
    assert main(["sample", str(path), "--points", "300", "--out", str(csv),
                 "--report", str(tmp_path / "r.json")]) == 0

    scenario = cliapp.load_scenario(path)
    family = scenario.build_family()
    expected = []
    for cloud in superpose.solve_chunks(family, scenario.points(count=300),
                                        scenario.policy):
        _sup, checks = superpose.theorem_checks(
            cloud.samples, family.shared, scenario.coefficients)
        expected.append(np.column_stack(
            checks["seed_ghe"] + checks["superposed_ghe"]
            + checks["superposed_compat"] + checks["n_term_balance"]))
    assert len(expected) == 5
    expected = np.concatenate(expected)

    header, *rows = [line.split(",")
                     for line in csv.read_text().splitlines()]
    res = [k for k, col in enumerate(header) if col.startswith("res_")]
    assert len(res) == family.size + 4
    got = np.array([[float(row[k]) for k in res]
                    for row in rows if row[1] == "ok"])
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
