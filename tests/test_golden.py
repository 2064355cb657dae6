"""Equivalence with the per-point scalar engine this array engine replaced.

tests/data/golden_scalar.json was recorded with that scalar engine: for
each case the cloud, every root enumerate_roots found per point and seed
(value and converged flag), the solve_point label per point, the
TheoremReport counts, and the verdict and counts of verify, balance and
fdcheck on each shipped scenario at its shipped size.  Cases are the five
shipped scenarios at 200 points, three acceptance-bank families, a narrow
scan that leaves holes and a cubic relation sampled across its fold.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from _families import random_shock_family, sf, simple_shared
from heavenly.cliapp import load_scenario, main
from heavenly.implicitsolve import BranchPolicy, enumerate_roots
from heavenly.registry import GeneralFamily, GeneralSolutionDef
from heavenly.superpose import STATUS, solve_point, verify_theorem
from test_acceptance import BANK_SEED, SEED_COUNTS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "data" /
                     "golden_scalar.json").read_text())


def scenario(name):
    return load_scenario(ROOT / "scenarios" / f"{name}.json")


def bank_family(index):
    """Family and coefficients number `index` of the acceptance bank."""
    rng = np.random.default_rng(BANK_SEED)
    for k in range(index + 1):
        n = SEED_COUNTS[k % len(SEED_COUNTS)]
        fam = random_shock_family(rng, n)
        coeffs = [float(c) for c in rng.uniform(-3.0, 3.0, n)]
    return fam, coeffs


def build(case):
    """(family, coefficients, policy) of a recorded case."""
    policy = BranchPolicy(*case["policy"])
    if case["source"] == "scenario":
        sc = scenario(case["name"])
        return sc.build_family(), sc.coefficients, sc.policy
    if case["source"] == "bank":
        return (*bank_family(case["index"]), policy)
    if case["source"] == "holes":
        sc = scenario("shock_n2")
        return sc.build_family(), sc.coefficients, policy
    cubic = GeneralSolutionDef(Q=sf("0", ("p", "y")), R=sf("0", ("p", "z")),
                               T=sf("p^3 - p", ("p", "t")))
    return GeneralFamily([cubic], simple_shared()), [1.0], policy


CASES = GOLDEN["cases"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_roots_labels_and_counts(case):
    fam, coeffs, policy = build(case)
    pts = np.array(case["points"])
    for i in range(fam.size):
        table = enumerate_roots(fam.relation(i), pts, policy)
        for k, want in enumerate(case["roots"]):
            rows = np.flatnonzero(table.owner == k)
            got = [(table.root[r], table.converged[r]) for r in rows]
            assert len(got) == len(want[i]), (k, i)
            for (root, conv), (ref, ref_conv) in zip(got, want[i]):
                assert abs(root - ref) <= 1e-12 * max(1.0, abs(ref))
                assert bool(conv) == ref_conv

    cloud, _ = solve_point(fam, pts, policy)
    labels = ["ok" if s == 0 else f"{STATUS[s]}:{i}"
              for s, i in zip(cloud.status, cloud.failed_seed)]
    assert labels == case["labels"]

    rep = verify_theorem(fam, coeffs, pts, policy=policy)
    counts = {k: getattr(rep, k) for k in case["counts"]}
    assert counts == case["counts"]


def _counts(command, payload):
    if command == "verify":
        r = payload["report"]
        return {k: r[k] for k in ("n_points", "n_admissible", "n_holes",
                                  "n_folds")}
    r = payload["result"]
    if command == "balance":
        return {"admissible": r["admissible"],
                **{k: r[k]["count"] for k in ("pairwise", "n_term",
                                              "reduced")}}
    return {k: r[k] for k in ("certified", "near_fold", "holes")}


@pytest.mark.parametrize("key", sorted(GOLDEN["verdicts"]))
def test_shipped_verdicts(key, tmp_path):
    command, name = key.split()
    want = GOLDEN["verdicts"][key]
    report = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, str(ROOT / "scenarios" / f"{name}.json"),
                     "--report", str(report)])
    payload = json.loads(report.read_text())
    assert code == want["exit"]
    assert payload["failures"] == want["failures"]
    assert _counts(command, payload) == want["counts"]
