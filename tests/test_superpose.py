import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from _families import (
    halton_cloud,
    quadratic_shock_def,
    random_shock_family,
    second_shock_def,
    sf,
    simple_shared,
    unbalanced_general_pair,
)
from heavenly import implicitsolve, superpose as superpose_module
from heavenly.calculus import FieldSample, compat_residuals, ghe_residual
from heavenly.cliapp import load_scenario
from heavenly.fdoracle import certify_sample
from heavenly.implicitsolve import BranchPolicy, enumerate_roots
from heavenly.registry import GeneralFamily, ShockFamily
from heavenly.superpose import (
    SuperposeError,
    solve_point,
    superpose,
    verify_theorem,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ("shock_n2", "shock_n3", "general_balanced", "general_unbalanced",
           "trivial_overlap")


def two_seed_family():
    return ShockFamily([quadratic_shock_def(), second_shock_def()],
                       simple_shared())


class TestSuperpose:
    def test_identity(self):
        fam = two_seed_family()
        point = (1.0, 1.0, 1.0, 1.0)
        root = enumerate_roots(fam.relation(0), point)[0]
        s = fam.sample(0, point, root.root, root.deriv)
        out = superpose([s], [1.0])
        for name in ("p", "q", "r") + FieldSample.PARTIAL_NAMES:
            assert getattr(out, name) == getattr(s, name)

    def test_worked_two_seed_combination(self):
        # seeds F1=p^2/2, G1=p and F2=p^2, G2=0 at (1,1,1,1):
        # roots -1/4 and -1/6, so 2 p1 - p2 = -1/3
        fam = two_seed_family()
        point = (1.0, 1.0, 1.0, 1.0)
        cloud, failure = solve_point(fam, point, BranchPolicy())
        assert failure is None
        samples = cloud.samples
        assert samples[0].p == pytest.approx(-0.25, rel=1e-12)
        assert samples[1].p == pytest.approx(-1.0 / 6.0, rel=1e-12)
        out = superpose(samples, [2.0, -1.0])
        assert out.p == pytest.approx(-1.0 / 3.0, rel=1e-12)

    def test_point_mismatch_rejected(self):
        fam = two_seed_family()
        p1 = (1.0, 1.0, 1.0, 1.0)
        p2 = (1.0, 1.0, 1.0, 1.5)
        r1 = enumerate_roots(fam.relation(0), p1)[0]
        r2 = enumerate_roots(fam.relation(1), p2)[0]
        s1 = fam.sample(0, p1, r1.root, r1.deriv)
        s2 = fam.sample(1, p2, r2.root, r2.deriv)
        with pytest.raises(SuperposeError, match="point mismatch"):
            superpose([s1, s2], [1.0, 1.0])

    @pytest.mark.parametrize("other, message", [
        ([[1.0, 1.0, 1.0, 1.0], [0.5, 1.0, 1.0, 1.0]],
         "point mismatch: 2 points vs 1"),
        ([[1.0, 1.0, np.nan, 1.0]],
         r"point mismatch at row 0: \[1.0, 1.0, nan, 1.0\]"),
    ])
    def test_other_cloud_rejected(self, other, message):
        # a different number of rows, or a nan coordinate, is no match
        fam = two_seed_family()
        r1 = enumerate_roots(fam.relation(0), [[1.0, 1.0, 1.0, 1.0]])
        r2 = enumerate_roots(fam.relation(1), [[1.0, 1.0, 1.0, 1.0]])
        s1 = fam.sample(0, [[1.0, 1.0, 1.0, 1.0]], r1.root, r1.deriv)
        s2 = fam.sample(1, other, np.full(len(other), r2.root[0]),
                        np.full(len(other), r2.deriv[0]))
        with pytest.raises(SuperposeError, match=message):
            superpose([s1, s2], [1.0, 1.0])

    def test_projection_coefficients(self):
        fam = two_seed_family()
        point = (0.4, 1.1, 0.9, 0.8)
        cloud, _ = solve_point(fam, point, BranchPolicy())
        samples = cloud.samples
        out = superpose(samples, [1.0, 0.0])
        rep_out = ghe_residual(out, fam.shared)
        rep_seed = ghe_residual(samples[0], fam.shared)
        assert rep_out.value == rep_seed.value


def load(name, tmp_path):
    """A shipped scenario, or call_one: one general_balanced seed whose Q
    holds sin(y*p), a relation the scan cannot bound."""
    if name != "call_one":
        return load_scenario(SCENARIO_DIR / f"{name}.json")
    raw = json.loads((SCENARIO_DIR / "general_balanced.json").read_text())
    raw.update(seeds=raw["seeds"][:1], coefficients=[2.0])
    raw["seeds"][0]["Q"] = "y^2/2 + y*p^2/2 + sin(y*p)/10"
    path = tmp_path / "call_one.json"
    path.write_text(json.dumps(raw))
    return load_scenario(path)


class TestOneDPerRoot:
    """dPhi/dp is evaluated once at every root enumerate_roots gives; the
    fold test, the implicit step and the complex-step oracle read that
    value."""

    @pytest.mark.parametrize("name", SHIPPED + ("call_one",))
    def test_sample_keeps_the_root_table_D(self, name, tmp_path):
        sc = load(name, tmp_path)
        fam = sc.build_family()
        cloud, _ = solve_point(fam, sc.points(count=400, seed=3), sc.policy)
        pts = cloud.points[cloud.admissible]
        assert len(pts) > 100
        for i, s in enumerate(cloud.samples):
            table = enumerate_roots(fam.relation(i), pts, sc.policy)
            pick = table.select(sc.policy)
            assert s.p.tobytes() == table.root[pick].tobytes()
            assert s.Phi_p.tobytes() == table.deriv[pick].tobytes()
            assert s.p_x.tobytes() == (-1.0 / s.Phi_p).tobytes()

    @pytest.mark.parametrize("name", ["shock_n3", "general_balanced",
                                      "call_one"])
    def test_sample_and_oracle_call_no_dphi(self, name, tmp_path,
                                            monkeypatch):
        sc = load(name, tmp_path)
        fam = sc.build_family()
        cloud, _ = solve_point(fam, sc.points(count=300, seed=3), sc.policy)
        certs = [certify_sample(s, fam, i) for i, s in
                 enumerate(cloud.samples)]

        def raising(*args):
            raise AssertionError("dPhi/dp evaluated again")

        monkeypatch.setattr(fam, "_relations", tuple(
            dataclasses.replace(fam.relation(i), dphi=raising)
            for i in range(fam.size)))
        pts = cloud.points[cloud.admissible]
        for i, s in enumerate(cloud.samples):
            again = fam.sample(i, pts, s.p, s.Phi_p)
            for field in dataclasses.fields(FieldSample):
                assert getattr(again, field.name).tobytes() == \
                    getattr(s, field.name).tobytes(), field.name
            assert certify_sample(again, fam, i) == certs[i]

    @pytest.mark.parametrize("name", SHIPPED + ("call_one",))
    def test_one_dphi_lane_per_root(self, name, tmp_path, monkeypatch):
        # the lanes evaluated outside Newton's steps, over the cloud solve,
        # the samples and their certification
        sc = load(name, tmp_path)
        fam = sc.build_family()
        counts = {"newton": 0, "outside": 0, "roots": 0}
        newton = implicitsolve._newton

        def in_newton(*args):
            counts["newton"] += 1
            try:
                return newton(*args)
            finally:
                counts["newton"] -= 1

        def counting(*args):
            table = enumerate_roots(*args)
            counts["roots"] += len(table)
            return table

        def wrap(dphi):
            def lanes(*args):
                if not counts["newton"]:
                    counts["outside"] += np.broadcast(
                        *map(np.asarray, args)).size
                return dphi(*args)
            return lanes

        monkeypatch.setattr(fam, "_relations", tuple(
            dataclasses.replace(fam.relation(i),
                                dphi=wrap(fam.relation(i).dphi))
            for i in range(fam.size)))
        monkeypatch.setattr(implicitsolve, "_newton", in_newton)
        monkeypatch.setattr(superpose_module, "enumerate_roots", counting)
        cloud, _ = solve_point(fam, sc.points(count=300, seed=3), sc.policy)
        for i, s in enumerate(cloud.samples):
            certify_sample(s, fam, i)
        assert counts["roots"] >= 300
        assert counts["outside"] == counts["roots"]


class TestVerifyTheorem:
    def test_shock_positive_control(self):
        fam = two_seed_family()
        rep = verify_theorem(fam, [2.0, -1.0], halton_cloud(200, seed=12))
        assert rep.n_admissible >= 190
        assert rep.checks["superposed_ghe"]["max"] <= 1e-9
        assert rep.checks["n_term_balance"]["max"] <= 1e-9
        assert rep.pass_fraction >= 0.99

    def test_random_polynomial_families(self):
        rng = np.random.default_rng(2024)
        fam = random_shock_family(rng, 2)
        pts = halton_cloud(500, seed=13)
        rep = verify_theorem(fam, list(rng.uniform(-3, 3, 2)), pts)
        assert rep.n_admissible >= 450
        assert rep.checks["superposed_ghe"]["max"] <= 1e-9

    def test_negative_control(self):
        fam = GeneralFamily(list(unbalanced_general_pair()), simple_shared())
        pts = [(-abs(x) - 0.2, y, z, t)
               for (x, y, z, t) in halton_cloud(200, seed=14)]
        rep = verify_theorem(fam, [1.0, 1.0], pts)
        assert rep.checks["seed_ghe"]["max"] <= 1e-10
        assert rep.checks["superposed_ghe"]["median"] > 1e-3
        assert rep.pass_fraction < 0.5

    def test_compat_linearity(self):
        # the two compatibility relations are linear, so the superposed
        # compat residuals equal the weighted sums of the seed residuals
        fam = two_seed_family()
        coeffs = [1.7, -0.6]
        cloud, failure = solve_point(fam, halton_cloud(30, seed=15),
                                     BranchPolicy())
        assert failure is None
        samples = cloud.samples
        out = superpose(samples, coeffs)
        for k in range(2):
            got = compat_residuals(out)[k].value
            want = sum(c * compat_residuals(s)[k].value
                       for c, s in zip(coeffs, samples))
            assert got == pytest.approx(want, abs=1e-15)

    def test_quadratic_identity_everywhere(self):
        rng = np.random.default_rng(77)
        fam = random_shock_family(rng, 3)
        rep = verify_theorem(fam, list(rng.uniform(-3, 3, 3)),
                             halton_cloud(300, seed=16))
        assert rep.checks["quadratic_identity"]["max"] <= 1e-12

    def test_coefficient_count_enforced(self):
        fam = two_seed_family()
        with pytest.raises(SuperposeError):
            verify_theorem(fam, [1.0], halton_cloud(4, seed=17))

    def test_holes_reported(self):
        # narrow scan interval that misses every root
        fam = two_seed_family()
        pol = BranchPolicy(p_lo=5.0, p_hi=6.0, resolution=32)
        rep = verify_theorem(fam, [1.0, 1.0], halton_cloud(10, seed=18),
                             policy=pol)
        assert rep.n_holes == 10
        assert rep.n_admissible == 0


def test_superpose_submodule_is_not_shadowed():
    import types

    import heavenly
    from heavenly import superpose as imported

    assert isinstance(heavenly.superpose, types.ModuleType)
    assert imported is heavenly.superpose
    assert "superpose" not in heavenly.__all__


def test_public_names_resolve():
    import heavenly

    missing = [name for name in heavenly.__all__
               if not hasattr(heavenly, name)]
    assert missing == []
