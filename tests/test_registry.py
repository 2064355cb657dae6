import json
from pathlib import Path

import numpy as np
import pytest

from _families import BOX_HIGHS, BOX_LOWS, Y_POLYNOMIALS, Z_POLYNOMIALS, \
    halton_cloud, polynomial_antiderivative, quadratic_shock_def, \
    random_shock_family, second_shock_def, sf, shock_def_as_general, \
    simple_shared
from heavenly import cliapp
from heavenly.exprdsl import ExprError, evaluate, to_source
from heavenly.implicitsolve import enumerate_roots
from heavenly.registry import (
    FamilyError,
    GeneralFamily,
    GeneralSolutionDef,
    SharedProfile,
    ShockFamily,
    ShockSolutionDef,
)
from heavenly.superpose import solve_point, verify_theorem


class TestSharedProfile:
    def test_zero_constants_rejected(self):
        with pytest.raises(FamilyError):
            simple_shared(a=0.0, b=0.0)

    def test_variable_convention(self):
        with pytest.raises(FamilyError, match="variable convention"):
            SharedProfile(alpha=sf("y", ("y",)), beta=sf("y", ("y",)),
                          delta=sf("z", ("z",)))


class TestBuildShockFamily:
    def test_single_seed(self):
        fam = ShockFamily([quadratic_shock_def()], simple_shared())
        assert fam.size == 1

    def test_empty_rejected(self):
        with pytest.raises(FamilyError, match="empty family"):
            ShockFamily([], simple_shared())

    def test_two_seeds(self):
        fam = ShockFamily([quadratic_shock_def(), second_shock_def()],
                          simple_shared())
        assert fam.size == 2

    def test_wrong_variable_rejected(self):
        with pytest.raises(FamilyError, match="variable convention"):
            ShockSolutionDef(F=sf("y^2", ("y",)), G=sf("p", ("p",)),
                             m=sf("0", ("y",)), n=sf("0", ("z",)))

    def test_differentiation_domain_failure_on_probes(self):
        # log(p)'' = -1/p^2 blows up only at 0; log of a negative-definite
        # argument fails at every probe point
        bad = ShockSolutionDef(F=sf("log(0 - p^2 - 1)", ("p",)),
                               G=sf("p", ("p",)),
                               m=sf("0", ("y",)), n=sf("0", ("z",)))
        with pytest.raises(FamilyError, match="domain failure"):
            ShockFamily([bad], simple_shared())


class TestBuildGeneralFamily:
    def test_single_seed(self):
        g = GeneralSolutionDef(Q=sf("p^2*y/2", ("p", "y")),
                               R=sf("p^2*z/2", ("p", "z")),
                               T=sf("p", ("p", "t")))
        fam = GeneralFamily([g], simple_shared())
        assert fam.size == 1

    def test_variable_convention(self):
        with pytest.raises(FamilyError, match="variable convention"):
            GeneralSolutionDef(Q=sf("p*z", ("p", "z")),
                               R=sf("p^2*z/2", ("p", "z")),
                               T=sf("p", ("p", "t")))

    def test_t_constant_in_p_accepted(self):
        g = GeneralSolutionDef(Q=sf("p^2*y/2", ("p", "y")),
                               R=sf("p^2*z/2", ("p", "z")),
                               T=sf("t", ("p", "t")))
        fam = GeneralFamily([g], simple_shared())
        assert fam.size == 1

    def test_unread_T_partial_is_not_probed(self):
        # d11T holds ((p+0.73)(p-0.11)(p-0.97))^-0.5, infinite at every
        # probe point.  No check reads it (D comes from the relation), so
        # the general_balanced family with this second seed builds, and its
        # seeds solve the equation where they are admissible.
        seeds = [GeneralSolutionDef(Q=sf("y^2/2 + y*p^2/2", ("p", "y")),
                                    R=sf("z*p^2/2", ("p", "z")),
                                    T=sf("t*p + p", ("p", "t"))),
                 GeneralSolutionDef(
                     Q=sf("y*p^2", ("p", "y")), R=sf("z*p^2", ("p", "z")),
                     T=sf("((p+0.73)*(p-0.11)*(p-0.97))^1.5*t + 2*t*p",
                          ("p", "t")))]
        fam = GeneralFamily(seeds, simple_shared())
        rep = verify_theorem(fam, [2.0, -1.0], halton_cloud(100, seed=3))
        assert rep.n_admissible > 0
        assert rep.checks["seed_ghe"]["max"] <= 1e-12


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ("shock_n2", "shock_n3", "general_balanced", "general_unbalanced",
           "trivial_overlap")
# the partials a sample reads, which the build check compiles and probes
SAMPLE_READS = {
    "shock": {"F": {(0,), (1,)}, "G": set(), "m": {(0,), (1,)},
              "n": {(0,), (1,)}, "alpha": set(), "beta": {(1,), (2,)},
              "delta": {(1,), (2,)}},
    "general": {"Q": {(0, 1), (1, 1), (0, 2)},
                "R": {(0, 1), (1, 1), (0, 2)}, "T": set(),
                "alpha": set(), "beta": set(), "delta": set()},
}


def compiled_orders(family):
    """Per seed, each function's compiled partials, the shared ones too."""
    return [{attr: set(getattr(obj, attr)._compiled)
             for obj in (d, family.shared) for attr in obj.VARIABLES}
            for d in family.defs]


def shock_n2_variant(tmp_path, edit):
    raw = json.loads((SCENARIOS / "shock_n2.json").read_text())
    edit(raw)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestBuildCheck:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_compiles_what_a_sample_reads(self, name):
        sc = cliapp.load_scenario(SCENARIOS / f"{name}.json")
        family = sc.build_family()
        assert compiled_orders(family) == \
            [SAMPLE_READS[sc.family_kind]] * family.size

    @pytest.mark.parametrize("name", SHIPPED)
    def test_the_commands_evaluate_nothing_unprobed(self, name, tmp_path,
                                                    monkeypatch):
        sc = cliapp.load_scenario(SCENARIOS / f"{name}.json")
        family = sc.build_family()
        built = compiled_orders(family)
        monkeypatch.setattr(cliapp.Scenario, "build_family",
                            lambda self: family)
        monkeypatch.chdir(tmp_path)
        for command in ("verify", "balance", "sample", "fdcheck"):
            assert cliapp.main([command, str(SCENARIOS / f"{name}.json"),
                                "--points", "40"]) == 0
        assert compiled_orders(family) == built

    def test_a_partial_read_only_through_phi_names_phi(self, tmp_path,
                                                       capsys):
        path = shock_n2_variant(
            tmp_path, lambda raw: raw["seeds"][1].update(G="sqrt(p*p - p*p)"))
        assert cliapp.main(["verify", path, "--report",
                            str(tmp_path / "r.json")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("configuration error: differentiation domain failure: "
                       "dPhi/dp of seed 1 not evaluable at any probe point\n")

    def test_a_vanishing_D_at_the_probe_points_builds(self, tmp_path):
        # D = (t + y - 2z) F'' vanishes on the diagonal x = y = z = t = p
        # that the build check evaluates; p_x = -1/D is no probe target
        def d_zero(raw):
            raw["shared"].update(alpha="t", beta="y", delta="0 - 2*z")
            for seed in raw["seeds"]:
                seed["G"] = "0"

        path = shock_n2_variant(tmp_path, d_zero)
        assert cliapp.main(["verify", path, "--report",
                            str(tmp_path / "r.json")]) == 0


class TestPolynomialAntiderivative:
    @pytest.mark.parametrize("source, x, expected", [
        ("0", 2.0, 0.0),
        ("3", 2.0, 6.0),
        ("y", 2.0, 2.0),
        ("y^2/2", 3.0, 4.5),
        ("2*y + 1", 2.0, 6.0),
        ("y^3 - y", 2.0, 2.0),
    ])
    def test_values(self, source, x, expected):
        from heavenly.exprdsl import parse
        anti = polynomial_antiderivative(parse(source, ("y",)), "y")
        assert evaluate(anti, {"y": x}) == pytest.approx(expected)

    def test_rejects_non_polynomial(self):
        from heavenly.exprdsl import parse
        with pytest.raises(ExprError, match="not a polynomial"):
            polynomial_antiderivative(parse("sin(y)", ("y",)), "y")


class TestShockGeneralEmbedding:
    def test_q_values_agree(self):
        # polynomial m so the antiderivative exists symbolically
        shared = simple_shared()
        sdef = ShockSolutionDef(F=sf("p^2/2 + p^4/4", ("p",)),
                                G=sf("p", ("p",)),
                                m=sf("y^2/2 + y", ("y",)),
                                n=sf("z^3/3", ("z",)))
        gdef = shock_def_as_general(sdef, shared)
        shock_fam = ShockFamily([sdef], shared)
        general_fam = GeneralFamily([gdef], shared)
        points = [(0.3, 1.1, 0.9, 0.7), (-0.5, 0.6, 1.4, 1.2),
                  (0.9, 1.3, 0.8, 0.5)]
        for point in points:
            r1 = enumerate_roots(shock_fam.relation(0), point)
            r2 = enumerate_roots(general_fam.relation(0), point)
            assert r1 and r2
            assert r1[0].root == pytest.approx(r2[0].root, rel=1e-10)
            _, q1, rr1 = shock_fam.values(0, point, r1[0].root)
            _, q2, rr2 = general_fam.values(0, point, r2[0].root)
            assert q1 == pytest.approx(q2, rel=1e-10)
            assert rr1 == pytest.approx(rr2, rel=1e-10)

    @pytest.mark.parametrize("draw", range(15))
    def test_random_twins_pass_verify_and_balance(self, draw, tmp_path,
                                                  capsys):
        # a random shock family and its general-form twin both pass every
        # gate of verify and balance, and find the same roots
        rng = np.random.default_rng(20261021 + draw)
        family = random_shock_family(rng, 2 + draw % 2, Y_POLYNOMIALS,
                                     Z_POLYNOMIALS)
        shared = family.shared
        twin = [shock_def_as_general(d, shared) for d in family.defs]
        base = {
            "constants": {"a": shared.a, "b": shared.b},
            "shared": {k: to_source(getattr(shared, k).expr)
                       for k in ("alpha", "beta", "delta")},
            "coefficients": rng.uniform(-3.0, 3.0, family.size).tolist(),
            "sampling": {"box": {axis: [lo, hi] for axis, lo, hi
                                 in zip("xyzt", BOX_LOWS, BOX_HIGHS)},
                         "count": 60, "seed": draw}}
        clouds = []
        for kind, defs, fields in (("shock", family.defs, "FGmn"),
                                   ("general", twin, "QRT")):
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(dict(
                base, family=kind,
                seeds=[{f: to_source(getattr(d, f).expr) for f in fields}
                       for d in defs])))
            for command in ("verify", "balance"):
                assert cliapp.main([command, str(path), "--report",
                                    str(tmp_path / "r.json")]) == 0, \
                    (kind, command)
            sc = cliapp.load_scenario(path)
            clouds.append(solve_point(sc.build_family(), sc.points(),
                                      sc.policy)[0])
        shock, general = clouds
        _, i, j = np.intersect1d(shock.admissible, general.admissible,
                                 return_indices=True)
        assert len(i) > 0
        for s, g in zip(shock.samples, general.samples):
            assert np.all(np.abs(s.p[i] - g.p[j])
                          <= 1e-9 * (1.0 + np.abs(s.p[i])))
