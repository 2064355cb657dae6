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
from heavenly.calculus import FieldSample, compat_residuals, ghe_residual
from heavenly.implicitsolve import BranchPolicy, enumerate_roots
from heavenly.registry import build_general_family, build_shock_family
from heavenly.superpose import (
    SuperposeError,
    solve_point,
    superpose,
    verify_theorem,
)


def two_seed_family():
    return build_shock_family([quadratic_shock_def(), second_shock_def()],
                              simple_shared())


class TestSuperpose:
    def test_identity(self):
        fam = two_seed_family()
        point = (1.0, 1.0, 1.0, 1.0)
        root = enumerate_roots(fam.relation(0), point)[0].root
        s = fam.sample(0, point, root)
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
        s1 = fam.sample(0, p1, enumerate_roots(fam.relation(0), p1)[0].root)
        s2 = fam.sample(1, p2, enumerate_roots(fam.relation(1), p2)[0].root)
        with pytest.raises(SuperposeError, match="point mismatch"):
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
        fam = build_general_family(list(unbalanced_general_pair()),
                                   simple_shared())
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
