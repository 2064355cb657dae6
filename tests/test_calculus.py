import warnings

import numpy as np
import pytest

from _families import (
    halton_cloud,
    quadratic_shock_def,
    second_shock_def,
    sf,
    simple_shared,
    unbalanced_general_pair,
)
from heavenly.calculus import (
    FIELD_NAMES,
    DegenerateSampleError,
    FieldSample,
    compat_residuals,
    general_derivatives,
    ghe_residual,
    n_term_balance,
    pairwise_balance,
    reduced_balance,
    shock_derivatives,
)
from heavenly.implicitsolve import BranchPolicy, enumerate_roots
from heavenly.registry import (
    GeneralSolutionDef,
    ShockSolutionDef,
    build_general_family,
    build_shock_family,
)
from heavenly.superpose import solve_point, superpose


class TestShockDerivatives:
    def test_worked_example(self):
        shared = simple_shared()
        s = shock_derivatives(quadratic_shock_def(), shared,
                              (1.0, 1.0, 1.0, 1.0), -0.25)
        assert s.p == -0.25
        assert s.p_x == pytest.approx(-0.25)
        assert s.p_y == pytest.approx(1.0 / 16.0)
        assert s.p_z == pytest.approx(1.0 / 16.0)
        assert s.p_t == pytest.approx(1.0 / 16.0)

    def test_constant_beta_kills_y_dependence(self):
        shared = simple_shared()
        shared = type(shared)(alpha=shared.alpha, beta=sf("2", ("y",)),
                              delta=shared.delta, a=1.0, b=1.0)
        sdef = ShockSolutionDef(F=sf("p^2/2", ("p",)), G=sf("p", ("p",)),
                                m=sf("sin(y)", ("y",)), n=sf("0", ("z",)))
        point = (0.5, 0.8, 1.1, 0.9)
        roots = enumerate_roots(build_shock_family([sdef], shared).relation(0),
                                point)
        s = shock_derivatives(sdef, shared, point, roots[0].root)
        assert s.p_y == 0.0
        assert s.q == pytest.approx(np.sin(0.8))

    def test_linear_F_specialization(self):
        shared = simple_shared()
        sdef = ShockSolutionDef(F=sf("p", ("p",)), G=sf("p^3/3 + p", ("p",)),
                                m=sf("0", ("y",)), n=sf("0", ("z",)))
        point = (0.2, 1.0, 1.0, 1.0)
        root = enumerate_roots(build_shock_family([sdef], shared).relation(0),
                               point)[0].root
        s = shock_derivatives(sdef, shared, point, root)
        # F'' = 0 so D = G'(p) = p^2 + 1
        assert s.p_x == pytest.approx(-1.0 / (root ** 2 + 1.0))

    def test_degenerate_raises(self):
        shared = simple_shared()
        sdef = ShockSolutionDef(F=sf("p", ("p",)), G=sf("0", ("p",)),
                                m=sf("0", ("y",)), n=sf("0", ("z",)))
        with pytest.raises(DegenerateSampleError):
            shock_derivatives(sdef, shared, (0.0, 1.0, 1.0, 1.0), 0.0)

    def test_gradient_proportionality(self):
        # (p_y, p_z) relate to p_t through the profile derivatives
        shared = simple_shared()
        sdef = ShockSolutionDef(F=sf("p^2/2 + p^4/4", ("p",)),
                                G=sf("p", ("p",)),
                                m=sf("sin(y)", ("y",)), n=sf("z", ("z",)))
        fam = build_shock_family([sdef], shared)
        for point in halton_cloud(50, seed=1):
            root = enumerate_roots(fam.relation(0), point)[0]
            s = shock_derivatives(sdef, shared, point, root.root)
            al1 = shared.alpha.compiled((1,))(point[3])
            be1 = shared.beta.compiled((1,))(point[1])
            de1 = shared.delta.compiled((1,))(point[2])
            eps = 1e-300
            assert abs(s.p_y * al1 - s.p_t * be1) <= \
                1e-10 * max(abs(s.p_y * al1), abs(s.p_t * be1), eps)
            assert abs(s.p_z * al1 - s.p_t * de1) <= \
                1e-10 * max(abs(s.p_z * al1), abs(s.p_t * de1), eps)


class TestGeneralDerivatives:
    def test_relation_derivative_includes_T_term(self):
        # Q = p^2 y/2, R = p^2 z/2, T = p at (0,1,1,0): the closed-form
        # branch is p = -x/(y+z+1), so p_x = -1/3 there; D = y + z + d1T
        g = GeneralSolutionDef(Q=sf("p^2*y/2", ("p", "y")),
                               R=sf("p^2*z/2", ("p", "z")),
                               T=sf("p", ("p", "t")))
        s = general_derivatives(g, (0.0, 1.0, 1.0, 0.0), 0.0)
        assert s.p_x == pytest.approx(-1.0 / 3.0)
        assert s.p_t == 0.0

    def test_T_independent_of_t(self):
        g = GeneralSolutionDef(Q=sf("p^2*y/2", ("p", "y")),
                               R=sf("p^2*z/2", ("p", "z")),
                               T=sf("p^3/3", ("p", "t")))
        fam = build_general_family([g], simple_shared())
        point = (0.4, 1.0, 1.2, 0.7)
        root = enumerate_roots(fam.relation(0), point)[0].root
        s = general_derivatives(g, point, root)
        assert s.p_t == 0.0

    def test_identity_like_case(self):
        # Q = R = 0 would make the relation independent of y, z; with T = p
        # only: p = -x, p_x = -1, everything else 0
        g = GeneralSolutionDef(Q=sf("0", ("p", "y")),
                               R=sf("0", ("p", "z")),
                               T=sf("p", ("p", "t")))
        s = general_derivatives(g, (0.7, 1.0, 1.0, 1.0), -0.7)
        assert s.p_x == -1.0
        assert (s.p_y, s.p_z, s.p_t) == (0.0, 0.0, 0.0)
        assert (s.q, s.r) == (0.0, 0.0)

    def test_infinite_partial_raises_no_warning(self):
        # T = sqrt(p) - 0.3 at p = 0: d1T = 1/(2 sqrt(p)) divides by zero
        g = GeneralSolutionDef(Q=sf("0", ("p", "y")),
                               R=sf("0", ("p", "z")),
                               T=sf("sqrt(p) - 0.3", ("p", "t")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = general_derivatives(g, (0.3, 1.0, 1.0, 1.0), 0.0)
        assert s.p_x == 0.0 and s.p_t == 0.0


def zero_sample(n=1):
    """A cloud sample of n lanes whose every field is 0."""
    return FieldSample(point=np.zeros((n, 4)),
                       **dict.fromkeys(FIELD_NAMES, np.zeros(n)))


def negative_x_cloud(count, seed):
    """The test box's Halton cloud with x moved to -|x| - 0.2."""
    pts = halton_cloud(count, seed=seed)
    pts[:, 0] = -np.abs(pts[:, 0]) - 0.2
    return pts


class TestResiduals:
    def _samples(self, count=40):
        """Seed samples over the admissible points of a Halton cloud."""
        shared = simple_shared()
        fam = build_shock_family([quadratic_shock_def(), second_shock_def()],
                                 shared)
        cloud, _ = solve_point(fam, halton_cloud(count, seed=4),
                               BranchPolicy())
        assert len(cloud.admissible)
        return cloud.samples, shared

    def test_shock_samples_solve_equation(self):
        samples, shared = self._samples()
        for s in samples:
            assert (ghe_residual(s, shared).normalized <= 1e-10).all()
            for c in compat_residuals(s):
                assert (c.normalized <= 1e-10).all()

    def test_general_samples_solve_equation(self):
        shared = simple_shared()
        fam = build_general_family(list(unbalanced_general_pair()), shared)
        cloud, _ = solve_point(fam, negative_x_cloud(40, seed=5),
                               BranchPolicy())
        for s in cloud.samples:
            assert (ghe_residual(s, shared).normalized <= 1e-10).all()
            for c in compat_residuals(s):
                assert (c.normalized <= 1e-10).all()
        assert len(cloud.admissible) >= 20

    def test_zero_sample(self):
        shared = simple_shared()
        zero = zero_sample()
        assert ghe_residual(zero, shared).value == 0.0
        r1, r2 = compat_residuals(zero)
        assert (r1.value, r2.value) == (0.0, 0.0)

    def test_residual_is_the_declared_form(self):
        # a{r,p}_{yt} + b{r,q}_{xt}, {A,B}_{uv} = A_u B_v - A_v B_u; here
        # {r,p}_{yt} = 5 and {r,q}_{xt} = -8 while {q,p}_{xt} = 8
        s = FieldSample(p=0.0, q=0.0, r=0.0, p_x=1.0, p_y=2.0, p_z=0.0,
                        p_t=3.0, q_x=5.0, q_y=0.0, q_t=7.0, r_x=11.0,
                        r_y=13.0, r_z=0.0, r_t=17.0)
        shared = simple_shared(a=2.0, b=-3.0)
        assert s.q_x * s.p_t - s.q_t * s.p_x == 8.0
        assert ghe_residual(s, shared).value == 2.0 * 5.0 - 3.0 * -8.0

    def test_residual_scales_quadratically(self):
        samples, shared = self._samples(10)
        s = samples[0].lane(0)
        lam = 3.0
        scaled = superpose([s], [lam])
        base = ghe_residual(s, shared)
        quad = ghe_residual(scaled, shared)
        assert quad.value == pytest.approx(lam ** 2 * base.value, abs=1e-18)
        assert quad.scale == pytest.approx(lam ** 2 * base.scale)


class TestBalances:
    def test_shock_pairs_balance(self):
        shared = simple_shared()
        fam = build_shock_family([quadratic_shock_def(), second_shock_def()],
                                 shared)
        cloud, failure = solve_point(fam, halton_cloud(40, seed=6),
                                     BranchPolicy())
        assert failure is None
        samples = cloud.samples
        assert (pairwise_balance(samples[0], samples[1],
                                 shared).normalized <= 1e-10).all()

    def test_unbalanced_general_pair_violates(self):
        shared = simple_shared()
        fam = build_general_family(list(unbalanced_general_pair()), shared)
        cloud, _ = solve_point(fam, negative_x_cloud(60, seed=7),
                               BranchPolicy())
        samples = cloud.samples
        total = len(cloud.admissible)
        violated = np.count_nonzero(pairwise_balance(
            samples[0], samples[1], shared).normalized > 1e-3)
        assert total >= 30
        assert violated > total // 2

    def test_zero_samples_balance(self):
        shared = simple_shared()
        rep = pairwise_balance(zero_sample(), zero_sample(), shared)
        assert rep.value == 0.0

    def test_n_term_matches_pairwise_for_two(self):
        shared = simple_shared()
        fam = build_shock_family([quadratic_shock_def(), second_shock_def()],
                                 shared)
        cloud, failure = solve_point(fam, halton_cloud(20, seed=8),
                                     BranchPolicy())
        assert failure is None
        samples = cloud.samples
        pw = pairwise_balance(samples[0], samples[1], shared)
        nt = n_term_balance(samples, shared)
        # bit-identical by construction
        assert np.array_equal(nt.value, pw.value)
        assert np.array_equal(nt.scale, pw.scale)

    def test_n_term_single_sample_is_empty_sum(self):
        shared = simple_shared()
        rep = n_term_balance([zero_sample()], shared)
        assert (rep.value, rep.scale) == (0.0, 0.0)

    def test_three_shock_seeds_balance(self):
        shared = simple_shared()
        third = ShockSolutionDef(F=sf("p^2/2 + p^4/4", ("p",)),
                                 G=sf("2*p", ("p",)),
                                 m=sf("y", ("y",)), n=sf("cos(z)", ("z",)))
        fam = build_shock_family(
            [quadratic_shock_def(), second_shock_def(), third], shared)
        cloud, failure = solve_point(fam, halton_cloud(30, seed=9),
                                     BranchPolicy())
        assert failure is None
        assert (n_term_balance(cloud.samples,
                               shared).normalized <= 1e-10).all()


class TestReducedBalance:
    def test_identical_defs_vanish(self):
        shared = simple_shared()
        g1, _ = unbalanced_general_pair()
        rep = reduced_balance(g1, g1, shared, (0.3, 1.0, 1.0, 1.0),
                              0.4, 0.4)
        assert rep.value == 0.0

    def test_embedded_shock_pair_balances(self):
        from heavenly.registry import shock_def_as_general
        shared = simple_shared()
        poly_second = ShockSolutionDef(F=sf("p^2", ("p",)),
                                       G=sf("0", ("p",)),
                                       m=sf("y^2/2", ("y",)),
                                       n=sf("z^2/2", ("z",)))
        sdefs = [quadratic_shock_def(), poly_second]
        gdefs = [shock_def_as_general(d, shared) for d in sdefs]
        fam = build_general_family(gdefs, shared)
        cloud, failure = solve_point(fam, halton_cloud(30, seed=10),
                                     BranchPolicy())
        assert failure is None
        samples = cloud.samples
        rep = reduced_balance(gdefs[0], gdefs[1], shared, cloud.points,
                              samples[0].p, samples[1].p)
        assert (rep.normalized <= 1e-10).all()

    def test_unbalanced_pair_violates(self):
        shared = simple_shared()
        g1, g2 = unbalanced_general_pair()
        fam = build_general_family([g1, g2], shared)
        cloud, _ = solve_point(fam, negative_x_cloud(60, seed=11),
                               BranchPolicy())
        samples = cloud.samples
        rep = reduced_balance(g1, g2, shared,
                              cloud.points[cloud.admissible],
                              samples[0].p, samples[1].p)
        total = len(cloud.admissible)
        violated = np.count_nonzero(rep.normalized > 1e-3)
        assert total >= 30
        assert violated > total // 2
