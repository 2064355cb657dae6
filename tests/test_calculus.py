import warnings
from pathlib import Path

import numpy as np
import pytest

from _families import (
    halton_cloud,
    quadratic_shock_def,
    second_shock_def,
    sf,
    simple_shared,
    take_lanes,
    unbalanced_general_pair,
)
from heavenly.calculus import (
    FIELD_NAMES,
    FieldSample,
    compat_residuals,
    general_derivatives,
    ghe_residual,
    n_term_balance,
    pairwise_balance,
    pairwise_balances,
    reduced_balance,
    shock_derivatives,
)
from heavenly.cliapp import load_scenario
from heavenly.implicitsolve import (
    BranchPolicy,
    enumerate_roots,
    general_relation,
    shock_relation,
)
from heavenly.registry import (
    GeneralFamily,
    GeneralSolutionDef,
    ShockFamily,
    ShockSolutionDef,
)
from heavenly.superpose import solve_point, superpose

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class TestShockDerivatives:
    def test_worked_example(self):
        shared = simple_shared()
        sdef = quadratic_shock_def()
        rel = shock_relation(sdef, shared)
        point = (1.0, 1.0, 1.0, 1.0)
        root = enumerate_roots(rel, point)[0]
        s = shock_derivatives(rel, sdef, shared, point, root.root, root.deriv)
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
        rel = ShockFamily([sdef], shared).relation(0)
        root = enumerate_roots(rel, point)[0]
        s = shock_derivatives(rel, sdef, shared, point, root.root, root.deriv)
        assert s.p_y == 0.0
        assert s.q == pytest.approx(np.sin(0.8))

    def test_linear_F_specialization(self):
        shared = simple_shared()
        sdef = ShockSolutionDef(F=sf("p", ("p",)), G=sf("p^3/3 + p", ("p",)),
                                m=sf("0", ("y",)), n=sf("0", ("z",)))
        point = (0.2, 1.0, 1.0, 1.0)
        rel = ShockFamily([sdef], shared).relation(0)
        root = enumerate_roots(rel, point)[0]
        s = shock_derivatives(rel, sdef, shared, point, root.root, root.deriv)
        # F'' = 0 so D = G'(p) = p^2 + 1
        assert s.p_x == pytest.approx(-1.0 / (root.root ** 2 + 1.0))

    def test_zero_derivative_gives_nonfinite_partials(self):
        # F = p, G = 0: D = S F'' + G' = 0.  solve_point drops such a point
        # as a fold; called directly, the derivatives divide by D = 0 and
        # return inf or nan without a warning or an exception
        shared = simple_shared()
        sdef = ShockSolutionDef(F=sf("p", ("p",)), G=sf("0", ("p",)),
                                m=sf("0", ("y",)), n=sf("0", ("z",)))
        rel = shock_relation(sdef, shared)
        point = (0.0, 1.0, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = shock_derivatives(rel, sdef, shared, point, 0.0,
                                  rel.dphi(0.0, *point))
        assert not np.isfinite(s.p_x).any()

    def test_gradient_proportionality(self):
        # (p_y, p_z) relate to p_t through the profile derivatives
        shared = simple_shared()
        sdef = ShockSolutionDef(F=sf("p^2/2 + p^4/4", ("p",)),
                                G=sf("p", ("p",)),
                                m=sf("sin(y)", ("y",)), n=sf("z", ("z",)))
        fam = ShockFamily([sdef], shared)
        for point in halton_cloud(50, seed=1):
            root = enumerate_roots(fam.relation(0), point)[0]
            s = shock_derivatives(fam.relation(0), sdef, shared, point,
                                  root.root, root.deriv)
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
        rel, point = general_relation(g), (0.0, 1.0, 1.0, 0.0)
        root = enumerate_roots(rel, point)[0]
        s = general_derivatives(rel, g, point, root.root, root.deriv)
        assert s.p_x == pytest.approx(-1.0 / 3.0)
        assert s.p_t == 0.0

    def test_T_independent_of_t(self):
        g = GeneralSolutionDef(Q=sf("p^2*y/2", ("p", "y")),
                               R=sf("p^2*z/2", ("p", "z")),
                               T=sf("p^3/3", ("p", "t")))
        fam = GeneralFamily([g], simple_shared())
        point = (0.4, 1.0, 1.2, 0.7)
        root = enumerate_roots(fam.relation(0), point)[0]
        s = general_derivatives(fam.relation(0), g, point, root.root,
                                root.deriv)
        assert s.p_t == 0.0

    def test_identity_like_case(self):
        # Q = R = 0 would make the relation independent of y, z; with T = p
        # only: p = -x, p_x = -1, everything else 0
        g = GeneralSolutionDef(Q=sf("0", ("p", "y")),
                               R=sf("0", ("p", "z")),
                               T=sf("p", ("p", "t")))
        rel, point = general_relation(g), (0.7, 1.0, 1.0, 1.0)
        root = enumerate_roots(rel, point)[0]
        assert root.root == -0.7
        s = general_derivatives(rel, g, point, root.root, root.deriv)
        assert s.p_x == -1.0
        assert (s.p_y, s.p_z, s.p_t) == (0.0, 0.0, 0.0)
        assert (s.q, s.r) == (0.0, 0.0)

    def test_infinite_partial_raises_no_warning(self):
        # T = sqrt(p) - 0.3 at x = 0.3: the root p = 0 is a grid node of
        # the policy, where D = d1T = 1/(2 sqrt(p)) is infinite
        g = GeneralSolutionDef(Q=sf("0", ("p", "y")),
                               R=sf("0", ("p", "z")),
                               T=sf("sqrt(p) - 0.3", ("p", "t")))
        rel, point = general_relation(g), (0.3, 1.0, 1.0, 1.0)
        root = enumerate_roots(rel, point, BranchPolicy(-1.0, 1.0, 1025))[0]
        assert (root.root, root.deriv) == (0.0, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = general_derivatives(rel, g, point, root.root, root.deriv)
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
        fam = ShockFamily([quadratic_shock_def(), second_shock_def()], shared)
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
        fam = GeneralFamily(list(unbalanced_general_pair()), shared)
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
        # the pair's cross term is what superposing adds to the residual:
        # {r2,p}_{yt} + {r,p2}_{yt} = 13 - 30 and {r2,q}_{xt} + {r,q2}_{xt}
        # = -19 - 7, while {q2,p}_{xt} + {q,p2}_{xt} = 5 - 19 would give 8
        s2 = FieldSample(p=0.0, q=0.0, r=0.0, p_x=2.0, p_y=1.0, p_z=0.0,
                         p_t=-1.0, q_x=3.0, q_y=0.0, q_t=4.0, r_x=-2.0,
                         r_y=5.0, r_z=0.0, r_t=1.0)
        cross = (ghe_residual(superpose([s, s2], [1, 1]), shared).value
                 - ghe_residual(s, shared).value
                 - ghe_residual(s2, shared).value)
        assert pairwise_balance(s, s2, shared).value == cross == \
            2.0 * (13.0 - 30.0) - 3.0 * (-19.0 - 7.0)
        qp = [a.q_x * b.p_t - a.q_t * b.p_x for a, b in ((s2, s), (s, s2))]
        assert 2.0 * (13.0 - 30.0) - 3.0 * sum(qp) == 8.0

    def test_residual_scales_quadratically(self):
        samples, shared = self._samples(10)
        s = take_lanes(samples[0], [0])
        lam = 3.0
        scaled = superpose([s], [lam])
        base = ghe_residual(s, shared)
        quad = ghe_residual(scaled, shared)
        assert quad.value == pytest.approx(lam ** 2 * base.value, abs=1e-18)
        assert quad.scale == pytest.approx(lam ** 2 * base.scale)


class TestBalances:
    def test_shock_pairs_balance(self):
        shared = simple_shared()
        fam = ShockFamily([quadratic_shock_def(), second_shock_def()], shared)
        cloud, failure = solve_point(fam, halton_cloud(40, seed=6),
                                     BranchPolicy())
        assert failure is None
        samples = cloud.samples
        assert (pairwise_balance(samples[0], samples[1],
                                 shared).normalized <= 1e-10).all()

    def test_unbalanced_general_pair_violates(self):
        shared = simple_shared()
        fam = GeneralFamily(list(unbalanced_general_pair()), shared)
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
        fam = ShockFamily([quadratic_shock_def(), second_shock_def()], shared)
        cloud, failure = solve_point(fam, halton_cloud(20, seed=8),
                                     BranchPolicy())
        assert failure is None
        samples = cloud.samples
        pw = pairwise_balance(samples[0], samples[1], shared)
        nt = n_term_balance(pairwise_balances(samples, shared),
                            len(cloud.admissible))
        # bit-identical by construction
        assert np.array_equal(nt.value, pw.value)
        assert np.array_equal(nt.scale, pw.scale)

    def test_n_term_single_sample_is_empty_sum(self):
        shared = simple_shared()
        rep = n_term_balance(pairwise_balances([zero_sample()], shared), 1)
        assert (rep.value, rep.scale) == (0.0, 0.0)

    def test_three_shock_seeds_balance(self):
        shared = simple_shared()
        third = ShockSolutionDef(F=sf("p^2/2 + p^4/4", ("p",)),
                                 G=sf("2*p", ("p",)),
                                 m=sf("y", ("y",)), n=sf("cos(z)", ("z",)))
        fam = ShockFamily(
            [quadratic_shock_def(), second_shock_def(), third], shared)
        cloud, failure = solve_point(fam, halton_cloud(30, seed=9),
                                     BranchPolicy())
        assert failure is None
        assert (n_term_balance(pairwise_balances(cloud.samples, shared),
                               len(cloud.admissible)).normalized
                <= 1e-10).all()


class TestReducedBalance:
    def test_identical_defs_vanish(self):
        shared = simple_shared()
        g1, _ = unbalanced_general_pair()
        rel, point = general_relation(g1), (0.3, 1.0, 1.0, 1.0)
        root = enumerate_roots(rel, point)[0]
        s = general_derivatives(rel, g1, point, root.root, root.deriv)
        rep = reduced_balance(s, s, shared)
        assert rep.value == 0.0

    def test_embedded_shock_pair_balances(self):
        from _families import shock_def_as_general
        shared = simple_shared()
        poly_second = ShockSolutionDef(F=sf("p^2", ("p",)),
                                       G=sf("0", ("p",)),
                                       m=sf("y^2/2", ("y",)),
                                       n=sf("z^2/2", ("z",)))
        sdefs = [quadratic_shock_def(), poly_second]
        gdefs = [shock_def_as_general(d, shared) for d in sdefs]
        fam = GeneralFamily(gdefs, shared)
        cloud, failure = solve_point(fam, halton_cloud(30, seed=10),
                                     BranchPolicy())
        assert failure is None
        samples = cloud.samples
        rep = reduced_balance(samples[0], samples[1], shared)
        assert (rep.normalized <= 1e-10).all()

    def test_unbalanced_pair_violates(self):
        shared = simple_shared()
        g1, g2 = unbalanced_general_pair()
        fam = GeneralFamily([g1, g2], shared)
        cloud, _ = solve_point(fam, negative_x_cloud(60, seed=11),
                               BranchPolicy())
        samples = cloud.samples
        rep = reduced_balance(samples[0], samples[1], shared)
        total = len(cloud.admissible)
        violated = np.count_nonzero(rep.normalized > 1e-3)
        assert total >= 30
        assert violated > total // 2

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("name", ["general_balanced",
                                      "general_unbalanced"])
    def test_samples_give_the_general_formula_bit_for_bit(self, name, seed):
        # the condition written in the general family's Q, R and T at each
        # seed's roots: the samples' q_p, r_p and Phi_t are the same lanes
        sc = load_scenario(SCENARIO_DIR / f"{name}.json")
        fam = sc.build_family()
        cloud, _ = solve_point(fam, sc.points(count=2000, seed=seed),
                               sc.policy)
        samples, (a, b) = cloud.samples, (fam.shared.a, fam.shared.b)
        _x, y, z, t = cloud.points[cloud.admissible].T
        assert len(y) > 1000
        Q12, R12, T2 = zip(*[(d.Q.compiled((1, 1))(s.p, y),
                              d.R.compiled((1, 1))(s.p, z),
                              d.T.compiled((0, 1))(s.p, t))
                             for d, s in zip(fam.defs, samples)])
        A = R12[1] - R12[0]
        lhs1 = a * A * T2[0] * Q12[1]
        lhs2 = a * A * T2[1] * Q12[0]
        C = T2[1] - T2[0]
        rhs1 = b * C * Q12[0] * R12[1]
        rhs2 = b * C * Q12[1] * R12[0]
        scale = np.maximum(np.maximum(np.maximum(abs(lhs1), abs(lhs2)),
                                      abs(rhs1)), abs(rhs2))
        rep = reduced_balance(samples[0], samples[1], fam.shared)
        assert rep.value.tobytes() == \
            ((lhs1 - lhs2) - (rhs1 - rhs2)).tobytes()
        assert rep.scale.tobytes() == scale.tobytes()
