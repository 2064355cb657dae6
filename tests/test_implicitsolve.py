from pathlib import Path

import numpy as np
import pytest

from _families import quadratic_shock_def, sf, simple_shared
from heavenly.cliapp import load_scenario, scrambled_halton
from heavenly.fdoracle import STEP, certify_sample
from heavenly.implicitsolve import (
    FOLD_TOL,
    TOL_ABS,
    TOL_REL,
    BranchPolicy,
    ImplicitRelation,
    enumerate_roots,
    general_relation,
    lanes,
    median,
    shock_relation,
    solve_on_sheet,
)
from heavenly.registry import GeneralSolutionDef, ShockSolutionDef, \
    SharedProfile
from heavenly.superpose import solve_point
from test_golden import CASES, build

GOLDEN = {case["name"]: case for case in CASES}


def affine_relation():
    """Phi = x + (S + 1) p with S = t + y + z: root p = -x/(S+1)."""
    return shock_relation(quadratic_shock_def(), simple_shared())


def cubic_relation(lo=-2.0, hi=2.0, shift=0.0):
    """Phi = x + u^3 - u with u = p - shift: up to three roots, at x = 0
    shift - 1, shift and shift + 1."""
    def phi(p, x, y, z, t):
        u = p - shift
        return x + u ** 3 - u

    def dphi(p, x, y, z, t):
        u = p - shift
        return 3.0 * u ** 2 - 1.0

    return ImplicitRelation(phi=phi, dphi=dphi, phi_vec=phi)


class TestBranchPolicy:
    def test_interval_order(self):
        with pytest.raises(ValueError):
            BranchPolicy(p_lo=1.0, p_hi=-1.0)

    def test_min_resolution(self):
        with pytest.raises(ValueError):
            BranchPolicy(resolution=8)

    def test_unknown_selection(self):
        with pytest.raises(ValueError):
            BranchPolicy(selection="biggest")

class TestEnumerateRoots:
    def test_affine_worked_example(self):
        # S = 3 at (1,1,1,1): Phi = 1 + 4p, root -1/4, D = 4
        reports = enumerate_roots(affine_relation(), (1.0, 1.0, 1.0, 1.0))
        assert len(reports) == 1
        r = reports[0]
        assert r.root == pytest.approx(-0.25, rel=1e-12)
        assert r.deriv == pytest.approx(4.0)

    def test_quartic_constructed_root(self):
        # F = p^4/4, G = p, S = 1, x = -2: Phi = p^3 + p - 2, root p = 1
        sdef = ShockSolutionDef(F=sf("p^4/4", ("p",)), G=sf("p", ("p",)),
                                m=sf("0", ("y",)), n=sf("0", ("z",)))
        shared = SharedProfile(alpha=sf("t", ("t",)), beta=sf("0", ("y",)),
                               delta=sf("0", ("z",)))
        rel = shock_relation(sdef, shared)
        reports = enumerate_roots(rel, (-2.0, 0.0, 0.0, 1.0))
        assert len(reports) == 1
        assert reports[0].root == pytest.approx(1.0, rel=1e-12)

    def test_three_roots_ascending(self):
        rel = cubic_relation()
        # Phi = p^3 - p at x = 0: roots -1, 0, 1
        reports = enumerate_roots(rel, (0.0, 0.0, 0.0, 0.0))
        roots = [r.root for r in reports]
        # dense-scan oracle
        grid = np.linspace(-10, 10, 200001)
        vals = grid ** 3 - grid
        brackets = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        expected = sorted(0.5 * (grid[i] + grid[i + 1]) for i in brackets) \
            or [0.0]
        assert roots == sorted(roots)
        assert len(roots) == 3
        for got, ref in zip(roots, (-1.0, 0.0, 1.0)):
            assert got == pytest.approx(ref, abs=1e-10)
        assert len(expected) in (1, 3)  # node-exact zeros collapse brackets

    def test_residual_contract(self):
        rel = cubic_relation()
        for x in (-0.2, 0.0, 0.15, 0.3):
            for r in enumerate_roots(rel, (x, 0.0, 0.0, 0.0)):
                residual = abs(rel.phi(r.root, x, 0.0, 0.0, 0.0))
                assert residual <= 1e-12 * (1.0 + abs(x)) \
                    or abs(r.deriv) < FOLD_TOL

    def test_monotone_single_root(self):
        reports = enumerate_roots(affine_relation(), (5.0, 1.0, 1.0, 1.0))
        assert len(reports) == 1

    def test_no_sign_change_empty(self):
        def phi(p, x, y, z, t):
            return p ** 2 + 1.0
        rel = ImplicitRelation(phi=phi, dphi=lambda p, *pt: 2 * p,
                               phi_vec=phi)
        assert len(enumerate_roots(rel, (0.0, 0.0, 0.0, 0.0))) == 0

    def test_closed_form_oracle_equivalence(self):
        rel = affine_relation()
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y, z, t = rng.uniform([-2, 0.5, 0.5, 0.5], [2, 1.5, 1.5, 1.5])
            S = t + y + z
            expected = -x / (S + 1.0)
            reports = enumerate_roots(rel, (x, y, z, t))
            assert len(reports) == 1
            assert reports[0].root == pytest.approx(expected, rel=1e-12,
                                                    abs=1e-12)


class TestCloudBatch:
    @pytest.mark.parametrize("policy", [
        BranchPolicy(selection="lowest"),
        BranchPolicy(selection="nearest"),
        BranchPolicy(selection=1),
        BranchPolicy(selection=2),
    ], ids=["lowest", "nearest", "index1", "index2"])
    def test_batch_equals_one_lane_calls(self, policy):
        # shifted so that of three roots the one nearest p = 0 is the highest
        rel = cubic_relation(shift=-0.9)
        cloud = [(x, 0.0, 0.0, 0.0) for x in np.linspace(-0.6, 0.6, 13)]
        table = enumerate_roots(rel, np.array(cloud), policy)
        picks = table.select(policy)
        assert sorted(set(np.bincount(table.owner).tolist())) == [1, 3]
        for k, point in enumerate(cloud):
            reports = enumerate_roots(rel, point, policy)
            assert [r.root for r in reports] == \
                table.root[table.owner == k].tolist()
            pick = reports.select(policy)[0]
            if pick < 0:
                assert picks[k] == -1
                continue
            got, want = table[picks[k]], reports[pick]
            assert (got.root, got.converged, got.iterations, got.deriv) == \
                (want.root, want.converged, want.iterations, want.deriv)

    def test_fold_approach_drives_deriv_to_zero(self):
        # Phi = x + p^3 - p folds at p = 1/sqrt(3), x = 2/(3 sqrt 3);
        # dense scan of D = 3p^2 - 1 locates the crossing, and a cloud
        # approaching that x sees |D| -> 0 on the root nearest 0.9; shifted
        # by -0.9, that is the root nearest p = 0
        rel = cubic_relation(shift=-0.9)
        p_dense = np.linspace(0.2, 1.0, 400001)
        dvals = 3.0 * p_dense ** 2 - 1.0
        i = np.flatnonzero(dvals[:-1] * dvals[1:] < 0.0)[0]
        p_fold = 0.5 * (p_dense[i] + p_dense[i + 1])
        fold_x = p_fold - p_fold ** 3
        xs = fold_x * (1.0 - np.logspace(-8, -1, 30))[::-1]
        cloud = np.array([(x, 0.0, 0.0, 0.0) for x in xs])
        pol = BranchPolicy(selection="nearest", resolution=1 << 17)
        table = enumerate_roots(rel, cloud, pol)
        picks = table.select(pol)
        min_d = np.abs(table.deriv[picks[picks >= 0]]).min()
        assert min_d < 1e-3

    def test_nan_inside_bracket_ends_unconverged(self):
        # Phi = p - 0.03 + x, undefined on |p| < 0.01.  At x = 0 the root
        # 0.03 shares its scan cell with the undefined band and the first
        # Newton iterate (the cell midpoint, 0) lands in it; at x = 0.5
        # the root is far from the band.
        def phi(p, x, y, z, t):
            return np.where(np.abs(p) < 0.01, np.nan, p - 0.03 + x)

        rel = ImplicitRelation(phi=phi, dphi=lambda p, *pt: 1.0,
                               phi_vec=phi)
        policy = BranchPolicy(p_lo=-1.0, p_hi=1.0, resolution=16)
        table = enumerate_roots(rel, np.array([(0.0, 0, 0, 0),
                                               (0.5, 0, 0, 0)]), policy)
        assert len(table) == 2
        stuck, clean = table[0], table[1]
        assert not stuck.converged
        assert stuck.iterations == 1
        assert abs(stuck.root) < 0.01
        assert clean.converged
        assert clean.root == pytest.approx(-0.47, abs=1e-12)


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ("shock_n2", "shock_n3", "general_balanced", "general_unbalanced",
           "trivial_overlap")
# (Q, R, T) of general relations whose Phi holds calls and powers
CALL_RELATIONS = (
    ("0", "0", "sin(3*p) + p/2 - t/4"),
    ("y*exp(p/2)", "0", "p - 1"),
    ("0", "z*p^2/2", "log(p + 11) - 2"),
    ("0", "0", "tanh(4*p)*t - p/3"),
    ("0", "0", "p^t - 2"),
)


def _shipped_relations():
    for name in SHIPPED:
        sc = load_scenario(SCENARIO_DIR / f"{name}.json")
        family = sc.build_family()
        for i in range(family.size):
            yield f"{name}[{i}]", family.relation(i), sc.policy


@pytest.mark.parametrize("name, rel, policy", [
    *_shipped_relations(),
    *((t, general_relation(GeneralSolutionDef(
        Q=sf(q, ("p", "y")), R=sf(r, ("p", "z")), T=sf(t, ("p", "t")))),
       BranchPolicy()) for q, r, t in CALL_RELATIONS)])
def test_residual_is_phi_at_the_root(name, rel, policy):
    # a root's residual is |Phi(root)|, recomputed from the table: every
    # converged root meets Newton's tolerance TOL_ABS + TOL_REL |x|
    pts = scrambled_halton(500, 3, (-1.0, 0.5, 0.5, 0.5), (1.0, 1.5, 1.5, 1.5))
    table = enumerate_roots(rel, pts, policy)
    assert table.converged.any(), name
    x = table.points[table.owner, 0]
    with np.errstate(all="ignore"):
        phi = lanes(rel.phi(table.root, *table.points[table.owner].T),
                    len(table))
    ok = table.converged
    assert (np.abs(phi[ok]) <= TOL_ABS + TOL_REL * np.abs(x[ok])).all(), name


class TestSelectRoot:
    """RootTable.select on the three roots of a one-point cloud."""

    def setup_method(self):
        self.reports = enumerate_roots(cubic_relation(),
                                       (0.0, 0.0, 0.0, 0.0))

    def select(self, policy):
        k = self.reports.select(policy)[0]
        return None if k < 0 else self.reports[k]

    def test_lowest(self):
        r = self.select(BranchPolicy(selection="lowest"))
        assert r.root == pytest.approx(-1.0, abs=1e-10)

    def test_nearest(self):
        # roots -1.9, -0.9 and 0.1: the one nearest p = 0 is the highest
        self.reports = enumerate_roots(cubic_relation(shift=-0.9),
                                       (0.0, 0.0, 0.0, 0.0))
        r = self.select(BranchPolicy(selection="nearest"))
        assert r.root == pytest.approx(0.1, abs=1e-10)

    def test_index(self):
        r = self.select(BranchPolicy(selection=1))
        assert r.root == pytest.approx(0.0, abs=1e-10)
        assert self.select(BranchPolicy(selection=5)) is None


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("values", [
    [0.5], [-0.0], [0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0, -0.0],
    [-0.0, 1.0, -0.0, 2.0], [3.0, -1.0, 2.0], [2.0, 2.0, 1.0, 2.0],
    [1.0, _NAN], [_NAN], [_NAN, 1.0, 2.0], [-_NAN, 0.0], [_INF, -_INF],
    [_INF], [-_INF, -_INF, 1.0], [1.0, _INF, 2.0, _INF], [1e308, 1e308],
    [-5e-324, 5e-324], [0.1, 0.2, 0.7, 0.3]])
def test_median_matches_numpy_bit_for_bit(values):
    v = np.array(values)
    with np.errstate(all="ignore"):
        ref = np.median(v)
    assert np.float64(median(v)).tobytes() == ref.tobytes()


def test_median_matches_numpy_on_random_ties():
    rng = np.random.default_rng(5)
    for n in range(1, 40):
        v = rng.integers(-3, 4, n) * rng.choice([0.5, -0.0, 0.25], n)
        assert np.float64(median(v)).tobytes() == np.median(v).tobytes(), v
        assert median(v.tolist()) == median(v)


class TestSolveOnSheet:
    def test_stays_on_branch(self):
        # three roots at x = 0, where D = 3p^2 - 1 is 2, -1 and 2: each
        # point moved STEP along imaginary x keeps its seed as real part,
        # and Im p / STEP is dp/dx = -1/D on that seed's sheet
        rel = cubic_relation()
        moved = np.full((3, 4), 0j)
        moved[:, 0] = 1j * STEP
        seed = np.array([-1.0, 0.0, 1.0])
        table = enumerate_roots(rel, np.zeros(4))
        assert table.root.tolist() == seed.tolist()
        p = solve_on_sheet(rel, moved, seed, table.deriv)
        assert p.real.tolist() == seed.tolist()
        assert p.imag / STEP == pytest.approx([-0.5, 1.0, -0.5], rel=1e-15)

    @pytest.mark.parametrize("name", ["shock_n3", "general_unbalanced",
                                      "folds_cubic"])
    def test_a_wrong_matrix_only_costs_steps(self, name):
        # the converged root depends on Phi alone: with 1.3 D as Newton's
        # matrix every lane still certifies, to the same rounding level
        fam, _, policy = build(GOLDEN[name])
        cloud, _ = solve_point(fam, np.array(GOLDEN[name]["points"]), policy)
        for i, s in enumerate(cloud.samples):
            cert = certify_sample(s.replace(Phi_p=1.3 * s.Phi_p), fam, i)
            assert (cert.certified, cert.holes) == (len(cloud.admissible), 0)
            assert max(cert.deviations.values()) <= 1e-12

    def test_flat_relation_gives_nan(self):
        rel = ImplicitRelation(phi=lambda p, *pt: 1.0,
                               dphi=lambda p, *pt: 0.0,
                               phi_vec=lambda p, *pt: np.ones_like(p))
        p = solve_on_sheet(rel, (0.0, 0.0, 0.0, 0.0), seed=0.0, d=0.0)
        assert p.shape == (1,) and np.isnan(p[0])
