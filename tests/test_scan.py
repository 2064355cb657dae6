"""The cell-tree scan finds the same brackets and grid zeros as a scan of
every grid node, bit for bit, and evaluates only the cells its bound cannot
clear; Newton on the live lanes gives the roots of Newton on full-length
lanes, bit for bit, and the root table keeps the scan's order."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from _families import expr_trees, halton_cloud, random_shock_family, sf, \
    shock_def_as_general
from _scan_reference import full_newton, full_scan
from heavenly import exprdsl, implicitsolve
from heavenly.cliapp import load_scenario
from heavenly.implicitsolve import (
    MAX_NEWTON_ITER,
    RELATION_VARIABLES,
    SCAN_BUDGET,
    SCAN_LEAF,
    SCAN_ROOTS,
    BranchPolicy,
    ImplicitRelation,
    _UNBOUNDED,
    _cells,
    _kept,
    _newton,
    _on_block,
    _scan,
    enumerate_roots,
    general_relation,
    relation_from_expr,
    shock_relation,
)
from heavenly.registry import (
    GeneralSolutionDef,
    SharedProfile,
    ShockSolutionDef,
)
from heavenly.superpose import CLOUD_CHUNK, solve_chunks

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ("shock_n2", "shock_n3", "general_unbalanced", "general_balanced",
           "trivial_overlap")
KEYS = ("b_owner", "b_col", "b_flo", "z_owner", "z_col")


def assert_same_scan(rel, pts, policy=BranchPolicy()):
    with np.errstate(all="ignore"):
        grid, got = _scan(rel, pts, policy)
        ref_grid, ref = full_scan(rel, pts, policy)
    assert np.array_equal(grid, ref_grid)
    for key in KEYS:
        assert np.array_equal(got[key], ref[key]), key
        assert got[key].dtype == ref[key].dtype, key
    return got


def general(Q="0", R="0", T="p"):
    return general_relation(GeneralSolutionDef(
        Q=sf(Q, ("p", "y")), R=sf(R, ("p", "z")), T=sf(T, ("p", "t"))))


def bounded(rel):
    return rel.program is not _UNBOUNDED


def cloud(n=300, seed=4):
    return halton_cloud(n, seed)


class TestSameBrackets:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_scenarios(self, name):
        sc = load_scenario(SCENARIO_DIR / f"{name}.json")
        fam = sc.build_family()
        pts = sc.points(count=2000, seed=7)
        for i in range(fam.size):
            rel = fam.relation(i)
            assert bounded(rel)
            found = assert_same_scan(rel, pts, sc.policy)
            assert len(found["b_owner"]) >= len(pts)

    @pytest.mark.parametrize("name", ("shock_n3", "general_unbalanced"))
    def test_clouds_past_one_block(self, name):
        # two whole CLOUD_CHUNK slices and a partial third, taken by the
        # scan as one, so rows past the first slices are compared too
        sc = load_scenario(SCENARIO_DIR / f"{name}.json")
        fam = sc.build_family()
        pts = sc.points(count=9000, seed=7)
        assert 2 * CLOUD_CHUNK < len(pts) < 3 * CLOUD_CHUNK
        for i in range(fam.size):
            found = assert_same_scan(fam.relation(i), pts, sc.policy)
            assert found["b_owner"][-1] >= 2 * CLOUD_CHUNK

    def test_acceptance_bank_families(self):
        rng = np.random.default_rng(20260823)
        pts = cloud(200)
        for k in range(6):
            fam = random_shock_family(rng, 2 + k % 2)
            for i in range(fam.size):
                assert_same_scan(fam.relation(i), pts)
                # the same seed in general form bounds through Q_p and R_p
                try:
                    gdef = shock_def_as_general(fam.defs[i], fam.shared)
                except exprdsl.ExprError:   # m or n is not a polynomial
                    continue
                g = general_relation(gdef)
                assert bounded(g)
                assert_same_scan(g, pts)

    def test_grid_zeros_on_cell_edges(self):
        # Phi = x + p on a dyadic grid: x = -node hits the node exactly
        policy = BranchPolicy(resolution=1025)
        grid = np.linspace(-10.0, 10.0, 1025)
        nodes = [0, 1, 31, 32, 33, 64, 512, 992, 1023, 1024]
        pts = np.zeros((len(nodes), 4))
        pts[:, 0] = -grid[nodes]
        found = assert_same_scan(general(), pts, policy)
        assert found["z_col"].tolist() == nodes
        # a zero where Phi touches 0 without changing sign
        touch = general(T="(p - 2.5)^2")
        assert_same_scan(touch, np.zeros((1, 4)), policy)

    def test_nan_bands_and_infinities(self):
        pts = cloud(200)
        for T in ("log(p)", "sqrt(p - 1) + p", "1/p", "t/p", "log(p)*t",
                  "p/(t - p)", "sqrt(t - p)"):
            rel = general(Q="y*p", T=T)
            assert bounded(rel) == (T != "sqrt(t - p)"), T
            assert_same_scan(rel, pts, BranchPolicy(resolution=1025))
        # coordinates that overflow the mixed part, are infinite or nan
        odd = np.array([[0.0, 1.0, 1.0, 1e308], [np.inf, 1.0, 1.0, 1.0],
                        [-np.inf, 1.0, 1.0, 1.0], [0.5, np.nan, 1.0, 1.0],
                        [0.5, 1.0, 1.0, -1e308]])
        shock = shock_relation(
            ShockSolutionDef(F=sf("p^3", ("p",)), G=sf("p", ("p",)),
                             m=sf("0", ("y",)), n=sf("0", ("z",))),
            SharedProfile(alpha=sf("t", ("t",)), beta=sf("y", ("y",)),
                          delta=sf("z", ("z",))))
        assert_same_scan(shock, np.vstack((odd, cloud(20))))

    def test_divisor_interval_holding_zero(self):
        # Q_p = -y/p^2 and T = t/(p - 1/3): both divisors cross 0
        rel = general(Q="y/p", T="t/(p - 1/3)")
        assert bounded(rel)
        program = _cells(rel, BranchPolicy())[2]
        assert "div" in repr(program)
        assert_same_scan(rel, cloud(300))

    def test_zero_shared_profile(self):
        # S = alpha + beta + delta == 0: Phi = x + G(p)
        shared = SharedProfile(alpha=sf("0", ("t",)), beta=sf("0", ("y",)),
                               delta=sf("0", ("z",)))
        sdef = ShockSolutionDef(F=sf("p^2", ("p",)), G=sf("p^3 + p", ("p",)),
                                m=sf("0", ("y",)), n=sf("0", ("z",)))
        rel = shock_relation(sdef, shared)
        assert bounded(rel)
        assert_same_scan(rel, cloud(300))

    @pytest.mark.parametrize("Q, T", [("y^2/2 + sin(y*p)", "p"),
                                      ("0", "p^t + p")])
    def test_mixed_call_or_power_is_unbounded(self, Q, T):
        rel = general(Q=Q, T=T)
        assert not bounded(rel)
        assert_same_scan(rel, cloud(300))

    def test_callables_only_is_unbounded(self):
        def phi(p, x, y, z, t):
            return x + p ** 3 - p

        rel = ImplicitRelation(phi=phi, dphi=phi, phi_vec=phi)
        assert not bounded(rel)
        assert_same_scan(rel, np.array([[0.0, 0, 0, 0], [0.3, 0, 0, 0]]))

    @pytest.mark.parametrize("resolution", [16, 33, 1000, 1024, 4097])
    def test_resolutions(self, resolution):
        policy = BranchPolicy(p_lo=-3.0, p_hi=2.0, resolution=resolution)
        for rel in (general(Q="y*p^2/2", T="p^3 - p"),
                    general(Q="y*p", T="tanh(p) + p"),
                    general(Q="y^2/2 + sin(y*p)", T="p")):
            assert_same_scan(rel, cloud(300), policy)

    def test_random_arithmetic(self):
        # Phi trees of + - * / and negation over the five variables
        rng = np.random.default_rng(11)
        leaves = [exprdsl.var(v) for v in ("p", "x", "y", "z", "t")]
        leaves += [exprdsl.const(0.5), exprdsl.pow_(leaves[0],
                                                     exprdsl.const(2.0))]
        ops = (exprdsl.add, exprdsl.sub, exprdsl.mul, exprdsl.div)

        def tree(d):
            if d == 0 or rng.random() < 0.2:
                return leaves[rng.integers(len(leaves))]
            if rng.random() < 0.1:
                return exprdsl.neg(tree(d - 1))
            return ops[rng.integers(len(ops))](tree(d - 1), tree(d - 1))

        # coordinates of mixed sign, all positive and all negative: a p-free
        # factor of one sign on the block keeps or swaps the ends
        clouds = [cloud(200) - 0.5, cloud(200) + 0.5, -0.5 - cloud(200)]
        for _ in range(60):
            rel = relation_from_expr(exprdsl.add(exprdsl.var("x"), tree(4)))
            assert bounded(rel)
            for pts in clouds:
                assert_same_scan(rel, pts, BranchPolicy(p_lo=-3.0, p_hi=3.0))

    # coordinates of box scale, and those that overflow or are not finite
    COORDINATES = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(
        (0.0, -0.0, 1e308, -1e308, np.inf, -np.inf, np.nan)))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(tree=expr_trees(RELATION_VARIABLES, 4),
           rows=st.lists(st.tuples(*[COORDINATES] * 4), min_size=1,
                         max_size=12),
           p_lo=st.floats(-20.0, 20.0),
           width=st.sampled_from((1e-6, 0.5, 3.0, 20.0)),
           resolution=st.integers(16, 300))
    # a constant Phi: a bound of one number keeps every cell or none
    @example(tree=exprdsl.const(0.0), rows=[(0.0, 0.0, 0.0, 0.0)] * 2,
             p_lo=-1.0, width=2.0, resolution=16)
    @example(tree=exprdsl.const(-0.0), rows=[(0.5, 1.0, 1.0, 1.0)],
             p_lo=-10.0, width=20.0, resolution=1024)
    # a zero on the grid's last node, where a cell past the grid starts
    @example(tree=exprdsl.add(exprdsl.var("x"), exprdsl.var("p")),
             rows=[(-1.0, 0.0, 0.0, 0.0)], p_lo=-1.0, width=2.0,
             resolution=25)
    def test_random_relation_trees(self, tree, rows, p_lo, width,
                                   resolution):
        try:
            rel = relation_from_expr(tree)
        except exprdsl.ExprError:
            reject()
        assert_same_scan(rel, np.array(rows),
                         BranchPolicy(p_lo, p_lo + width, resolution))

    def test_one_row_clouds(self):
        rel = general(Q="y*p^2/2", T="p^3 - p")
        for row in cloud(25):
            assert_same_scan(rel, row[None, :])


class TestCellWork:
    def test_skips_most_cells(self):
        # phi_vec sees about one cell per point on a shipped scenario
        sc = load_scenario(SCENARIO_DIR / "shock_n3.json")
        rel = sc.build_family().relation(0)
        seen = []

        def counted(p, *cols):
            seen.append(np.broadcast(p, *cols).size)
            return rel.phi_vec(p, *cols)

        pts = sc.points(count=2000, seed=1)
        with np.errstate(all="ignore"):
            _scan(dataclasses.replace(rel, phi_vec=counted), pts, sc.policy)
        # twice the 33 nodes of one cell of the flat 32-interval scan
        assert 0 < sum(seen) <= 2 * len(pts) * 33

    def test_uncleared_cells_stay_within_the_budget(self):
        # R_p = 1000*z*p - 1000*z*p is 0 on the grid, but its bound is as
        # wide as 2000*|z*p|: few cells clear, and a block's (row, cell)
        # pairs outnumber one chunk of values
        rel = general(R="500*z*p^2 - 500*z*p^2")
        assert bounded(rel)
        seen = []

        def counted(p, *cols):
            seen.append(np.broadcast(p, *cols).size)
            return rel.phi_vec(p, *cols)

        pts = cloud(600)
        counting = dataclasses.replace(rel, phi_vec=counted)
        assert_same_scan(counting, pts)
        assert sum(seen) > 0.5 * len(pts) * 1024
        with np.errstate(all="ignore"):
            tracemalloc.start()
            try:
                _scan(rel, pts, BranchPolicy())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a block of every node, and its temporaries, is 4 * 512 KB
        assert peak <= 4 * SCAN_BUDGET * 8

    def test_coarse_cells_all_held_leaves_cleared(self):
        # Phi = x - cos(p): cos spans [-1, 1] on every coarse cell, so no
        # coarse bound clears, yet the split cells do and phi_vec only sees
        # leaves; several roots a point give more pairs than one bound call
        # takes, and the cloud is more than one CLOUD_CHUNK slice
        rel = general(T="-cos(p)")
        pts = cloud(5000)
        assert len(pts) > CLOUD_CHUNK
        program = _cells(rel, BranchPolicy())[2]
        coarse = np.arange(len(pts) * SCAN_ROOTS)
        with np.errstate(all="ignore"):
            tree = _on_block(program, pts.T)
            kept = _kept(tree, 0, coarse, (SCAN_ROOTS - 1).bit_length())
        assert np.array_equal(kept, coarse)
        shapes = []

        def counted(p, *cols):
            shapes.append(np.broadcast(p, *cols).shape)
            return rel.phi_vec(p, *cols)

        found = assert_same_scan(rel, pts)
        with np.errstate(all="ignore"):
            _scan(dataclasses.replace(rel, phi_vec=counted), pts,
                  BranchPolicy())
        assert {nodes for _, nodes in shapes} == {SCAN_LEAF + 1}
        assert len(found["b_owner"]) >= 6 * len(pts)
        assert sum(n * k for n, k in shapes) <= 4 * len(found["b_owner"]) \
            * (SCAN_LEAF + 1)

    def test_descent_stops_where_splits_clear_nothing(self):
        # R_p = 1000*z*p - 1000*z*p: a split halves the bound's width, yet
        # it still holds 0; sin(y*p) has a nan bound, which holds 0 on every
        # cell.  Either way the descent stops on wide cells and evaluates
        # about every node once
        pts = cloud(300)
        for rel in (general(R="500*z*p^2 - 500*z*p^2"),
                    general(Q="y^2/2 + sin(y*p)")):
            shapes = []

            def counted(p, *cols):
                shapes.append(np.broadcast(p, *cols).shape)
                return rel.phi_vec(p, *cols)

            assert_same_scan(rel, pts)
            with np.errstate(all="ignore"):
                _scan(dataclasses.replace(rel, phi_vec=counted), pts,
                      BranchPolicy())
            assert min(nodes for _, nodes in shapes) > 8 * SCAN_LEAF + 1
            assert sum(n * k for n, k in shapes) <= 1.1 * len(pts) * 1024

    def test_bound_built_once_per_relation(self, monkeypatch):
        # the program is compiled with the relation: a scan compiles nothing
        calls = []
        real = exprdsl.compile_expr
        monkeypatch.setattr(exprdsl, "compile_expr",
                            lambda *a: calls.append(a) or real(*a))
        rel = general(Q="y*p^2/2", T="p^3 - p")
        built = len(calls)
        first = _cells(rel, BranchPolicy())
        assert_same_scan(rel, cloud(50))
        assert _cells(rel, BranchPolicy()) is first
        # another grid reuses the program, only the cell bounds are new
        _cells(rel, BranchPolicy(resolution=2048))
        assert len(calls) == built

    def test_unbounded_relation_compiles_no_leaf(self, monkeypatch):
        # call_one's relation: sin(y*p) leaves Phi unbounded, so its
        # build compiles phi, dphi and grad and no leaf of a program it
        # would drop
        calls = []
        real = exprdsl.compile_expr
        monkeypatch.setattr(exprdsl, "compile_expr",
                            lambda *a: calls.append(a) or real(*a))
        rel = general(Q="y^2/2 + y*p^2/2 + sin(y*p)/10", R="z*p^2/2",
                      T="t*p + p")
        assert rel.program is _UNBOUNDED
        assert len(calls) == 5
        # without the call the same relation compiles its leaves too
        calls.clear()
        assert bounded(general(Q="y^2/2 + y*p^2/2", R="z*p^2/2", T="t*p + p"))
        assert len(calls) > 5

    def test_cell_bounds_built_once_per_relation_and_grid(self, monkeypatch):
        # three slices of 4 096 rows: the bounds of each seed relation are
        # built by the first and kept for the others
        sc = load_scenario(SCENARIO_DIR / "shock_n3.json")
        family = sc.build_family()
        calls = []
        real = implicitsolve._on_cells
        monkeypatch.setattr(implicitsolve, "_on_cells",
                            lambda *a: calls.append(a) or real(*a))
        slices = list(solve_chunks(family, sc.points(count=10_000, seed=2),
                                   sc.policy))
        assert len(slices) == 3
        assert len(calls) == family.size
        # another grid builds its own
        with np.errstate(all="ignore"):
            _cells(family.relation(0), BranchPolicy(resolution=2048))
        assert len(calls) == family.size + 1


def scan_then_newton(newton, rel, pts, policy):
    """newton on every bracket that _scan finds."""
    with np.errstate(all="ignore"):
        grid, found = _scan(rel, pts, policy)
        col = found["b_col"]
        return newton(rel, pts, found["b_owner"], grid[col], grid[col + 1],
                      found["b_flo"])


def assert_same_newton(got, ref):
    for name, a, b in zip(("p", "iterations", "converged"), got, ref):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestNewtonOnLiveLanes:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_seed_relations(self, name):
        sc = load_scenario(SCENARIO_DIR / f"{name}.json")
        fam = sc.build_family()
        pts = sc.points(count=20_000, seed=5)
        for i in range(fam.size):
            rel = fam.relation(i)
            got = scan_then_newton(_newton, rel, pts, sc.policy)
            assert_same_newton(got, scan_then_newton(full_newton, rel, pts,
                                                     sc.policy))
            assert got[2].all()

    def test_non_finite_capped_and_collapsed_lanes(self):
        # y selects a lane's Phi: 0 is a cubic, undefined on |p - t| < z;
        # 1 jumps across 0 at p = x with no root, so Newton bisects until
        # the bracket collapses, or for MAX_NEWTON_ITER iterations on a
        # bracket too wide to collapse
        def phi(p, x, y, z, t):
            return np.where(np.abs(p - t) < z, np.nan,
                            np.where(y > 0.5, np.sign(p - x), x + p**3 - p))

        def dphi(p, x, y, z, t):
            return np.where(y > 0.5, 0.0, 3.0 * p * p - 1.0)

        rel = ImplicitRelation(phi=phi, dphi=dphi, phi_vec=phi)
        rng = np.random.default_rng(8)
        n = 3000
        pts = np.column_stack((rng.uniform(-0.3, 0.3, n),
                               rng.random(n) < 0.3,
                               np.where(rng.random(n) < 0.5, 0.05, 0.0),
                               rng.uniform(-1.5, 1.5, n)))
        lo = rng.uniform(-2.0, 0.5, n)
        hi = lo + rng.choice([1e-15, 0.1, 1.0, 2.5], n)
        hi[rng.random(n) < 0.1] = 1e300
        owner = np.arange(n)
        with np.errstate(all="ignore"):
            flo = phi(lo, *pts.T)
            got = _newton(rel, pts, owner, lo, hi, flo)
            assert_same_newton(got, full_newton(rel, pts, owner, lo, hi,
                                                flo))
            p, iterations, converged = got
            final = phi(p, *pts.T)
        lost = ~converged & ~np.isfinite(final)
        collapsed = ~converged & np.isfinite(final) \
            & (iterations < MAX_NEWTON_ITER)
        assert (lost & (iterations > 1)).sum() > 10
        assert collapsed.sum() > 10
        assert (iterations == MAX_NEWTON_ITER).sum() > 10
        assert converged.sum() > n // 10


class TestRootOrder:
    @pytest.mark.parametrize("name", ("shock_n3", "general_unbalanced"))
    def test_brackets_ascend_by_row_then_node(self, name):
        sc = load_scenario(SCENARIO_DIR / f"{name}.json")
        fam = sc.build_family()
        pts = sc.points(count=10_000, seed=6)
        rels = [fam.relation(i) for i in range(fam.size)] + [general(
            T="-cos(p)")]
        for rel in rels:
            with np.errstate(all="ignore"):
                _, found = _scan(rel, pts, sc.policy)
            key = found["b_owner"] * sc.policy.resolution + found["b_col"]
            assert len(key) >= len(pts)
            assert (np.diff(key) > 0).all()

    @pytest.mark.parametrize("x", [(0.0, 0.1, 0.0, -0.2), (0.1, -0.2)])
    def test_table_in_lexsort_order(self, x):
        # Phi = x + p^3 - p on a dyadic grid: at x = 0 the root 0 is a grid
        # zero and the roots near -1 and 1 are brackets
        policy = BranchPolicy(resolution=1025)
        pts = np.zeros((len(x), 4))
        pts[:, 0] = x
        table = enumerate_roots(general(T="p^3 - p"), pts, policy)
        assert len(table) == 3 * len(x)
        assert (table.iterations == 0).sum() == x.count(0.0)
        order = np.lexsort((table.root, table.owner))
        assert np.array_equal(order, np.arange(len(table)))


# The bound reads the p-only terms on the full grid row and phi_vec
# recomputes them on the nodes of the cells it evaluates, gathered as a
# (pairs, nodes) array; the free-of-p terms likewise on a block's rows and
# on gathered (pairs, 1) columns.  Both rest on numpy giving each element
# the same bits whatever the shape, length, offset or stride around it.
_ELEMENTWISE = {name: getattr(np, name) for name in exprdsl.FUNCTIONS}
_ELEMENTWISE.update({f"**{e}": (lambda v, e=e: v ** e)
                     for e in (2.0, 3.0, 4.0, 0.5, -1.0, -2.0, 1.5)})
# p^2, p^3 and p^4 as compiled: products of the base
_ELEMENTWISE.update({f"^{n}": exprdsl.compile_expr(
    exprdsl.parse(f"p^{n}", ["p"]), ["p"]) for n in (2, 3, 4)})


@pytest.mark.parametrize("name", sorted(_ELEMENTWISE))
def test_elementwise_bits_on_slices(name):
    fn = _ELEMENTWISE[name]
    grid = np.linspace(-10.0, 10.0, 1024)
    row = grid[None, :]
    pts = halton_cloud(256, 2) * 3.0 - 1.5
    picked = np.flatnonzero(np.arange(256) % 3 == 1)
    first = np.random.default_rng(3).integers(0, 1023, 300)
    with np.errstate(all="ignore"):
        for scale in (1.0, 0.37, 3.1, 71.0):
            full = fn(row * scale)
            for start in range(0, 1023, 32):
                part = fn(row[:, start:start + 33] * scale)
                assert np.array_equal(part, full[:, start:start + 33],
                                      equal_nan=True), (scale, start)
            for step in (SCAN_LEAF, 2 * SCAN_LEAF, 128):
                nodes = np.minimum(first[:, None] + np.arange(step + 1),
                                   1023)
                assert np.array_equal(fn(grid[nodes] * scale),
                                      full[0][nodes], equal_nan=True), \
                    (scale, step)
            column = fn(pts[:, 2:3] * scale)
            some = fn(pts[picked][:, 2:3] * scale)
            assert np.array_equal(some, column[picked], equal_nan=True)
            lanes = fn(pts[:, 2] * scale)
            assert np.array_equal(lanes[picked], some[:, 0], equal_nan=True)
