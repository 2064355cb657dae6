"""Root enumeration and on-sheet solves for implicit hodograph relations.

A relation is Phi(p; x, y, z, t) = 0 with p-derivative D.  Roots may be
multivalued (shocks); every sign change on a scan grid is refined by
safeguarded Newton with bisection fallback.  Tangential double roots are
out of contract: where one is found, |D| < FOLD_TOL there and
superpose.solve_point drops the point as a fold.

The engine works on whole clouds: a point set is an (N, 4) array of
(x, y, z, t) rows, the scan descends the cell tree with every row it is
given at once, and Newton runs over every bracket of every point at once.
The commands solve a cloud in slices of superpose.CLOUD_CHUNK rows.  A
single point is read as a one-row cloud (see as_cloud), so every function
returns the same type for it as for a cloud.

The scan bounds Phi on a tree of grid cells (R. E. Moore, Interval
Analysis, 1966): it starts from a few coarse cells, splits only the cells
whose bound may hold 0, down to leaves of SCAN_LEAF intervals, and
evaluates Phi on the nodes of the surviving cells.  The bound encloses the
values numpy computes, so a cell it clears holds no sign change and no
grid zero, and the brackets and grid zeros are those of evaluating every
node.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import exprdsl
from .record import Record

TOL_ABS = 1e-12
TOL_REL = 1e-12
FOLD_TOL = 1e-3          # |D| below this: a fold, excluded from checks
MAX_NEWTON_ITER = 100
# Scan values alive at once past the coarse bound, up to a small factor
# (see _scan): cells are bounded SCAN_BUDGET // 8 and evaluated
# SCAN_BUDGET // (4 * nodes) at a time.  A constant, so results never
# depend on the cloud size.
SCAN_BUDGET = 65536
SCAN_LEAF = 2            # grid intervals per leaf cell of the scan tree
SCAN_ROOTS = 4           # coarse cells the scan tree starts from, a power of 2
RELATION_VARIABLES = ("p", "x", "y", "z", "t")


_BOUNDED = ("add", "sub", "mul", "div", "neg")
# the program of a relation without a bound: a p-only leaf whose cell
# bounds are nan, so every cell is kept
_UNBOUNDED = ("row", lambda *args: math.nan)


@dataclass(frozen=True)
class ImplicitRelation:
    """Bundle of Phi, D = dPhi/dp and grad = (Phi_y, Phi_z, Phi_t) as
    numpy callables f(p, x, y, z, t).

    All arguments broadcast.  phi and dphi are evaluated on Newton lanes
    (one value per bracket), dphi once at every root (its one D), grad at
    the chosen roots, phi on complex lanes in solve_on_sheet; phi_vec on
    scan cells: a (pairs, nodes) array of the grid nodes of each (point,
    cell) pair against the (pairs, 1) columns of its point.  A result may
    be a Python float when the expression is constant, so callers broadcast.

    program is the scan's bound program of Phi (see _split), built with
    the callables by relation_from_expr.  A relation built from callables
    alone has no grad and the _UNBOUNDED program: the scan keeps its cells.
    """

    phi: callable
    dphi: callable
    phi_vec: callable
    grad: tuple | None = None
    program: tuple = _UNBOUNDED
    # the program's cell bounds, built once per grid (see _cells)
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)


class BranchPolicy(Record):
    """Scan interval, resolution and branch selection rule.

    selection is "lowest", "nearest" (to p = 0) or an integer index
    0 <= k < resolution into the ascending root list (a bool is not one).
    """

    p_lo: float = -10.0
    p_hi: float = 10.0
    resolution: int = 1024
    selection: object = "lowest"

    def __post_init__(self):
        if not self.p_lo < self.p_hi:
            raise ValueError("need p_lo < p_hi")
        if self.resolution < 16:
            raise ValueError("scan resolution must be >= 16")
        k = self.selection
        if k not in ("lowest", "nearest") and not (
                type(k) is int and 0 <= k < self.resolution):
            raise ValueError(f"selection must be \"lowest\", \"nearest\" "
                             f"or an index 0 <= k < {self.resolution}, "
                             f"not {k!r}")


class RootReport(Record):
    root: float
    deriv: float
    iterations: int
    converged: bool = True


class RootTable(Record):
    """Roots of a cloud as arrays, one entry per root, sorted by (owner, root).

    owner is the row of the cloud the root belongs to.  len() is the number
    of roots and items are RootReport values, so a table reads like a list
    of roots.
    """

    owner: np.ndarray
    root: np.ndarray
    deriv: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    points: np.ndarray      # the (N, 4) cloud

    def __len__(self) -> int:
        return len(self.root)

    def __getitem__(self, k) -> RootReport:
        return RootReport(root=float(self.root[k]),
                          deriv=float(self.deriv[k]),
                          iterations=int(self.iterations[k]),
                          converged=bool(self.converged[k]))

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def select(self, policy: "BranchPolicy") -> np.ndarray:
        """Entry chosen by the policy for each cloud row, -1 where none."""
        counts = np.bincount(self.owner, minlength=len(self.points))
        first = np.cumsum(counts) - counts
        return _pick(self.root, first, counts, policy.selection)


def _numeric(values) -> np.ndarray:
    """A float64 array, complex128 if values are complex; no copy of one."""
    a = np.asarray(values)
    return a.astype(complex if a.dtype.kind == "c" else float, copy=False)


def as_cloud(points) -> np.ndarray:
    """An (N, 4) float (or complex) array from one point or a sequence of
    points; an (N, 4) float array is returned as it is."""
    pts = _numeric(points)
    return pts if pts.ndim == 2 and pts.shape[1] == 4 else pts.reshape(-1, 4)


def cloud_lanes(point, proot):
    """Coordinate columns (4, N) and root lanes (N,) of a point or cloud."""
    return as_cloud(point).T, _numeric(proot).reshape(-1)


def lanes(value, n: int) -> np.ndarray:
    """A compiled result broadcast to n lanes (constants are floats)."""
    if type(value) is np.ndarray and value.shape == (n,) \
            and value.dtype == np.float64:
        return value
    return np.broadcast_to(_numeric(value), (n,))


def median(values) -> float:
    """np.median of one or more values, bit for bit, without importing
    numpy.ma.

    The middle value, or the middle pair, is summed from +0.0 (so -0.0
    gives +0.0) and averaged; any nan makes the median nan.  A contiguous
    float64 array is partitioned in place, not copied.
    """
    part = np.asarray(values, dtype=float).ravel()
    n = part.size
    mid = [(n - 1) // 2, n // 2]
    # the kth list of np.median: nan sorts last, so part[-1] tells
    part.partition(mid + [-1])
    if math.isnan(part[-1]):
        return float(part[-1])
    lo, hi = part[mid].tolist()
    return (0.0 + lo + hi) / 2 if n % 2 == 0 else 0.0 + lo


def _pick(root, first, counts, selection) -> np.ndarray:
    """Per group of consecutive ascending roots, the index the rule selects."""
    has = counts > 0
    if not len(root):
        return np.full(len(counts), -1)
    if selection == "lowest":
        return np.where(has, first, -1)
    if selection == "nearest":
        group = np.repeat(np.arange(len(counts)), counts)
        # lexsort is stable: ties keep the lowest root, as min() would
        order = np.lexsort((np.abs(root), group))
        return np.where(has, order[np.minimum(first, len(root) - 1)], -1)
    # an index: BranchPolicy holds it to 0 <= k < resolution
    return np.where(selection < counts, first + selection, -1)


def relation_from_expr(expr: exprdsl.Expr) -> ImplicitRelation:
    """phi, dphi, phi_vec, grad and the scan's bound program, all compiled
    from one Phi expression when the family is built."""
    phi = exprdsl.compile_expr(expr, RELATION_VARIABLES)
    dphi, *grad = (exprdsl.compile_expr(exprdsl.differentiate(expr, v),
                                        RELATION_VARIABLES) for v in "pyzt")
    # an unbounded Phi compiles no leaf
    return ImplicitRelation(
        phi=phi, dphi=dphi, phi_vec=phi, grad=tuple(grad),
        program=_split(expr) if _splits(expr) else _UNBOUNDED)


def shock_relation(sdef, shared) -> ImplicitRelation:
    """Phi = x + (alpha(t) + beta(y) + delta(z)) F'(p) + G(p)."""
    S = exprdsl.add(exprdsl.add(shared.alpha.expr, shared.beta.expr),
                    shared.delta.expr)
    return relation_from_expr(exprdsl.add(
        exprdsl.add(exprdsl.var("x"), exprdsl.mul(S, sdef.F.partial(1))),
        sdef.G.expr))


def general_relation(gdef) -> ImplicitRelation:
    """Phi = x + d1Q(p,y) + d1R(p,z) + T(p,t)."""
    return relation_from_expr(exprdsl.add(exprdsl.add(exprdsl.add(
        exprdsl.var("x"), gdef.Q.partial(1, 0)), gdef.R.partial(1, 0)),
        gdef.T.expr))


def _splits(e: exprdsl.Expr) -> bool:
    """Whether Phi has a bound program: no call or ^ between p and the
    coordinates."""
    names = exprdsl.free_variables(e)
    return "p" not in names or names == {"p"} or (
        e.kind in _BOUNDED and all(map(_splits, e.args)))


def _split(e: exprdsl.Expr):
    """The bound program of a Phi expression that _splits.

    Leaves are the maximal subtrees in p only ("row") and free of p
    ("col"), each compiled; the nodes between them are + - * / and
    negation.
    """
    names = exprdsl.free_variables(e)
    if "p" not in names:
        return ("col", exprdsl.compile_expr(e, RELATION_VARIABLES))
    if names == {"p"}:
        return ("row", exprdsl.compile_expr(e, RELATION_VARIABLES))
    return (e.kind, *map(_split, e.args))


def _on_cells(program, grid, roots, width):
    """program with each row leaf replaced by its min and max on the cells
    of every tree level, coarse level (roots cells of width nodes) first.

    A leaf cell is SCAN_LEAF intervals, and its nodes past the grid hold
    the last node's value; a parent's bound is the min and max over its
    two children.
    """
    starts = np.arange(0, (width - 1) * roots, SCAN_LEAF)
    nodes = np.minimum(starts[:, None] + np.arange(SCAN_LEAF + 1),
                       len(grid) - 1)
    return _level_bounds(program, grid, nodes, roots)


def _level_bounds(node, grid, nodes, roots):
    if node[0] == "row":
        vals = np.broadcast_to(np.asarray(node[1](grid[None, :], None, None,
                                                  None, None), dtype=float),
                               (1, len(grid)))[0][nodes]
        lo, hi = [vals.min(axis=1)], [vals.max(axis=1)]
        while len(lo[-1]) > roots:
            lo.append(np.minimum(lo[-1][::2], lo[-1][1::2]))
            hi.append(np.maximum(hi[-1][::2], hi[-1][1::2]))
        return ("row", lo[::-1], hi[::-1])
    if node[0] == "col":
        return node
    return (node[0], *(_level_bounds(child, grid, nodes, roots)
                       for child in node[1:]))


def _on_block(node, cols):
    """node with each col leaf replaced by its values on the scan's rows
    (a constant stays a float) and their sign: 1 or -1 if every value has
    it, else 0."""
    if node[0] == "col":
        v = node[1](None, *cols)
        if not isinstance(v, float):
            v = lanes(v, len(cols[0]))
        sign = 1 if np.all(v > 0.0) else -1 if np.all(v < 0.0) else 0
        return ("col", v, sign)
    if node[0] == "row":
        return node
    return (node[0], *(_on_block(child, cols) for child in node[1:]))


def _bound(node, level, owner, cell):
    """Lower and upper bounds of a program node on the cells of a tree
    level: cell indexes the level's cells and owner the scan's rows.

    Rounding to nearest is non-decreasing in each operand of + - * / and
    negation, so the bounds enclose the computed values; nan means none.
    """
    kind = node[0]
    if kind == "row":
        return node[1][level][cell], node[2][level][cell]
    if kind == "col":
        v = node[1] if isinstance(node[1], float) else node[1][owner]
        return v, v
    if kind == "neg":
        a_lo, a_hi = _bound(node[1], level, owner, cell)
        return -a_hi, -a_lo
    a, b = node[1], node[2]
    if kind == "mul" and a[0] == "col":
        a, b = b, a         # a product has the same bits either way round
    a_lo, a_hi = _bound(a, level, owner, cell)
    b_lo, b_hi = _bound(b, level, owner, cell)
    if kind == "add":
        return a_lo + b_lo, a_hi + b_hi
    if kind == "sub":
        return a_lo - b_hi, a_hi - b_lo
    op = operator.mul if kind == "mul" else operator.truediv
    if b[0] == "col" and b[2]:
        # a col leaf of one sign on the scan's rows keeps the ends in order
        # or swaps them
        lo, hi = op(a_lo, b_lo), op(a_hi, b_lo)
        return (lo, hi) if b[2] > 0 else (hi, lo)
    # a col leaf is a point (lo is hi): its two corners are all four
    corners = [op(x, y) for x in ((a_lo,) if a_lo is a_hi else (a_lo, a_hi))
               for y in ((b_lo,) if b_lo is b_hi else (b_lo, b_hi))]
    lo = functools.reduce(np.minimum, corners)
    hi = functools.reduce(np.maximum, corners)
    if kind == "div":
        # a divisor that may hold 0 gives no bound
        safe = (b_lo > 0.0) | (b_hi < 0.0)
        lo, hi = np.where(safe, lo, np.nan), np.where(safe, hi, np.nan)
    return lo, hi


def _uncleared(lo, hi, shape):
    """Flat indices, in an array of shape, of the cells whose bound may
    hold 0.  A bound of one number (a constant Phi) holds for every cell;
    nan fails both tests, so an unbounded cell is kept."""
    keep = np.logical_not((lo > 0.0) | (hi < 0.0))
    if keep.shape != shape:
        keep = np.broadcast_to(keep, shape)
    return np.flatnonzero(keep)


def _kept(program, level, pairs, bits):
    """The pairs (row << bits | cell) of a tree level whose bound may hold
    0, bounded SCAN_BUDGET // 8 pairs at a time."""
    kept = []
    for c in range(0, max(len(pairs), 1), SCAN_BUDGET // 8):
        part = pairs[c:c + SCAN_BUDGET // 8]
        kept.append(part[_uncleared(*_bound(
            program, level, part >> bits, part & ((1 << bits) - 1)),
            part.shape)])
    return kept[0] if len(kept) == 1 else np.concatenate(kept)


def _cells(rel: ImplicitRelation, policy: BranchPolicy):
    """Grid, nodes per coarse cell and rel.program with the cell bounds of
    its p-only leaves (see _on_cells).

    The scan tree starts from SCAN_ROOTS coarse cells of SCAN_LEAF
    intervals times the least power of two that lets them cover the grid;
    a cell may run past the grid.  Built once per relation and grid: each
    p-only leaf keeps the two ends of every cell of every level, 16 KB at
    1 024 nodes.
    """
    key = (policy.p_lo, policy.p_hi, policy.resolution)
    if key not in rel._cache:
        grid = np.linspace(policy.p_lo, policy.p_hi, policy.resolution)
        cell = SCAN_LEAF
        while cell * SCAN_ROOTS < len(grid) - 1:
            cell *= 2
        rel._cache[key] = grid, cell + 1, _on_cells(rel.program, grid,
                                                    SCAN_ROOTS, cell + 1)
    return rel._cache[key]


def _scan(rel: ImplicitRelation, pts: np.ndarray, policy: BranchPolicy):
    """Sign-change brackets and exact grid zeros of Phi, on a cell tree.

    The rows given descend the tree together, one level at a time, from the
    coarse cells.  A cell whose bound is strictly positive or strictly
    negative is cleared; the others are split in two, down to cells of
    SCAN_LEAF intervals, or until a split clears less than a quarter of the
    children (a bound too loose to gain from narrower cells).  phi_vec then
    runs on the grid nodes of the surviving cells.  The nan bounds of an
    unbounded relation clear nothing, so its descent stops after the first
    split.
    """
    grid, width, program = _cells(rel, policy)
    last = len(grid) - 1
    depth = (width - 1).bit_length() - SCAN_LEAF.bit_length()
    # a (row, cell) pair of a tree level is row << (shift + level) | cell
    shift = (SCAN_ROOTS - 1).bit_length()
    # working memory follows the rows given: the coarse bound keeps about
    # eight arrays of SCAN_ROOTS pairs a row alive
    tree = _on_block(program, pts.T)
    # every row's coarse cells bound as one (rows, SCAN_ROOTS) broadcast
    pairs = _uncleared(*_bound(tree, 0, np.s_[:, None], np.s_[None, :]),
                           (len(pts), SCAN_ROOTS))
    level = 0
    while level < depth:
        level += 1
        children = np.repeat(pairs << 1, 2)
        children[1::2] += 1
        pairs = _kept(tree, level, children, shift + level)
        # a split that clears a quarter of the children, and keeps some,
        # pays for the next
        if not 0 < 4 * len(pairs) <= 3 * len(children):
            break

    step = (width - 1) >> level
    # nodes past the grid are evaluated but never reported
    padded = np.r_[grid, np.full(SCAN_ROOTS * (width - 1) + 1 - len(grid),
                                 np.nan)]
    # the nodes of every cell of the level, one row each
    windows = np.lib.stride_tricks.sliding_window_view(padded,
                                                       step + 1)[::step]
    chunk = max(1, SCAN_BUDGET // (4 * (step + 1)))
    bits = shift + level
    # typed empty entries: rows whose cells are all cleared find none
    found = {k: [np.zeros(0, dtype=float if k == "b_flo" else np.intp)]
             for k in ("b_owner", "b_col", "b_flo", "z_owner", "z_col")}
    # children of ascending pairs ascend, so the results come by row, then
    # by node: the order of a scan over every node
    for c0 in range(0, len(pairs), chunk):
        owner = pairs[c0:c0 + chunk] >> bits
        cell = pairs[c0:c0 + chunk] & ((1 << bits) - 1)
        sub = pts[owner]
        vals = np.broadcast_to(np.asarray(rel.phi_vec(
            windows[cell], *(sub[:, k:k + 1] for k in range(4))),
            dtype=float), (len(owner), step + 1))
        finite = np.isfinite(vals)
        change = vals[:, :-1] * vals[:, 1:] < 0.0
        if not finite.all():
            change &= finite[:, :-1] & finite[:, 1:]
        i, j = np.divmod(np.flatnonzero(change), step)
        node = cell[i] * step + j
        keep = node < last
        found["b_owner"].append(owner[i][keep])
        found["b_col"].append(node[keep])
        found["b_flo"].append(vals[i[keep], j[keep]])
        zero = vals == 0.0
        if zero.any():
            i, j = np.divmod(np.flatnonzero(zero), step + 1)
            node = cell[i] * step + j
            # a node two cells share counts in the cell it starts; the
            # tree's last node starts none
            once = (node <= last) & ((j < step) | (node == len(padded) - 1))
            found["z_owner"].append(owner[i][once])
            found["z_col"].append(node[once])
    return grid, {k: np.concatenate(v) for k, v in found.items()}


def _newton(rel: ImplicitRelation, pts, owner, lo, hi, flo):
    """Safeguarded Newton on every bracket at once, on the live lanes only.

    A lane leaves with its iterate, iteration count and convergence when
    Phi is within tol there, when its bracket collapses or after
    MAX_NEWTON_ITER iterations.  A lane whose Phi is not finite at an
    iterate leaves unconverged: the bracket's sign information is lost
    there, so the root is a hole.
    """
    n = len(owner)
    cols = pts[owner].T
    p = np.empty(n)
    iterations = np.zeros(n, dtype=np.int32)
    converged = np.zeros(n, dtype=bool)
    # the live lanes: index, iterate, bracket, Phi at lo, coordinates, tol
    act, pa, ca = np.arange(n), 0.5 * (lo + hi), cols
    tol = TOL_ABS + TOL_REL * np.abs(cols[0])
    it = 0
    while act.size and it < MAX_NEWTON_ITER:
        it += 1
        f = lanes(rel.phi(pa, *ca), act.size)
        finite = np.isfinite(f)
        hit = finite & (np.abs(f) <= tol)
        out = hit | ~finite
        if out.any():
            done = act[out]
            p[done], iterations[done], converged[done] = pa[out], it, hit[out]
            keep = ~out
            act, pa, lo, hi, flo, ca, tol, f = (
                v[..., keep] for v in (act, pa, lo, hi, flo, ca, tol, f))
            if not act.size:
                break
        # maintain the bracket
        right = f * flo < 0.0
        lo = np.where(right, lo, pa)
        hi = np.where(right, pa, hi)
        flo = np.where(right, flo, f)
        d = lanes(rel.dphi(pa, *ca), act.size)
        cand = pa - f / d
        step_ok = np.isfinite(d) & (d != 0.0) & (lo < cand) & (cand < hi)
        pa = np.where(step_ok, cand, 0.5 * (lo + hi))
        collapsed = hi - lo <= 1e-16 * (1.0 + np.abs(pa))
        if collapsed.any():
            done = act[collapsed]
            fc = lanes(rel.phi(pa[collapsed], *ca[:, collapsed]), done.size)
            p[done], iterations[done] = pa[collapsed], it
            converged[done] = np.isfinite(fc) & (np.abs(fc) <= tol[collapsed])
            keep = ~collapsed
            act, pa, lo, hi, flo, ca, tol = (
                v[..., keep] for v in (act, pa, lo, hi, flo, ca, tol))
    # the lanes still live ran out of iterations
    p[act], iterations[act] = pa, it
    return p, iterations, converged


def enumerate_roots(rel: ImplicitRelation, points,
                    policy: BranchPolicy = BranchPolicy()) -> RootTable:
    """All sign-change roots of Phi on the policy scan interval, as a
    RootTable sorted by (point, root)."""
    pts = as_cloud(points)
    with np.errstate(all="ignore"):
        grid, found = _scan(rel, pts, policy)
        b_col, z_col = found["b_col"], found["z_col"]
        owner = np.concatenate((found["b_owner"], found["z_owner"]))
        lo = np.concatenate((grid[b_col], grid[z_col]))
        hi = np.concatenate((grid[b_col + 1], grid[z_col]))
        nb, nz = len(b_col), len(z_col)
        root = lo.copy()        # an exact zero is its grid node
        iterations = np.zeros(nb + nz, dtype=np.int32)
        converged = np.ones(nb + nz, dtype=bool)
        if nb:
            root[:nb], iterations[:nb], converged[:nb] = _newton(
                rel, pts, owner[:nb], lo[:nb], hi[:nb], found["b_flo"])
        # the one D of each root: the fold test and the partials read it
        deriv = lanes(rel.dphi(root, *pts[owner].T), nb + nz)
    if nz:
        # _scan gives brackets in (row, node) order; brackets sit between
        # grid nodes, exact zeros on them
        order = np.lexsort((np.concatenate((b_col + 0.5, z_col)), owner))
        owner, root, deriv, iterations, converged = (
            v[order] for v in (owner, root, deriv, iterations, converged))
    return RootTable(owner=owner.astype(np.int32), root=root, deriv=deriv,
                     iterations=iterations, converged=converged, points=pts)


def solve_on_sheet(rel: ImplicitRelation, points, seed, d) -> np.ndarray:
    """fdoracle's complex step: p on the sheet of a real root, at points a
    step h off the real axis along one coordinate.

    seed is the root at the real points and d its dPhi/dp, one or one per
    row.  p = seed + i v keeps the root as real part; Newton, with d as its
    matrix, drives |Im Phi| below h (TOL_ABS + TOL_REL |x|), so v depends
    on Phi alone and a wrong matrix only costs steps.  nan where Phi or d
    was not finite, d was 0 or Newton did not converge.
    """
    pts = as_cloud(points)
    n = len(pts)
    cols = pts.T
    tol = np.abs(pts.imag).sum(axis=1) * (TOL_ABS + TOL_REL * np.abs(cols[0]))
    root = lanes(seed, n)
    d = lanes(d, n)
    v = np.zeros(n)
    with np.errstate(all="ignore"):
        failed = ~np.isfinite(d) | (d == 0.0)
        live = ~failed
        for _ in range(MAX_NEWTON_ITER):
            f = lanes(rel.phi(root + 1j * v, *cols), n)
            finite = np.isfinite(f)
            failed |= live & ~finite
            live &= finite & (np.abs(f.imag) > tol)
            if not live.any():
                break
            # converged lanes keep their step
            v = np.where(live, v - f.imag / d, v)
    return np.where(failed | live, np.nan, root + 1j * v)
