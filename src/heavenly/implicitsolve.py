"""Root enumeration and on-sheet solves for implicit hodograph relations.

A relation is Phi(p; x, y, z, t) = 0 with p-derivative D.  Roots may be
multivalued (shocks); every sign change on a scan grid is refined by
safeguarded Newton with bisection fallback.  Tangential double roots are
out of contract and only surfaced through the |D| < eps degeneracy flag.

The engine works on whole clouds: a point set is an (N, 4) array of
(x, y, z, t) rows, the scan runs over fixed-size blocks of rows, and Newton
runs over every bracket of every point at once.  A single point is read
as a one-row cloud (see as_cloud), so every function returns the same type
for it as for a cloud.

The scan cuts the grid into cells of SCAN_CELL intervals and evaluates Phi
only on the cells whose interval bound may hold 0 (R. E. Moore, Interval
Analysis, 1966).  The bound encloses the values numpy computes, so the
brackets and grid zeros are those of evaluating every node.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from . import exprdsl

TOL_ABS = 1e-12
TOL_REL = 1e-12
EPS_DEGENERATE = 1e-8    # |D| below this: no implicit derivatives at all
FOLD_TOL = 1e-3          # |D| below this: a fold, excluded from checks
MAX_NEWTON_ITER = 100
# Scan elements alive per block: a one-cell block is
# SCAN_BUDGET // (2 * resolution) cloud rows.  A constant, so results never
# depend on the cloud size.
SCAN_BUDGET = 65536
SCAN_CELL = 32           # grid intervals per scan cell
RELATION_VARIABLES = ("p", "x", "y", "z", "t")


@dataclass(frozen=True)
class ImplicitRelation:
    """Bundle of Phi and D = dPhi/dp as numpy callables f(p, x, y, z, t).

    All arguments broadcast.  phi and dphi are evaluated on Newton lanes
    (one value per bracket); phi_vec on scan blocks: a (1, n) grid row, or
    a slice of it, against (k, 1) columns of points.  A result may come
    back as a Python float when the expression is constant, so callers
    broadcast.

    expr is the Phi expression over RELATION_VARIABLES that the callables
    were compiled from (see relation_from_expr), or None for a relation
    built from callables alone; the scan bounds Phi cell by cell only when
    it has one.
    """

    phi: callable
    dphi: callable
    phi_vec: callable
    expr: exprdsl.Expr | None = None
    # the scan's bound program and cell bounds, built once per relation
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)


@dataclass(frozen=True)
class BranchPolicy:
    """Scan interval, resolution and branch selection rule.

    selection is "lowest", "nearest" (to seed_root) or an integer index
    0 <= k < resolution into the ascending root list (a bool is not one).
    """

    p_lo: float = -10.0
    p_hi: float = 10.0
    resolution: int = 1024
    selection: object = "lowest"
    seed_root: float = 0.0

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


@dataclass(frozen=True)
class RootReport:
    root: float
    residual: float
    deriv: float
    iterations: int
    degenerate: bool = False
    converged: bool = True


@dataclass(frozen=True)
class RootTable:
    """Roots of a cloud as arrays, one entry per root, sorted by (owner, root).

    owner is the row of the cloud the root belongs to.  len() is the number
    of roots and items are RootReport values, so a table reads like a list
    of roots.
    """

    owner: np.ndarray
    root: np.ndarray
    residual: np.ndarray
    deriv: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    points: np.ndarray      # the (N, 4) cloud

    def __len__(self) -> int:
        return len(self.root)

    def __getitem__(self, k) -> RootReport:
        d = float(self.deriv[k])
        return RootReport(root=float(self.root[k]),
                          residual=float(self.residual[k]), deriv=d,
                          iterations=int(self.iterations[k]),
                          degenerate=bool(abs(d) < EPS_DEGENERATE),
                          converged=bool(self.converged[k]))

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def take(self, idx) -> "RootTable":
        """The entries at idx, in that order."""
        return replace(self, **{name: getattr(self, name)[idx] for name in
                                ("owner", "root", "residual", "deriv",
                                 "iterations", "converged")})

    def select(self, policy: "BranchPolicy") -> np.ndarray:
        """Entry chosen by the policy for each cloud row, -1 where none."""
        counts = np.bincount(self.owner, minlength=len(self.points))
        first = np.cumsum(counts) - counts
        return _pick(self.root, first, counts, policy.selection,
                     policy.seed_root)


def as_cloud(points) -> np.ndarray:
    """An (N, 4) float array from one point or a sequence of points; an
    (N, 4) float array is returned as it is."""
    pts = np.asarray(points, dtype=float)
    return pts if pts.ndim == 2 and pts.shape[1] == 4 else pts.reshape(-1, 4)


def cloud_lanes(point, proot):
    """Coordinate columns (4, N) and root lanes (N,) of a point or cloud."""
    return as_cloud(point).T, np.asarray(proot, dtype=float).reshape(-1)


def lanes(value, n: int) -> np.ndarray:
    """A compiled result broadcast to n lanes (constants are floats)."""
    if type(value) is np.ndarray and value.shape == (n,) \
            and value.dtype == np.float64:
        return value
    return np.broadcast_to(np.asarray(value, dtype=float), (n,))


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


def _pick(root, first, counts, selection, target) -> np.ndarray:
    """Per group of consecutive ascending roots, the index the rule selects."""
    has = counts > 0
    if not len(root):
        return np.full(len(counts), -1)
    if selection == "lowest":
        return np.where(has, first, -1)
    if selection == "nearest":
        group = np.repeat(np.arange(len(counts)), counts)
        # lexsort is stable: ties keep the lowest root, as min() would
        order = np.lexsort((np.abs(root - target), group))
        return np.where(has, order[np.minimum(first, len(root) - 1)], -1)
    # an index: BranchPolicy holds it to 0 <= k < resolution
    return np.where(selection < counts, first + selection, -1)


def relation_from_expr(expr: exprdsl.Expr) -> ImplicitRelation:
    """phi, dphi and phi_vec compiled from one Phi expression."""
    phi = exprdsl.compile_expr(expr, RELATION_VARIABLES)
    dphi = exprdsl.compile_expr(exprdsl.differentiate(expr, "p"),
                                RELATION_VARIABLES)
    return ImplicitRelation(phi=phi, dphi=dphi, phi_vec=phi, expr=expr)


def shock_relation(sdef, shared) -> ImplicitRelation:
    """Phi = x + (alpha+beta+delta) F'(p) + G(p); D = S F'' + G'."""
    S = exprdsl.add(exprdsl.add(shared.alpha.expr, shared.beta.expr),
                    shared.delta.expr)
    return relation_from_expr(exprdsl.add(
        exprdsl.add(exprdsl.var("x"), exprdsl.mul(S, sdef.F.partial(1))),
        sdef.G.expr))


def general_relation(gdef) -> ImplicitRelation:
    """Phi = x + d1Q(p,y) + d1R(p,z) + T(p,t); D = d11Q + d11R + d1T."""
    return relation_from_expr(exprdsl.add(exprdsl.add(exprdsl.add(
        exprdsl.var("x"), gdef.Q.partial(1, 0)), gdef.R.partial(1, 0)),
        gdef.T.expr))


_BOUNDED = ("add", "sub", "mul", "div", "neg")


def _split(e: exprdsl.Expr):
    """The bound program of a Phi expression, or None if it has none.

    Leaves are the maximal subtrees in p only ("row") and free of p
    ("col"), each compiled; the nodes between them are + - * / and
    negation.  A call or ^ between them leaves Phi unbounded.
    """
    names = exprdsl.free_variables(e)
    if "p" not in names:
        return ("col", exprdsl.compile_expr(e, RELATION_VARIABLES))
    if names == {"p"}:
        return ("row", exprdsl.compile_expr(e, RELATION_VARIABLES))
    if e.kind not in _BOUNDED:
        return None
    parts = [_split(a) for a in e.args]
    if any(part is None for part in parts):
        return None
    return (e.kind, *parts)


def _on_cells(node, grid, nodes):
    """node with each row leaf replaced by its (1, cells) min and max."""
    if node[0] == "row":
        vals = np.broadcast_to(np.asarray(node[1](grid[None, :], None, None,
                                                  None, None), dtype=float),
                               (1, len(grid)))[0][nodes]
        return ("row", vals.min(axis=1)[None], vals.max(axis=1)[None])
    if node[0] == "col":
        return node
    return (node[0], *(_on_cells(child, grid, nodes) for child in node[1:]))


def _bound(node, cols):
    """Lower and upper bounds of a program node on each (row, cell).

    Rounding to nearest is non-decreasing in each operand of + - * / and
    negation, so the bounds enclose the computed values; nan means none.
    """
    kind = node[0]
    if kind == "row":
        return node[1], node[2]
    if kind == "col":
        v = node[1](None, *cols)
        return v, v
    a_lo, a_hi = _bound(node[1], cols)
    if kind == "neg":
        return -a_hi, -a_lo
    b_lo, b_hi = _bound(node[2], cols)
    if kind == "add":
        return a_lo + b_lo, a_hi + b_hi
    if kind == "sub":
        return a_lo - b_hi, a_hi - b_lo
    # a col leaf is a point (lo is hi): its two corners are all four
    op = operator.mul if kind == "mul" else operator.truediv
    corners = [op(a, b) for a in ((a_lo,) if a_lo is a_hi else (a_lo, a_hi))
               for b in ((b_lo,) if b_lo is b_hi else (b_lo, b_hi))]
    lo = functools.reduce(np.minimum, corners)
    hi = functools.reduce(np.maximum, corners)
    if kind == "div":
        # a divisor that may hold 0 gives no bound
        safe = (b_lo > 0.0) | (b_hi < 0.0)
        lo, hi = np.where(safe, lo, np.nan), np.where(safe, hi, np.nan)
    return lo, hi


def _cells(rel: ImplicitRelation, policy: BranchPolicy):
    """Grid, first node of each cell, nodes per cell and bound program.

    Without a bound program the whole grid is one cell.  Built once per
    relation and grid.
    """
    key = (policy.p_lo, policy.p_hi, policy.resolution)
    cache = rel._cache
    if key not in cache:
        if "split" not in cache:
            cache["split"] = None if rel.expr is None else _split(rel.expr)
        program = cache["split"]
        grid = np.linspace(policy.p_lo, policy.p_hi, policy.resolution)
        last = len(grid) - 1
        cell = last if program is None else min(SCAN_CELL, last)
        starts = np.arange(0, last, cell)
        if program is not None:
            nodes = np.minimum(starts[:, None] + np.arange(cell + 1), last)
            program = _on_cells(program, grid, nodes)
        cache[key] = grid, starts, cell + 1, program
    return cache[key]


def _scan(rel: ImplicitRelation, pts: np.ndarray, policy: BranchPolicy):
    """Sign-change brackets and exact grid zeros of Phi, cell by cell.

    phi_vec runs on a cell's slice of the grid against the block rows whose
    bound on that cell is not strictly positive or strictly negative.  A
    relation without a bound program is one cell spanning the grid.
    """
    grid, starts, width, program = _cells(rel, policy)
    row = grid[None, :]
    last = len(grid) - 1
    n_cells = len(starts)
    # A block keeps about eight (rows, cells) bound arrays alive.  Its
    # (row, cell) pairs are evaluated in chunks whose values are held twice,
    # as phi_vec results and as the chunk's array: half of SCAN_BUDGET each.
    chunk = max(1, SCAN_BUDGET // (2 * width))
    rows = max(1, min(SCAN_BUDGET // (8 * n_cells), chunk))
    # typed empty entries: a cloud whose cells are all skipped finds none
    found = {k: [np.zeros(0, dtype=float if k == "b_flo" else np.intp)]
             for k in ("b_owner", "b_col", "b_flo", "z_owner", "z_col")}
    for start in range(0, len(pts), rows):
        block = pts[start:start + rows]
        if program is None:
            need = np.ones((len(block), 1), dtype=bool)
        else:
            lo, hi = _bound(program, [block[:, k:k + 1] for k in range(4)])
            # nan fails both tests, so an unbounded cell is evaluated
            need = np.broadcast_to(np.logical_not((lo > 0.0) | (hi < 0.0)),
                                   (len(block), n_cells))
        cell, r = np.nonzero(need.T)        # by cell, rows ascending
        for c0 in range(0, len(r), chunk):
            node0 = starts[cell[c0:c0 + chunk]]
            owner = r[c0:c0 + chunk]
            # nan pads the last cell: no bracket, no zero
            vals = np.full((len(owner), width), np.nan)
            runs = np.flatnonzero(np.diff(node0)) + 1
            for s, e in zip(np.r_[0, runs], np.r_[runs, len(owner)]):
                sub = block[owner[s:e]]
                nodes = row[:, node0[s]:node0[s] + width]
                vals[s:e, :nodes.shape[1]] = rel.phi_vec(
                    nodes, *(sub[:, c:c + 1] for c in range(4)))
            finite = np.isfinite(vals)
            change = vals[:, :-1] * vals[:, 1:] < 0.0
            if not finite.all():
                change &= finite[:, :-1] & finite[:, 1:]
            i, j = np.divmod(np.flatnonzero(change), width - 1)
            found["b_owner"].append(owner[i] + start)
            found["b_col"].append(node0[i] + j)
            found["b_flo"].append(vals[i, j])
            zero = vals == 0.0
            if zero.any():
                i, j = np.divmod(np.flatnonzero(zero), width)
                node = node0[i] + j
                # a node two cells share counts in the cell it starts
                once = (j < width - 1) | (node == last)
                found["z_owner"].append(owner[i][once] + start)
                found["z_col"].append(node[once])
    cat = {k: np.concatenate(v) for k, v in found.items()}
    # by row, then by node: the order of a scan over every node
    b = np.lexsort((cat["b_col"], cat["b_owner"]))
    z = np.lexsort((cat["z_col"], cat["z_owner"]))
    return grid, {k: v[b if k[0] == "b" else z] for k, v in cat.items()}


def _newton(rel: ImplicitRelation, pts, owner, lo, hi, flo):
    """Safeguarded Newton on every bracket at once; converged lanes freeze.

    A lane whose Phi is not finite at an iterate ends unconverged: the
    bracket's sign information is lost there, so the root is a hole.
    A lane keeps the Phi of the iterate it stopped at; only lanes that run
    out of iterations evaluate Phi once more, at their last step.
    """
    n = len(owner)
    cols = pts[owner].T
    tol = TOL_ABS + TOL_REL * np.abs(cols[0])
    lo, hi, flo = lo.copy(), hi.copy(), flo.copy()
    p = 0.5 * (lo + hi)
    phi = np.empty(n)
    iterations = np.zeros(n, dtype=np.int32)
    converged = np.zeros(n, dtype=bool)
    act = np.arange(n)
    capped = [act[:0]]
    while act.size:
        iterations[act] += 1
        pa = p[act]
        ca = cols[:, act]
        f = lanes(rel.phi(pa, *ca), act.size)
        finite = np.isfinite(f)
        hit = finite & (np.abs(f) <= tol[act])
        converged[act[hit]] = True
        keep = finite & ~hit
        phi[act[~keep]] = f[~keep]
        act, pa, ca, f = act[keep], pa[keep], ca[:, keep], f[keep]
        # maintain the bracket
        right = f * flo[act] < 0.0
        a_lo = np.where(right, lo[act], pa)
        a_hi = np.where(right, pa, hi[act])
        flo[act] = np.where(right, flo[act], f)
        d = lanes(rel.dphi(pa, *ca), act.size)
        cand = pa - f / d
        step_ok = np.isfinite(d) & (d != 0.0) & (a_lo < cand) & (cand < a_hi)
        pa = np.where(step_ok, cand, 0.5 * (a_lo + a_hi))
        lo[act], hi[act], p[act] = a_lo, a_hi, pa
        collapsed = a_hi - a_lo <= 1e-16 * (1.0 + np.abs(pa))
        if collapsed.any():
            done = act[collapsed]
            fc = lanes(rel.phi(pa[collapsed], *ca[:, collapsed]), done.size)
            converged[done] = np.isfinite(fc) & (np.abs(fc) <= tol[done])
            phi[done] = fc
        act = act[~collapsed]
        more = iterations[act] < MAX_NEWTON_ITER
        capped.append(act[~more])
        act = act[more]
    last = np.concatenate(capped)
    if last.size:
        phi[last] = lanes(rel.phi(p[last], *cols[:, last]), last.size)
    d = lanes(rel.dphi(p, *cols), n)
    return p, np.abs(phi), d, iterations, converged


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
        root = np.empty(nb + nz)
        residual = np.zeros(nb + nz)
        deriv = np.empty(nb + nz)
        iterations = np.zeros(nb + nz, dtype=np.int32)
        converged = np.ones(nb + nz, dtype=bool)
        if nb:
            (root[:nb], residual[:nb], deriv[:nb], iterations[:nb],
             converged[:nb]) = _newton(rel, pts, owner[:nb], lo[:nb],
                                       hi[:nb], found["b_flo"])
        if nz:
            root[nb:] = lo[nb:]
            deriv[nb:] = lanes(rel.dphi(lo[nb:], *pts[owner[nb:]].T), nz)
    # brackets sit between grid nodes, exact zeros on them
    position = np.concatenate((b_col + 0.5, z_col))
    order = np.lexsort((position, owner))
    return RootTable(owner=owner.astype(np.int32), root=root,
                     residual=residual, deriv=deriv, iterations=iterations,
                     converged=converged, points=pts).take(order)


def solve_on_sheet(rel: ImplicitRelation, points, seed,
                   max_iter: int = 60) -> np.ndarray:
    """Newton from a seed root, staying on the seed's branch.

    Used by the finite-difference oracle so stencil evaluations do not hop
    to a different branch.  seed is one root or one per row of the cloud;
    returns one root per row, nan where Phi or dPhi/dp was not finite,
    dPhi/dp was 0 or Newton did not converge.
    """
    pts = as_cloud(points)
    n = len(pts)
    cols = pts.T
    tol = TOL_ABS + TOL_REL * np.abs(cols[0])
    p = lanes(seed, n).copy()
    live = np.ones(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            f = lanes(rel.phi(p, *cols), n)
            finite = np.isfinite(f)
            failed |= live & ~finite
            live &= finite & (np.abs(f) > tol)
            if not live.any():
                break
            d = lanes(rel.dphi(p, *cols), n)
            flat = live & (~np.isfinite(d) | (d == 0.0))
            failed |= flat
            live &= ~flat
            # damp huge steps: the seed is assumed close; converged lanes
            # keep their root
            limit = 0.5 * (1.0 + np.abs(p))
            step = np.maximum(np.minimum(f / d, limit), -limit)
            p = np.where(live, p - step, p)
    return np.where(failed | live, np.nan, p)
