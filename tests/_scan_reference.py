"""References that `heavenly.implicitsolve` must reproduce bit for bit: the
root scan that evaluates Phi at every grid node (for the cell scan of
`_scan`), and Newton over full-length lane arrays (for `_newton`, which
iterates on the live lanes only)."""

import numpy as np

from heavenly.implicitsolve import (
    MAX_NEWTON_ITER,
    SCAN_BUDGET,
    TOL_ABS,
    TOL_REL,
    lanes,
)


def full_scan(rel, pts, policy):
    """Sign-change brackets and exact grid zeros of Phi, block by block."""
    grid = np.linspace(policy.p_lo, policy.p_hi, policy.resolution)
    row = grid[None, :]
    rows = max(1, SCAN_BUDGET // policy.resolution)
    found = {"b_owner": [], "b_col": [], "b_flo": [], "z_owner": [],
             "z_col": []}
    width = len(grid)
    for start in range(0, len(pts), rows):
        block = pts[start:start + rows]
        vals = np.broadcast_to(np.asarray(
            rel.phi_vec(row, *(block[:, k:k + 1] for k in range(4))),
            dtype=float), (len(block), width))
        finite = np.isfinite(vals)
        change = vals[:, :-1] * vals[:, 1:] < 0.0
        if not finite.all():
            change &= finite[:, :-1] & finite[:, 1:]
        r, c = np.divmod(np.flatnonzero(change), width - 1)
        found["b_owner"].append(r + start)
        found["b_col"].append(c)
        found["b_flo"].append(vals[r, c])
        zero = vals == 0.0
        if zero.any():
            r, c = np.divmod(np.flatnonzero(zero), width)
            found["z_owner"].append(r + start)
            found["z_col"].append(c)
    cat = {k: np.concatenate(v) if v else np.zeros(0, dtype=int)
           for k, v in found.items()}
    return grid, cat


def full_newton(rel, pts, owner, lo, hi, flo):
    """Safeguarded Newton on every bracket at once; every iteration gathers
    the live lanes from, and scatters them back to, full-length arrays."""
    n = len(owner)
    cols = pts[owner].T
    tol = TOL_ABS + TOL_REL * np.abs(cols[0])
    lo, hi, flo = lo.copy(), hi.copy(), flo.copy()
    p = 0.5 * (lo + hi)
    iterations = np.zeros(n, dtype=np.int32)
    converged = np.zeros(n, dtype=bool)
    act = np.arange(n)
    while act.size:
        iterations[act] += 1
        pa = p[act]
        ca = cols[:, act]
        f = lanes(rel.phi(pa, *ca), act.size)
        finite = np.isfinite(f)
        hit = finite & (np.abs(f) <= tol[act])
        converged[act[hit]] = True
        keep = finite & ~hit
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
        act = act[~collapsed & (iterations[act] < MAX_NEWTON_ITER)]
    return p, iterations, converged
