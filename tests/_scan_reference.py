"""The root scan that evaluates Phi at every grid node: the reference the
cell scan of `heavenly.implicitsolve._scan` must reproduce bit for bit."""

import numpy as np

from heavenly.implicitsolve import SCAN_BUDGET


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
