"""Linear combinations of seed solutions and theorem verification.

The superposition theorem: seed solutions of the field-form equation whose
pairwise cross terms balance combine linearly into new solutions.  The
verifier evaluates, over the admissible points of a cloud, each seed's
residuals, the n-term balance, the superposed field's residuals and the
quadratic-form expansion
residual(superposed) = sum_i a_i^2 residual_i + sum_{i<j} a_i a_j cross_ij.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus
from .calculus import (
    FIELD_NAMES,
    NORM_GUARD,
    FieldSample,
    compat_residuals,
    ghe_residual,
    n_term_balance,
    pairwise_balances,
)
from .implicitsolve import (
    FOLD_TOL,
    SCAN_BUDGET,
    BranchPolicy,
    as_cloud,
    enumerate_roots,
    median,
)

OK, HOLE, FOLD = 0, 1, 2
STATUS = ("ok", "hole", "fold")
# Cloud rows solved at a time, 4 096: the rows the root scan descends
# together, and the lanes of each of fdoracle's four on-sheet solves.
# Every per-point result is computed row by row, so no result depends on
# it.
CLOUD_CHUNK = SCAN_BUDGET // 16


class SuperposeError(ValueError):
    pass


def superpose(samples, coeffs) -> FieldSample:
    """Coefficient-weighted sum of field samples taken at the same points.

    The clouds must have as many rows and agree to 1e-14 in every
    coordinate; a nan coordinate agrees with nothing.
    """
    if len(samples) != len(coeffs):
        raise SuperposeError("samples and coefficients differ in length")
    ref = samples[0].point
    for s in samples[1:]:
        if s.point is ref:
            continue
        if np.shape(s.point) != np.shape(ref):
            raise SuperposeError(f"point mismatch: {len(s.point)} points vs "
                                 f"{len(ref)}")
        with np.errstate(invalid="ignore"):
            differ = ~(np.abs(np.subtract(s.point, ref)) <= 1e-14)
        if differ.any():
            row = int(np.flatnonzero(differ.any(axis=1))[0])
            raise SuperposeError(f"point mismatch at row {row}: "
                                 f"{s.point[row].tolist()} vs "
                                 f"{ref[row].tolist()}")
    acc = {name: 0.0 for name in FIELD_NAMES}
    for s, c in zip(samples, coeffs):
        for name in FIELD_NAMES:
            acc[name] = acc[name] + c * getattr(s, name)
    return FieldSample(point=ref, **acc)


def summarize(values: np.ndarray) -> dict:
    """count, max and median of a float64 array; the median partitions it
    in place."""
    if not values.size:
        return {"count": 0, "max": None, "median": None}
    return {"count": int(values.size), "max": float(values.max()),
            "median": median(values)}


@dataclass
class TheoremReport:
    n_points: int
    n_admissible: int
    n_holes: int
    n_folds: int
    checks: dict                 # name -> {count, max, median}
    pass_fraction: float         # superposed GHE residual <= threshold
    threshold: float


@dataclass(frozen=True)
class CloudSolution:
    """Solve status of every point of a cloud, and the seed samples at the
    admissible ones.

    status holds OK, HOLE or FOLD per point and failed_seed the first seed
    that failed there (-1 where admissible).  samples has one FieldSample
    per seed whose lanes are the admissible points, in cloud order.
    """

    points: np.ndarray
    status: np.ndarray
    failed_seed: np.ndarray
    admissible: np.ndarray
    samples: list


def _rows(pts, idx):
    """pts[idx] for ascending row indices, without a copy when idx is all."""
    return pts if len(idx) == len(pts) else pts[idx]


def solve_point(family, points, policy: BranchPolicy):
    """Solve every seed over a cloud; one point is a one-row cloud.

    (CloudSolution, None) when every point is admissible, else
    (CloudSolution, (kind, seed index)) of its first failed point, kind
    "hole" or "fold".
    """
    pts = as_cloud(points)
    n = len(pts)
    status = np.full(n, OK, dtype=np.int8)
    failed_seed = np.full(n, -1)
    alive = np.arange(n)
    chosen = []
    for i in range(family.size):
        table = enumerate_roots(family.relation(i), _rows(pts, alive), policy)
        pick = table.select(policy)
        hole = pick < 0
        pick = np.where(hole, 0, pick)
        if len(table):
            # a root where dPhi/dp is not finite has no implicit partials
            hole |= ~table.converged[pick] | ~np.isfinite(table.deriv[pick])
            fold = ~hole & (np.abs(table.deriv[pick]) < FOLD_TOL)
        else:
            fold = np.zeros_like(hole)
        status[alive[hole]] = HOLE
        status[alive[fold]] = FOLD
        failed_seed[alive[hole | fold]] = i
        good = ~(hole | fold)
        alive = alive[good]
        chosen = [(root[good], D[good]) for root, D in chosen]
        # the D the fold test read is the D that divides the partials
        chosen.append((table.root[pick[good]], table.deriv[pick[good]]))
    cloud_pts = _rows(pts, alive)
    samples = [family.sample(i, cloud_pts, root, D)
               for i, (root, D) in enumerate(chosen)]
    cloud = CloudSolution(points=pts, status=status, failed_seed=failed_seed,
                          admissible=alive, samples=samples)
    bad = np.flatnonzero(status != OK)
    failure = (STATUS[status[bad[0]]], int(failed_seed[bad[0]])) \
        if len(bad) else None
    return cloud, failure


def solve_chunks(family, points, policy: BranchPolicy):
    """solve_point over consecutive slices of CLOUD_CHUNK rows of a cloud.

    Yields the CloudSolution of each slice in cloud order.  A caller
    reduces a slice to what it keeps and drops it before asking for the
    next, so one slice is held at a time and only what the caller keeps
    grows with the cloud.  An empty cloud is one empty slice.
    """
    pts = as_cloud(points)
    for start in range(0, max(len(pts), 1), CLOUD_CHUNK):
        yield solve_point(family, pts[start:start + CLOUD_CHUNK], policy)[0]


@np.errstate(all="ignore")
def quadratic_identity_residual(super_rep, seed_reps, cross_reps, coeffs):
    """Normalized defect of the bilinear expansion of the superposed residual."""
    expected = 0.0
    scale = super_rep.scale
    for c, rep in zip(coeffs, seed_reps):
        expected = expected + c * c * rep.value
        scale = np.maximum(scale, c * c * rep.scale)
    for (i, j), rep in cross_reps.items():
        expected = expected + coeffs[i] * coeffs[j] * rep.value
        scale = np.maximum(scale, abs(coeffs[i] * coeffs[j]) * rep.scale)
    return abs(super_rep.value - expected) / (scale + NORM_GUARD)


def theorem_checks(samples, shared, coeffs):
    """The superposed sample of one solved slice, and each check's
    normalised residuals as a list of lane arrays: one per seed, or per
    compatibility residual of each seed or of the superposed sample."""
    seed_reps = [ghe_residual(s, shared) for s in samples]
    cross = pairwise_balances(samples, shared)
    bal = n_term_balance(cross, len(samples[0].p), coeffs)
    sup = superpose(samples, coeffs)
    sup_rep = ghe_residual(sup, shared)
    return sup, {
        "seed_ghe": [r.normalized for r in seed_reps],
        "seed_compat": [c.normalized for s in samples
                        for c in compat_residuals(s)],
        "superposed_ghe": [sup_rep.normalized],
        "superposed_compat": [c.normalized for c in compat_residuals(sup)],
        "n_term_balance": [bal.normalized],
        "quadratic_identity": [quadratic_identity_residual(
            sup_rep, seed_reps, cross, coeffs)],
    }


def balance_checks(samples, shared):
    """Each balance residual of one solved slice, normalised, as a list of
    lane arrays: one per seed pair, the n-term sum, and the reduced
    condition per pair, read from each seed's q_p, r_p and Phi_t (on shock
    seeds beta'F', delta'F' and alpha'F')."""
    cross = pairwise_balances(samples, shared)
    return {
        "pairwise": [rep.normalized for rep in cross.values()],
        "n_term": [n_term_balance(cross, len(samples[0].p)).normalized],
        "reduced": [calculus.reduced_balance(samples[i], samples[j],
                                             shared).normalized
                    for i, j in cross],
    }


def reduce_chunks(family, points, policy: BranchPolicy, checks):
    """Solve a cloud slice by slice and join what each slice keeps.

    checks(cloud) maps names to lists for one solved slice; the lists of
    each name are joined in cloud order: lane arrays into the filled
    prefix of one float64 buffer, sized after the first slice for the
    whole cloud (pages are touched only as they are written), other values
    into one list.  Each slice is released before the next is solved.
    Returns the joined dict and the number of points of each status, as
    ints in the order of STATUS.
    """
    pts = as_cloud(points)
    joined, filled, counts = {}, {}, 0
    for cloud in solve_chunks(family, pts, policy):
        for name, values in checks(cloud).items():
            if name not in joined:
                if all(isinstance(v, np.ndarray) for v in values):
                    joined[name] = np.empty(len(values) * len(pts))
                    filled[name] = 0
                else:
                    joined[name] = []
            if name not in filled:
                joined[name].extend(values)
                continue
            for v in values:
                end = filled[name] + len(v)
                joined[name][filled[name]:end] = v
                filled[name] = end
        counts = counts + np.bincount(cloud.status, minlength=len(STATUS))
        cloud = values = v = None   # released before the next slice is solved
    for name, end in filled.items():
        joined[name] = joined[name][:end]
    return joined, counts.tolist()


def verify_theorem(family, coeffs, points,
                   policy: BranchPolicy = BranchPolicy(),
                   threshold: float = 1e-9) -> TheoremReport:
    """Run the full verification over a point cloud, one slice at a time.

    Each slice keeps only its checks' normalised residuals, one float64
    buffer per check; count, max and median do not depend on the order of
    the values.
    """
    coeffs = [float(c) for c in coeffs]
    if len(coeffs) != family.size:
        raise SuperposeError("one coefficient per seed required")

    checks, counts = reduce_chunks(
        family, points, policy,
        lambda cloud: theorem_checks(cloud.samples, family.shared, coeffs)[1])
    n_pass = int(np.count_nonzero(checks["superposed_ghe"] <= threshold))
    n_admissible = counts[OK]
    return TheoremReport(
        n_points=sum(counts),
        n_admissible=n_admissible,
        n_holes=counts[HOLE],
        n_folds=counts[FOLD],
        checks={name: summarize(values) for name, values in checks.items()},
        pass_fraction=(n_pass / n_admissible) if n_admissible else 0.0,
        threshold=threshold)
