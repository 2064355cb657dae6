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

from .calculus import (
    FIELD_NAMES,
    NORM_GUARD,
    FieldSample,
    compat_residuals,
    ghe_residual,
    n_term_balance,
    pairwise_balance,
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
# Cloud rows solved at a time: 16 scan blocks of 256 rows, and the 4 096
# lanes of one fdoracle solve.  Every per-point result is computed row by
# row, so no result depends on it.
CLOUD_CHUNK = SCAN_BUDGET // 16


class SuperposeError(ValueError):
    pass


def superpose(samples, coeffs) -> FieldSample:
    """Coefficient-weighted sum of field samples taken at the same points."""
    if len(samples) != len(coeffs):
        raise SuperposeError("samples and coefficients differ in length")
    ref = samples[0].point
    for s in samples[1:]:
        if s.point is not ref and np.any(
                np.abs(np.subtract(s.point, ref)) > 1e-14):
            raise SuperposeError(f"point mismatch: {s.point} vs {ref}")
    acc = {name: 0.0 for name in FIELD_NAMES}
    for s, c in zip(samples, coeffs):
        for name in FIELD_NAMES:
            acc[name] = acc[name] + c * getattr(s, name)
    return FieldSample(point=ref, **acc)


def summarize(values) -> dict:
    """count, max and median over a list of scalars or lane arrays.

    The values are concatenated once; the median partitions that copy.
    """
    v = np.concatenate([np.ravel(a) for a in values]) if values else ()
    if not len(v):
        return {"count": 0, "max": None, "median": None}
    return {"count": int(v.size), "max": float(v.max()),
            "median": median(v)}


@dataclass
class TheoremReport:
    n_points: int
    n_admissible: int
    n_holes: int
    n_folds: int
    checks: dict                 # name -> {count, max, median}
    pass_fraction: float         # superposed GHE residual <= threshold
    threshold: float

    def to_dict(self) -> dict:
        return {
            "n_points": self.n_points,
            "n_admissible": self.n_admissible,
            "n_holes": self.n_holes,
            "n_folds": self.n_folds,
            "checks": self.checks,
            "pass_fraction": self.pass_fraction,
            "threshold": self.threshold,
        }


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

    def count(self, status: int) -> int:
        return int(np.count_nonzero(self.status == status))


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
        chosen = [t.take(good) for t in chosen]
        chosen.append(table.take(pick[good]))
    cloud_pts = _rows(pts, alive)
    samples = [family.sample(i, cloud_pts, table.root, report=table)
               for i, table in enumerate(chosen)]
    cloud = CloudSolution(points=pts, status=status, failed_seed=failed_seed,
                          admissible=alive, samples=samples)
    bad = np.flatnonzero(status != OK)
    failure = (STATUS[status[bad[0]]], int(failed_seed[bad[0]])) \
        if len(bad) else None
    return cloud, failure


def solve_chunks(family, points, policy: BranchPolicy):
    """solve_point over consecutive slices of CLOUD_CHUNK rows of a cloud.

    Yields solve_point's (CloudSolution, failure) for each slice in cloud
    order.  A caller reduces a slice to what it keeps before the next one
    is solved, so memory is set by the slice and not by the cloud.  An
    empty cloud is one empty slice.
    """
    pts = as_cloud(points)
    for start in range(0, max(len(pts), 1), CLOUD_CHUNK):
        yield solve_point(family, pts[start:start + CLOUD_CHUNK], policy)


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


def _theorem_checks(samples, shared, coeffs) -> dict:
    """Each check's normalised residuals on the admissible points of one
    solved slice, one array per check."""
    seed_reps = [ghe_residual(s, shared) for s in samples]
    bal = n_term_balance(samples, shared)
    sup = superpose(samples, coeffs)
    sup_rep = ghe_residual(sup, shared)
    cross = {(i, j): pairwise_balance(samples[i], samples[j], shared)
             for i in range(len(samples))
             for j in range(i + 1, len(samples))}
    checks = {
        "seed_ghe": [r.normalized for r in seed_reps],
        "seed_compat": [c.normalized for s in samples
                        for c in compat_residuals(s)],
        "superposed_ghe": [sup_rep.normalized],
        "superposed_compat": [c.normalized for c in compat_residuals(sup)],
        "n_term_balance": [bal.normalized],
        "quadratic_identity": [quadratic_identity_residual(
            sup_rep, seed_reps, cross, coeffs)],
    }
    return {name: np.concatenate([np.ravel(a) for a in values])
            for name, values in checks.items()}


def verify_theorem(family, coeffs, points,
                   policy: BranchPolicy = BranchPolicy(),
                   threshold: float = 1e-9) -> TheoremReport:
    """Run the full verification over a point cloud, one slice at a time.

    Each slice keeps only its checks' normalised residuals and its counts;
    count, max and median do not depend on the order of the values.
    """
    coeffs = [float(c) for c in coeffs]
    if len(coeffs) != family.size:
        raise SuperposeError("one coefficient per seed required")

    checks = {}
    n_points = n_admissible = n_holes = n_folds = n_pass = 0
    for cloud, _failure in solve_chunks(family, points, policy):
        part = _theorem_checks(cloud.samples, family.shared, coeffs)
        for name, values in part.items():
            checks.setdefault(name, []).append(values)
        n_pass += int(np.count_nonzero(part["superposed_ghe"] <= threshold))
        n_points += len(cloud.points)
        n_admissible += len(cloud.admissible)
        n_holes += cloud.count(HOLE)
        n_folds += cloud.count(FOLD)
    for name in checks:
        checks[name] = summarize(checks[name])
    return TheoremReport(
        n_points=n_points,
        n_admissible=n_admissible,
        n_holes=n_holes,
        n_folds=n_folds,
        checks=checks,
        pass_fraction=(n_pass / n_admissible) if n_admissible else 0.0,
        threshold=threshold)
