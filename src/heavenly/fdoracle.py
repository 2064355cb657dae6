"""Independent finite-difference oracle for the closed-form derivatives.

Uses the fourth-order Richardson-extrapolated central stencil
(8(f(+h) - f(-h)) - (f(+2h) - f(-2h))) / (12 h).  certify_sample checks a
seed's whole cloud sample: the stencils of a block of samples are solved by
one on-sheet Newton, each lane seeded from its sample's own root so the
stencil never hops sheets, and one CertReport sums up the cloud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import FieldSample
from .implicitsolve import FOLD_TOL, SCAN_BUDGET, ImplicitRelation, \
    as_cloud, lanes, solve_on_sheet

AXES = ("x", "y", "z", "t")
DEFAULT_H_SCALE = 1e-3
OFFSETS = (1.0, -1.0, 2.0, -2.0)    # stencil offsets in units of h
# Stencil rows axis by axis, offsets in units of that axis' h.
_STENCIL = np.kron(np.eye(len(AXES)), np.array(OFFSETS)[:, None])
# (partial name, index into (p, q, r), axis index)
_PARTIALS = tuple((name, "pqr".index(name[0]), AXES.index(name[2:]))
                  for name in FieldSample.PARTIAL_NAMES)


def _richardson(f1, fm1, f2, fm2, h):
    return (8.0 * (f1 - fm1) - (f2 - fm2)) / (12.0 * h)


@dataclass(frozen=True)
class CertReport:
    """Certification of every lane of one seed's sample.

    certified, near_fold and holes count the lanes; max_deviation and
    deviations (partial name -> relative deviation) are maxima over the
    certified lanes, 0.0 when none certified.
    """

    certified: int
    near_fold: int
    holes: int
    max_deviation: float
    deviations: dict

    @property
    def status(self) -> str:
        """"ok" if any lane certified, else "hole" if any lane is one."""
        if self.certified:
            return "ok"
        return "hole" if self.holes else "near-fold"


def certify_sample(sample: FieldSample, rel: ImplicitRelation, family,
                   index: int, h_scale: float = DEFAULT_H_SCALE,
                   near_fold: float = FOLD_TOL) -> CertReport:
    """Compare every closed-form partial of a sample against the oracle.

    sample is a cloud sample, as solve_point returns them.  The
    deviation is |fd - analytic| / (1 + |analytic|).  Lanes with |D| below
    near_fold are skipped: the implicit-function-theorem formulas blow up
    at shocks by construction.  The 16 stencil points of a lane (4 axes x
    offsets +-h, +-2h) are solved on its sheet, seeded with its root; each
    solve gives p, q and r, and a lane with a non-finite stencil value is
    a hole.  Lanes go through one on-sheet Newton per block of samples;
    they are independent and converged lanes freeze, so the blocks do not
    change the results.
    """
    points = as_cloud(sample.point)
    n = len(points)
    skip = np.zeros(n, dtype=bool) if sample.report is None else \
        np.abs(lanes(sample.report.deriv, n)) < near_fold
    todo = np.flatnonzero(~skip)
    roots = lanes(sample.p, n)
    analytic = [lanes(getattr(sample, name), n) for name, _, _ in _PARTIALS]
    # 256 samples, 4 096 stencil lanes per solve
    block = SCAN_BUDGET // len(_STENCIL) ** 2
    devs = []
    for start in range(0, len(todo), block):
        k = todo[start:start + block]
        point = points[k]
        h = h_scale * (1.0 + np.abs(point))
        stencil = (point[:, None] + _STENCIL * h[:, None]).reshape(
            -1, len(AXES))
        p = solve_on_sheet(rel, stencil, np.repeat(roots[k], len(_STENCIL)))
        with np.errstate(all="ignore"):
            vals = np.array(family.values(index, stencil, p)).reshape(
                3, len(k), len(AXES), len(OFFSETS))
            good = np.isfinite(vals).all(axis=(0, 2, 3))
            fd = _richardson(*np.moveaxis(vals[:, good], -1, 0), h[good])
        k = k[good]
        devs.append([np.abs(fd[comp, :, axis] - a[k]) / (1.0 + np.abs(a[k]))
                     for a, (_, comp, axis) in zip(analytic, _PARTIALS)])
    devs = np.concatenate([np.empty((len(_PARTIALS), 0)), *devs], axis=1)
    worst = devs.max(axis=1, initial=0.0)
    return CertReport(certified=devs.shape[1], near_fold=int(skip.sum()),
                      holes=len(todo) - devs.shape[1],
                      max_deviation=float(worst.max()),
                      deviations={name: float(v) for (name, _, _), v in
                                  zip(_PARTIALS, worst)})
