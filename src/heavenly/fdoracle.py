"""Independent finite-difference oracle for the closed-form derivatives.

Uses the fourth-order Richardson-extrapolated central stencil
(8(f(+h) - f(-h)) - (f(+2h) - f(-2h))) / (12 h).  Branch evaluations are
seeded from the sample's own root so the stencil never hops sheets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import FieldSample
from .implicitsolve import FOLD_TOL, ImplicitRelation, SolveError, \
    solve_on_sheet

AXES = ("x", "y", "z", "t")
DEFAULT_H_SCALE = 1e-3
OFFSETS = (1.0, -1.0, 2.0, -2.0)    # stencil offsets in units of h
# Stencil rows axis by axis, offsets in units of that axis' h.
_STENCIL = np.kron(np.eye(len(AXES)), np.array(OFFSETS)[:, None])
# (partial name, index into (p, q, r), axis index)
_PARTIALS = tuple((name, "pqr".index(name[0]), AXES.index(name[2:]))
                  for name in FieldSample.PARTIAL_NAMES)


class StencilHoleError(RuntimeError):
    """A stencil point could not be evaluated (branch hole)."""


def _richardson(f1, fm1, f2, fm2, h):
    return (8.0 * (f1 - fm1) - (f2 - fm2)) / (12.0 * h)


def fd_partial(fieldfn, point, axis: int, h: float) -> float:
    """Richardson-extrapolated central difference along one axis."""
    if h <= 0:
        raise ValueError("h must be positive")
    point = tuple(point)

    def shifted(delta):
        pt = list(point)
        pt[axis] += delta
        try:
            return fieldfn(tuple(pt))
        except (SolveError, ValueError, ZeroDivisionError,
                OverflowError) as exc:
            raise StencilHoleError(
                f"stencil evaluation failed at offset {delta:+g} on axis "
                f"{AXES[axis]}") from exc

    return _richardson(*(shifted(k * h) for k in OFFSETS), h)


@dataclass(frozen=True)
class CertReport:
    status: str                 # "ok" | "near-fold" | "hole"
    max_deviation: float = 0.0
    deviations: dict = None     # partial name -> relative deviation

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def certify_sample(sample: FieldSample, rel: ImplicitRelation, family,
                   index: int, h_scale: float = DEFAULT_H_SCALE,
                   near_fold: float = FOLD_TOL) -> CertReport:
    """Compare every closed-form partial in the sample against the oracle.

    The deviation is |fd - analytic| / (1 + |analytic|).  Samples with
    |D| below near_fold are skipped: the implicit-function-theorem
    formulas blow up at shocks by construction.  The 16 stencil points
    (4 axes x offsets +-h, +-2h) are solved on the sample's sheet as the
    lanes of one Newton; each solve gives p, q and r.
    """
    if sample.report is not None and abs(sample.report.deriv) < near_fold:
        return CertReport(status="near-fold")

    point = np.asarray(sample.point, dtype=float)
    h = h_scale * (1.0 + np.abs(point))
    stencil = point + _STENCIL * h
    p = solve_on_sheet(rel, stencil, sample.p)
    with np.errstate(all="ignore"):
        vals = np.array(family.values(index, stencil, p))
    if not np.isfinite(vals).all():
        return CertReport(status="hole")
    vals = vals.reshape(3, len(AXES), len(OFFSETS))
    fd = _richardson(*np.moveaxis(vals, -1, 0), h).tolist()

    devs = {}
    for name, field, axis in _PARTIALS:
        analytic = getattr(sample, name)
        devs[name] = abs(fd[field][axis] - analytic) / (1.0 + abs(analytic))
    return CertReport(status="ok", max_deviation=max(devs.values()),
                      deviations=devs)
