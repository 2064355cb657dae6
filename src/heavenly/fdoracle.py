"""Independent complex-step oracle for the closed-form derivatives.

The partial of a real-analytic f along coordinate a is Im f(X + i h e_a) / h
to O(h^2): no difference is taken, so there is no cancellation and no step
to tune (Lyness & Moler, SIAM J. Numer. Anal. 4, 1967; Squire & Trapp,
SIAM Review 40(1), 1998).  certify_sample checks a seed's whole cloud
sample, which superpose.solve_point chose: it certifies every lane given.
"""

from __future__ import annotations

import numpy as np

from .calculus import FieldSample
from .implicitsolve import as_cloud, lanes, solve_on_sheet
from .record import Record

AXES = ("x", "y", "z", "t")
STEP = 1e-20    # imaginary step; its square is far below rounding
# (partial name, index into (p, q, r), axis index)
_PARTIALS = tuple((name, "pqr".index(name[0]), AXES.index(name[2:]))
                  for name in FieldSample.PARTIAL_NAMES)


class CertReport(Record):
    """Certification of every lane of one seed's sample.

    certified and holes count the lanes; deviations (partial name ->
    relative deviation) are maxima over the certified lanes, 0.0 when none
    certified.
    """

    certified: int
    holes: int
    deviations: dict

    @property
    def status(self) -> str:
        """"ok" if any lane certified, else "hole"."""
        return "ok" if self.certified else "hole"


def partials(family, index: int, points, roots, D) -> np.ndarray:
    """The (4 axes, 3 fields, N lanes) partials of seed index's (p, q, r)
    at its roots, of dPhi/dp D: per axis, the points move STEP along its
    imaginary direction, one solve_on_sheet of every lane gives p there and
    the family's values q and r; nan where a complex value is not finite."""
    rel = family.relation(index)
    points = as_cloud(points)
    out = np.empty((len(AXES), 3, len(points)))
    with np.errstate(all="ignore"):
        for axis in range(len(AXES)):
            moved = points.astype(complex)
            moved[:, axis] += 1j * STEP
            p = solve_on_sheet(rel, moved, roots, D)
            vals = np.array(family.values(index, moved, p))
            out[axis] = np.where(np.isfinite(vals), vals.imag, np.nan) / STEP
    return out


def certify_sample(sample: FieldSample, family, index: int) -> CertReport:
    """Compare every closed-form partial of a cloud sample of seed index
    against the oracle: the deviation is |oracle - analytic| / (1 +
    |analytic|), and a lane with a non-finite oracle partial is a hole.
    A sample without Phi_p, such as a superposed one, raises ValueError."""
    if sample.Phi_p is None:
        raise ValueError("certify_sample needs a seed sample: this one has "
                         "no Phi_p (dPhi/dp at its roots)")
    n = len(as_cloud(sample.point))
    oracle = partials(family, index, sample.point, sample.p, sample.Phi_p)
    good = np.isfinite(oracle).all(axis=(0, 1))
    worst = {}
    for name, comp, axis in _PARTIALS:
        a = lanes(getattr(sample, name), n)[good]
        worst[name] = float((np.abs(oracle[axis, comp, good] - a)
                             / (1.0 + np.abs(a))).max(initial=0.0))
    certified = int(good.sum())
    return CertReport(certified=certified, holes=n - certified,
                      deviations=worst)
