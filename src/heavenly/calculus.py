"""Closed-form field derivatives and residuals over point clouds.

All first derivatives of (p, q, r) come from the implicit function theorem
applied to the family's hodograph relation; every formula here is certified
against the finite-difference oracle in fdoracle.py.

Partials are evaluated with numpy's floating-point warnings off: an infinite
or nan partial is a value the callers test for, not an error.

Residuals are reported normalized: |value| / (largest constituent term),
which is the scale-free pass/fail quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .implicitsolve import EPS_DEGENERATE, as_cloud, cloud_lanes, lanes

NORM_GUARD = 1e-300


class DegenerateSampleError(RuntimeError):
    """Relation derivative D below threshold: fold, no valid derivatives."""


@dataclass(frozen=True)
class FieldSample:
    """Values and first partials of (p, q, r) over a cloud.

    Every field is an array with one lane per point, point is the (N, 4)
    cloud and report the RootTable of the chosen roots.
    """

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    p_x: np.ndarray
    p_y: np.ndarray
    p_z: np.ndarray
    p_t: np.ndarray
    q_x: np.ndarray
    q_y: np.ndarray
    q_t: np.ndarray
    r_x: np.ndarray
    r_y: np.ndarray
    r_z: np.ndarray
    r_t: np.ndarray
    point: np.ndarray = None
    report: object = None

    PARTIAL_NAMES = ("p_x", "p_y", "p_z", "p_t",
                     "q_x", "q_y", "q_t",
                     "r_x", "r_y", "r_z", "r_t")

    def lane(self, k: int) -> "FieldSample":
        """The one-row cloud sample at lane k."""
        rows = slice(k, k + 1)
        report = None if self.report is None else self.report.take(rows)
        return FieldSample(point=self.point[rows], report=report,
                           **{name: getattr(self, name)[rows]
                              for name in FIELD_NAMES})


FIELD_NAMES = ("p", "q", "r") + FieldSample.PARTIAL_NAMES


@dataclass(frozen=True)
class ResidualReport:
    value: np.ndarray
    scale: np.ndarray

    @property
    def normalized(self) -> np.ndarray:
        return abs(self.value) / (self.scale + NORM_GUARD)


# ---------------------------------------------------------------------------
# Derivative formulas
# ---------------------------------------------------------------------------

def _sample(point, proot, values, D, report) -> FieldSample:
    """FieldSample from lane arrays, one lane per row of the cloud."""
    if np.any(np.abs(D) < EPS_DEGENERATE):
        raise DegenerateSampleError(f"degenerate relation derivative "
                                    f"|D|={np.min(np.abs(D)):.3e}")
    n = len(proot)
    return FieldSample(point=as_cloud(point), report=report,
                       **{name: lanes(v, n) for name, v in values.items()})


@np.errstate(all="ignore")
def shock_derivatives(sdef, shared, point, proot,
                      report=None) -> FieldSample:
    """Implicit differentiation of x + S F'(p) + G(p) = 0, S = a+b+d.

    q = m(y) + beta'(y) F(p), r = n(z) + delta'(z) F(p).
    """
    (x, y, z, t), p = cloud_lanes(point, proot)
    F0 = sdef.F.compiled((0,))(p)
    F1 = sdef.F.compiled((1,))(p)
    F2 = sdef.F.compiled((2,))(p)
    G1 = sdef.G.compiled((1,))(p)
    al1 = shared.alpha.compiled((1,))(t)
    be1 = shared.beta.compiled((1,))(y)
    be2 = shared.beta.compiled((2,))(y)
    de1 = shared.delta.compiled((1,))(z)
    de2 = shared.delta.compiled((2,))(z)
    m0 = sdef.m.compiled((0,))(y)
    m1 = sdef.m.compiled((1,))(y)
    n0 = sdef.n.compiled((0,))(z)
    n1 = sdef.n.compiled((1,))(z)
    S = (shared.alpha.compiled((0,))(t) + shared.beta.compiled((0,))(y)
         + shared.delta.compiled((0,))(z))

    D = lanes(S * F2 + G1, len(p))
    p_x = -1.0 / D
    p_y = -be1 * F1 / D
    p_z = -de1 * F1 / D
    p_t = -al1 * F1 / D
    return _sample(point, p, dict(
        p=p,
        q=m0 + be1 * F0,
        r=n0 + de1 * F0,
        p_x=p_x, p_y=p_y, p_z=p_z, p_t=p_t,
        q_x=be1 * F1 * p_x,
        q_y=m1 + be2 * F0 + be1 * F1 * p_y,
        q_t=be1 * F1 * p_t,
        r_x=de1 * F1 * p_x,
        r_y=de1 * F1 * p_y,
        r_z=n1 + de2 * F0 + de1 * F1 * p_z,
        r_t=de1 * F1 * p_t), D, report)


@np.errstate(all="ignore")
def general_derivatives(gdef, point, proot, report=None) -> FieldSample:
    """Implicit differentiation of x + d1Q + d1R + T(p,t) = 0.

    D = d11Q + d11R + d1T (the d1T term is required: T enters the relation
    directly, confirmed against the finite-difference oracle).
    """
    (x, y, z, t), p = cloud_lanes(point, proot)
    Q12 = gdef.Q.compiled((1, 1))(p, y)
    Q2 = gdef.Q.compiled((0, 1))(p, y)
    Q22 = gdef.Q.compiled((0, 2))(p, y)
    Q11 = gdef.Q.compiled((2, 0))(p, y)
    R12 = gdef.R.compiled((1, 1))(p, z)
    R2 = gdef.R.compiled((0, 1))(p, z)
    R22 = gdef.R.compiled((0, 2))(p, z)
    R11 = gdef.R.compiled((2, 0))(p, z)
    T1 = gdef.T.compiled((1, 0))(p, t)
    T2 = gdef.T.compiled((0, 1))(p, t)

    D = lanes(Q11 + R11 + T1, len(p))
    p_x = -1.0 / D
    p_y = -Q12 / D
    p_z = -R12 / D
    p_t = -T2 / D
    return _sample(point, p, dict(
        p=p,
        q=Q2,
        r=R2,
        p_x=p_x, p_y=p_y, p_z=p_z, p_t=p_t,
        q_x=Q12 * p_x,
        q_y=Q22 + Q12 * p_y,
        q_t=Q12 * p_t,
        r_x=R12 * p_x,
        r_y=R12 * p_y,
        r_z=R22 + R12 * p_z,
        r_t=R12 * p_t), D, report)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def _scale(*terms):
    """Largest magnitude among the terms, lane by lane."""
    out = abs(terms[0])
    for v in terms[1:]:
        out = np.maximum(out, abs(v))
    return out


@np.errstate(all="ignore")
def ghe_residual(s: FieldSample, shared) -> ResidualReport:
    """Field-form equation residual a{r,p}_{yt} + b{r,q}_{xt}."""
    a, b = shared.a, shared.b
    t1 = a * s.r_y * s.p_t
    t2 = a * s.r_t * s.p_y
    t3 = b * s.r_x * s.q_t
    t4 = b * s.r_t * s.q_x
    value = (t1 - t2) + (t3 - t4)
    return ResidualReport(value=value, scale=_scale(t1, t2, t3, t4))


def compat_residuals(s: FieldSample):
    """Cross-derivative compatibility: p_y - q_x and p_z - r_x."""
    return (ResidualReport(value=s.p_y - s.q_x, scale=_scale(s.p_y, s.q_x)),
            ResidualReport(value=s.p_z - s.r_x, scale=_scale(s.p_z, s.r_x)))


def _cross_terms(si: FieldSample, sj: FieldSample, a: float, b: float):
    """Terms of a{r_j,p_i}_{yt}+a{r_i,p_j}_{yt}+b{r_j,q_i}_{xt}+b{r_i,q_j}_{xt}."""
    return (a * sj.r_y * si.p_t, a * sj.r_t * si.p_y,
            a * si.r_y * sj.p_t, a * si.r_t * sj.p_y,
            b * sj.r_x * si.q_t, b * sj.r_t * si.q_x,
            b * si.r_x * sj.q_t, b * si.r_t * sj.q_x)


def pairwise_balance(si: FieldSample, sj: FieldSample, shared) -> ResidualReport:
    """Two-solution balance condition (the superposition cross term)."""
    t = _cross_terms(si, sj, shared.a, shared.b)
    value = (t[0] - t[1]) + (t[2] - t[3]) + (t[4] - t[5]) + (t[6] - t[7])
    return ResidualReport(value=value, scale=_scale(*t))


def n_term_balance(samples, shared) -> ResidualReport:
    """Sum of all i != j cross terms; for n = 2 this is pairwise_balance."""
    value = scale = np.zeros(np.shape(samples[0].p))
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            rep = pairwise_balance(samples[i], samples[j], shared)
            value = value + rep.value
            scale = np.maximum(scale, rep.scale)
    return ResidualReport(value=value, scale=scale)


@np.errstate(all="ignore")
def reduced_balance(gdef1, gdef2, shared, point, p1,
                    p2) -> ResidualReport:
    """Balance condition reduced to the general-family arbitrary functions.

    a [d12R2 - d12R1] [(d2T1)(d12Q2) - (d2T2)(d12Q1)]
      - b [d2T2 - d2T1] [(d12Q1)(d12R2) - (d12Q2)(d12R1)]
    with seed-i functions evaluated at (p_i, y/z/t), one root per row of
    the cloud in p1 and p2.
    """
    (x, y, z, t), p1 = cloud_lanes(point, p1)
    p2 = np.asarray(p2, dtype=float).reshape(-1)
    a, b = shared.a, shared.b
    Q12_1 = gdef1.Q.compiled((1, 1))(p1, y)
    Q12_2 = gdef2.Q.compiled((1, 1))(p2, y)
    R12_1 = gdef1.R.compiled((1, 1))(p1, z)
    R12_2 = gdef2.R.compiled((1, 1))(p2, z)
    T2_1 = gdef1.T.compiled((0, 1))(p1, t)
    T2_2 = gdef2.T.compiled((0, 1))(p2, t)

    A = R12_2 - R12_1
    lhs1 = a * A * T2_1 * Q12_2
    lhs2 = a * A * T2_2 * Q12_1
    C = T2_2 - T2_1
    rhs1 = b * C * Q12_1 * R12_2
    rhs2 = b * C * Q12_2 * R12_1
    return ResidualReport(
        value=lanes((lhs1 - lhs2) - (rhs1 - rhs2), len(p1)),
        scale=lanes(_scale(lhs1, lhs2, rhs1, rhs2), len(p1)))
