"""Closed-form field derivatives and residuals over point clouds.

All first derivatives of (p, q, r) come from one implicit-function-theorem
step, _implicit, fed the root's D (from enumerate_roots), the gradient of
Phi by the seed's relation, and q, r and their partials by each family's
formulas; fdoracle.py certifies them by complex-step differentiation.
Every equation residual and balance term comes from one table, BRACKETS,
of the Poisson brackets of the general heavenly equation.

Partials are evaluated with numpy's floating-point warnings off: an infinite
or nan partial is a value the callers test for, not an error.

Residuals are reported normalized: |value| / (largest constituent term),
which is the scale-free pass/fail quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .implicitsolve import as_cloud, cloud_lanes, lanes

NORM_GUARD = 1e-300


@dataclass(frozen=True)
class FieldSample:
    """Values and first partials of (p, q, r) over a cloud.

    Every field is an array with one lane per point and point is the
    (N, 4) cloud.  A seed's sample also keeps the partials its fields came
    from: q_p and r_p of the family's q and r, the relation's Phi_t (d12Q,
    d12R and d2T on a general seed, beta'F', delta'F' and alpha'F' on a
    shock seed) and Phi_p, the fold test's D; a superposed sample has none.
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
    q_p: np.ndarray = None
    r_p: np.ndarray = None
    Phi_t: np.ndarray = None
    Phi_p: np.ndarray = None

    PARTIAL_NAMES = ("p_x", "p_y", "p_z", "p_t",
                     "q_x", "q_y", "q_t",
                     "r_x", "r_y", "r_z", "r_t")


FIELD_NAMES = ("p", "q", "r") + FieldSample.PARTIAL_NAMES


@dataclass(frozen=True)
class ResidualReport:
    value: np.ndarray
    scale: np.ndarray

    @property
    @np.errstate(all="ignore")
    def normalized(self) -> np.ndarray:
        return abs(self.value) / (self.scale + NORM_GUARD)


# ---------------------------------------------------------------------------
# Derivative formulas
# ---------------------------------------------------------------------------

def _implicit(point, p, D, phi, q, r) -> FieldSample:
    """The implicit function theorem on Phi(p; x, y, z, t) = 0, Phi_x = 1.

    D is Phi_p and phi is (Phi_y, Phi_z, Phi_t), so p_a = -Phi_a / D.  q
    holds (q, q_p, d_y q) and r holds (r, r_p, d_z r), the explicit
    partials of q(p, y) and r(p, z), so q_a = d_a q + q_p p_a and likewise
    for r.  One lane per row of the cloud.
    """
    n = len(p)
    D = lanes(D, n)
    (q, q_p, q_dy), (r, r_p, r_dz) = q, r
    p_x = -1.0 / D
    p_y, p_z, p_t = (-phi_a / D for phi_a in phi)
    values = dict(p=p, q=q, r=r, p_x=p_x, p_y=p_y, p_z=p_z, p_t=p_t,
                  q_x=q_p * p_x, q_y=q_dy + q_p * p_y, q_t=q_p * p_t,
                  r_x=r_p * p_x, r_y=r_p * p_y, r_z=r_dz + r_p * p_z,
                  r_t=r_p * p_t, q_p=q_p, r_p=r_p, Phi_t=phi[2], Phi_p=D)
    return FieldSample(point=as_cloud(point),
                       **{name: lanes(v, n) for name, v in values.items()})


@np.errstate(all="ignore")
def shock_derivatives(rel, sdef, shared, point, proot, D) -> FieldSample:
    """The implicit step at roots proot, of dPhi/dp D, on the seed's relation
    rel, with q = m(y) + beta'(y) F(p) and r = n(z) + delta'(z) F(p)."""
    (x, y, z, t), p = cloud_lanes(point, proot)
    F0 = sdef.F.compiled((0,))(p)
    F1 = sdef.F.compiled((1,))(p)
    be1 = shared.beta.compiled((1,))(y)
    de1 = shared.delta.compiled((1,))(z)
    q = (sdef.m.compiled((0,))(y) + be1 * F0, be1 * F1,
         sdef.m.compiled((1,))(y) + shared.beta.compiled((2,))(y) * F0)
    r = (sdef.n.compiled((0,))(z) + de1 * F0, de1 * F1,
         sdef.n.compiled((1,))(z) + shared.delta.compiled((2,))(z) * F0)
    return _implicit(point, p, D, [g(p, x, y, z, t) for g in rel.grad], q, r)


@np.errstate(all="ignore")
def general_derivatives(rel, gdef, point, proot, D) -> FieldSample:
    """The implicit step at roots proot, of dPhi/dp D, on the seed's relation
    rel, with q = d2Q(p, y) and r = d2R(p, z)."""
    (x, y, z, t), p = cloud_lanes(point, proot)
    q = (gdef.Q.compiled((0, 1))(p, y), gdef.Q.compiled((1, 1))(p, y),
         gdef.Q.compiled((0, 2))(p, y))
    r = (gdef.R.compiled((0, 1))(p, z), gdef.R.compiled((1, 1))(p, z),
         gdef.R.compiled((0, 2))(p, z))
    return _implicit(point, p, D, [g(p, x, y, z, t) for g in rel.grad], q, r)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def _scale(*terms):
    """Largest magnitude among the terms, lane by lane."""
    out = abs(terms[0])
    for v in terms[1:]:
        out = np.maximum(out, abs(v))
    return out


# The equation a {r, p}_{yt} + b {r, q}_{xt} = 0 as (coefficient, f, g,
# u, v) for each term c {f, g}_{uv} = c (f_u g_v - f_v g_u).
BRACKETS = (("a", "r", "p", "y", "t"), ("b", "r", "q", "x", "t"))


@np.errstate(all="ignore")
def _bracket_residual(shared, *pairs) -> ResidualReport:
    """The brackets of BRACKETS, each with f from the first and g from the
    second sample of every pair, summed in that order."""
    terms, value = [], None
    for coef, f, g, u, v in BRACKETS:
        c = getattr(shared, coef)
        for sf, sg in pairs:
            left = c * getattr(sf, f"{f}_{u}") * getattr(sg, f"{g}_{v}")
            right = c * getattr(sf, f"{f}_{v}") * getattr(sg, f"{g}_{u}")
            terms += (left, right)
            # no 0.0 start: 0.0 + -0.0 would change the sign of a zero
            value = left - right if value is None else value + (left - right)
    return ResidualReport(value=value, scale=_scale(*terms))


def ghe_residual(s: FieldSample, shared) -> ResidualReport:
    """Field-form equation residual a{r,p}_{yt} + b{r,q}_{xt}."""
    return _bracket_residual(shared, (s, s))


def compat_residuals(s: FieldSample):
    """Cross-derivative compatibility: p_y - q_x and p_z - r_x."""
    return (ResidualReport(value=s.p_y - s.q_x, scale=_scale(s.p_y, s.q_x)),
            ResidualReport(value=s.p_z - s.r_x, scale=_scale(s.p_z, s.r_x)))


def pairwise_balance(si: FieldSample, sj: FieldSample, shared) -> ResidualReport:
    """Two-solution balance condition (the superposition cross term):
    a{r_j,p_i}_{yt} + a{r_i,p_j}_{yt} + b{r_j,q_i}_{xt} + b{r_i,q_j}_{xt}."""
    return _bracket_residual(shared, (sj, si), (si, sj))


def pairwise_balances(samples, shared) -> dict:
    """pairwise_balance of every pair i < j of the samples, keyed (i, j)."""
    return {(i, j): pairwise_balance(samples[i], samples[j], shared)
            for i in range(len(samples)) for j in range(i + 1, len(samples))}


@np.errstate(all="ignore")
def n_term_balance(cross: dict, size, coeffs=None) -> ResidualReport:
    """Sum of the cross terms that pairwise_balances gives, over `size`
    lanes, each weighted by c_i c_j when coeffs are given: the part of the
    superposed residual that the seeds' own residuals leave.  Scaled by
    the largest |c_i c_j| times a term's scale; for two seeds without
    coeffs this is pairwise_balance."""
    value = scale = np.zeros(size)
    for (i, j), rep in cross.items():
        w = 1.0 if coeffs is None else coeffs[i] * coeffs[j]
        value = value + w * rep.value
        scale = np.maximum(scale, abs(w) * rep.scale)
    return ResidualReport(value=value, scale=scale)


@np.errstate(all="ignore")
def reduced_balance(si: FieldSample, sj: FieldSample,
                    shared) -> ResidualReport:
    """Balance condition reduced to the seeds' relation partials.

    a [r_p,j - r_p,i] [Phi_t,i q_p,j - Phi_t,j q_p,i]
      - b [Phi_t,j - Phi_t,i] [q_p,i r_p,j - q_p,j r_p,i]
    with each partial read from its seed's sample: d12Q, d12R and d2T at
    (p_i, y/z/t) on a general seed, beta'F', delta'F' and alpha'F' on a
    shock seed, where both second factors cancel to rounding.
    """
    a, b = shared.a, shared.b
    A = sj.r_p - si.r_p
    lhs1 = a * A * si.Phi_t * sj.q_p
    lhs2 = a * A * sj.Phi_t * si.q_p
    C = sj.Phi_t - si.Phi_t
    rhs1 = b * C * si.q_p * sj.r_p
    rhs2 = b * C * sj.q_p * si.r_p
    return ResidualReport(value=(lhs1 - lhs2) - (rhs1 - rhs2),
                          scale=_scale(lhs1, lhs2, rhs1, rhs2))
