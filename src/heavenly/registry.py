"""Solution-family definitions: shared profiles, seed definitions, builders.

Variable conventions are fixed: the field variable is "p", the spacetime
coordinates are (x, y, z, t).  Univariate profiles are alpha(t), beta(y),
delta(z), m(y), n(z), F(p), G(p); bivariate general-family functions are
Q(p, y), R(p, z), T(p, t) with first variable p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprdsl
from .exprdsl import Expr, ExprError, SmoothFn
from .implicitsolve import cloud_lanes, lanes


class FamilyError(ValueError):
    """Raised on invalid family definitions (arity, variable convention)."""


def _check_vars(fn: SmoothFn, expected, what: str) -> SmoothFn:
    expected = tuple(expected)
    if fn.variables != expected:
        raise FamilyError(
            f"variable convention: {what} must be declared over "
            f"{expected}, got {fn.variables}")
    return fn


@dataclass(frozen=True)
class SharedProfile:
    """Shared profile functions and the two free equation constants.

    The third constant is always c = -a - b, so a+b+c = 0 holds by
    construction; it is never stored.
    """

    alpha: SmoothFn  # alpha(t)
    beta: SmoothFn   # beta(y)
    delta: SmoothFn  # delta(z)
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        _check_vars(self.alpha, ("t",), "alpha")
        _check_vars(self.beta, ("y",), "beta")
        _check_vars(self.delta, ("z",), "delta")
        if self.a == 0.0 and self.b == 0.0:
            raise FamilyError("(a, b) must not both be zero")

    @property
    def c(self) -> float:
        return -self.a - self.b


@dataclass(frozen=True)
class ShockSolutionDef:
    """One seed of the superposable shock family: F(p), G(p), m(y), n(z)."""

    F: SmoothFn
    G: SmoothFn
    m: SmoothFn
    n: SmoothFn

    def __post_init__(self):
        _check_vars(self.F, ("p",), "F")
        _check_vars(self.G, ("p",), "G")
        _check_vars(self.m, ("y",), "m")
        _check_vars(self.n, ("z",), "n")


@dataclass(frozen=True)
class GeneralSolutionDef:
    """One seed of the general hodograph family: Q(p,y), R(p,z), T(p,t)."""

    Q: SmoothFn
    R: SmoothFn
    T: SmoothFn

    def __post_init__(self):
        _check_vars(self.Q, ("p", "y"), "Q")
        _check_vars(self.R, ("p", "z"), "R")
        _check_vars(self.T, ("p", "t"), "T")


_SHOCK_PRECOMPUTE = {
    "F": [(0,), (1,), (2,)],
    "G": [(0,), (1,)],
    "m": [(0,), (1,)],
    "n": [(0,), (1,)],
}
_SHARED_PRECOMPUTE = {
    "alpha": [(0,), (1,)],
    "beta": [(0,), (1,), (2,)],
    "delta": [(0,), (1,), (2,)],
}
_GENERAL_PRECOMPUTE = {
    "Q": [(0, 1), (1, 0), (1, 1), (2, 0), (0, 2)],
    "R": [(0, 1), (1, 0), (1, 1), (2, 0), (0, 2)],
    "T": [(0, 0), (1, 0), (2, 0), (0, 1)],
}

_PROBE_POINTS = np.array([-0.73, 0.11, 0.97])


def _precompute(obj, plan):
    for attr, orders_list in plan.items():
        fn: SmoothFn = getattr(obj, attr)
        for orders in orders_list:
            _probe(fn.compiled(orders), fn.arity, attr, orders)


def _probe(compiled, arity, attr, orders):
    # Differentiation/evaluation failures should surface at build time,
    # not mid-scan; a few probe points catch e.g. log(p) derivatives that
    # blow up at desk-scale arguments.
    with np.errstate(all="ignore"):
        vals = compiled(*([_PROBE_POINTS] * arity))
    if not np.isfinite(vals).any():
        raise FamilyError(
            f"differentiation domain failure: partial {orders} of "
            f"'{attr}' not evaluable at any probe point")


class ShockFamily:
    """Built shock family; immutable after construction."""

    kind = "shock"

    def __init__(self, defs, shared: SharedProfile):
        if not defs:
            raise FamilyError("empty family")
        self.defs = tuple(defs)
        self.shared = shared
        for d in self.defs:
            if not isinstance(d, ShockSolutionDef):
                raise FamilyError("shock family needs ShockSolutionDef seeds")
            _precompute(d, _SHOCK_PRECOMPUTE)
        _precompute(shared, _SHARED_PRECOMPUTE)
        self._relations = {}

    @property
    def size(self) -> int:
        return len(self.defs)

    def relation(self, i: int):
        from .implicitsolve import shock_relation
        if i not in self._relations:
            self._relations[i] = shock_relation(self.defs[i], self.shared)
        return self._relations[i]

    def sample(self, i: int, point, proot, report=None):
        from .calculus import shock_derivatives
        return shock_derivatives(self.defs[i], self.shared, point, proot,
                                 report=report)

    def values(self, i: int, point, proot):
        """(p, q, r) values only, no implicit-function-theorem division.

        One root per row of the cloud; one lane per row in each field.
        """
        (x, y, z, t), p = cloud_lanes(point, proot)
        d = self.defs[i]
        F = d.F.compiled((0,))(p)
        q = d.m.compiled((0,))(y) + self.shared.beta.compiled((1,))(y) * F
        r = d.n.compiled((0,))(z) + self.shared.delta.compiled((1,))(z) * F
        return p, lanes(q, len(p)), lanes(r, len(p))


class GeneralFamily:
    """Built general hodograph family; immutable after construction."""

    kind = "general"

    def __init__(self, defs, shared: SharedProfile):
        if not defs:
            raise FamilyError("empty family")
        self.defs = tuple(defs)
        self.shared = shared
        for d in self.defs:
            if not isinstance(d, GeneralSolutionDef):
                raise FamilyError("general family needs GeneralSolutionDef seeds")
            _precompute(d, _GENERAL_PRECOMPUTE)
        self._relations = {}

    @property
    def size(self) -> int:
        return len(self.defs)

    def relation(self, i: int):
        from .implicitsolve import general_relation
        if i not in self._relations:
            self._relations[i] = general_relation(self.defs[i])
        return self._relations[i]

    def sample(self, i: int, point, proot, report=None):
        from .calculus import general_derivatives
        return general_derivatives(self.defs[i], point, proot, report=report)

    def values(self, i: int, point, proot):
        (x, y, z, t), p = cloud_lanes(point, proot)
        d = self.defs[i]
        q = d.Q.compiled((0, 1))(p, y)
        r = d.R.compiled((0, 1))(p, z)
        return p, lanes(q, len(p)), lanes(r, len(p))


def build_shock_family(defs, shared: SharedProfile) -> ShockFamily:
    return ShockFamily(defs, shared)


def build_general_family(defs, shared: SharedProfile) -> GeneralFamily:
    return GeneralFamily(defs, shared)


# ---------------------------------------------------------------------------
# Shock -> general embedding (polynomial m only)
# ---------------------------------------------------------------------------

def polynomial_antiderivative(e: Expr, wrt: str) -> Expr:
    """Antiderivative of a polynomial AST in `wrt` (constant of integration 0).

    Handles constants, the variable, sums/differences, negation, products
    with a factor free of `wrt`, integer powers of the variable, and
    division by constants.  Anything else raises ExprError.
    """
    k = e.kind
    x = exprdsl.var(wrt)
    if wrt not in exprdsl.free_variables(e):
        return exprdsl.mul(e, x)
    if k == "var":
        return exprdsl.div(exprdsl.pow_(x, exprdsl.const(2.0)),
                           exprdsl.const(2.0))
    if k == "neg":
        return exprdsl.neg(polynomial_antiderivative(e.args[0], wrt))
    if k in ("add", "sub"):
        a = polynomial_antiderivative(e.args[0], wrt)
        b = polynomial_antiderivative(e.args[1], wrt)
        return exprdsl.add(a, b) if k == "add" else exprdsl.sub(a, b)
    if k == "mul":
        a, b = e.args
        if wrt not in exprdsl.free_variables(a):
            return exprdsl.mul(a, polynomial_antiderivative(b, wrt))
        if wrt not in exprdsl.free_variables(b):
            return exprdsl.mul(polynomial_antiderivative(a, wrt), b)
        raise ExprError("not a polynomial in " + wrt)
    if k == "div":
        a, b = e.args
        if wrt not in exprdsl.free_variables(b):
            return exprdsl.div(polynomial_antiderivative(a, wrt), b)
        raise ExprError("not a polynomial in " + wrt)
    if k == "pow":
        base, expo = e.args
        if (base.kind == "var" and base.name == wrt and expo.kind == "const"
                and float(expo.value).is_integer() and expo.value >= 0):
            np1 = expo.value + 1.0
            return exprdsl.div(exprdsl.pow_(x, exprdsl.const(np1)),
                               exprdsl.const(np1))
        raise ExprError("not a polynomial in " + wrt)
    raise ExprError("not a polynomial in " + wrt)


def shock_def_as_general(sdef: ShockSolutionDef,
                         shared: SharedProfile) -> GeneralSolutionDef:
    """Embed a shock seed into the general family.

    Q(p,y) = M(y) + beta(y) F(p) with M' = m (m must be polynomial in y),
    R(p,z) = N(z) + delta(z) F(p) with N' = n (n polynomial in z),
    T(p,t) = alpha(t) F'(p) + G(p).
    """
    M = polynomial_antiderivative(sdef.m.expr, "y")
    N = polynomial_antiderivative(sdef.n.expr, "z")
    Fp = sdef.F.expr
    Q = exprdsl.add(M, exprdsl.mul(shared.beta.expr, Fp))
    R = exprdsl.add(N, exprdsl.mul(shared.delta.expr, Fp))
    T = exprdsl.add(exprdsl.mul(shared.alpha.expr, sdef.F.partial(1)),
                    sdef.G.expr)
    return GeneralSolutionDef(Q=SmoothFn(Q, ("p", "y")),
                              R=SmoothFn(R, ("p", "z")),
                              T=SmoothFn(T, ("p", "t")))
