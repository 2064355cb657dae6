"""Solution-family definitions: shared profiles, seeds, family classes.

Variable conventions are fixed: the field variable is "p", the spacetime
coordinates are (x, y, z, t).  Univariate profiles are alpha(t), beta(y),
delta(z), m(y), n(z), F(p), G(p); bivariate general-family functions are
Q(p, y), R(p, z), T(p, t) with first variable p.  Each definition class
states its own in one table, VARIABLES, which scenario loading reads too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus, implicitsolve
from .exprdsl import SmoothFn
from .implicitsolve import cloud_lanes, lanes


class FamilyError(ValueError):
    """Raised on invalid family definitions (arity, variable convention)."""


class _Expressions:
    """A definition whose expressions are the keys of its class table
    VARIABLES, each declared over the variables the table gives it."""

    VARIABLES = {}

    def __post_init__(self):
        for key, expected in self.VARIABLES.items():
            fn = getattr(self, key)
            if fn.variables != expected:
                raise FamilyError(
                    f"variable convention: {key} must be declared over "
                    f"{expected}, got {fn.variables}")


@dataclass(frozen=True)
class SharedProfile(_Expressions):
    """Shared profile functions and the two free equation constants.

    The third constant is always c = -a - b, so a+b+c = 0 holds by
    construction; it is never stored.
    """

    alpha: SmoothFn  # alpha(t)
    beta: SmoothFn   # beta(y)
    delta: SmoothFn  # delta(z)
    a: float = 1.0
    b: float = 1.0

    VARIABLES = {"alpha": ("t",), "beta": ("y",), "delta": ("z",)}

    def __post_init__(self):
        super().__post_init__()
        if self.a == 0.0 and self.b == 0.0:
            raise FamilyError("(a, b) must not both be zero")

    @property
    def c(self) -> float:
        return -self.a - self.b


@dataclass(frozen=True)
class ShockSolutionDef(_Expressions):
    """One seed of the superposable shock family: F(p), G(p), m(y), n(z)."""

    F: SmoothFn
    G: SmoothFn
    m: SmoothFn
    n: SmoothFn

    VARIABLES = {"F": ("p",), "G": ("p",), "m": ("y",), "n": ("z",)}


@dataclass(frozen=True)
class GeneralSolutionDef(_Expressions):
    """One seed of the general hodograph family: Q(p,y), R(p,z), T(p,t)."""

    Q: SmoothFn
    R: SmoothFn
    T: SmoothFn

    VARIABLES = {"Q": ("p", "y"), "R": ("p", "z"), "T": ("p", "t")}


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
    "T": [(0, 0), (1, 0), (0, 1)],
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


class _Family:
    """A built family of seeds over one shared profile; immutable after
    construction, but for its cache of relations."""

    shared_plan = {}

    def __init__(self, defs, shared: SharedProfile):
        if not defs:
            raise FamilyError("empty family")
        self.defs = tuple(defs)
        self.shared = shared
        for d in self.defs:
            if not isinstance(d, self.seed_type):
                raise FamilyError(f"{self.kind} family needs "
                                  f"{self.seed_type.__name__} seeds")
            _precompute(d, self.plan)
        _precompute(shared, self.shared_plan)
        self._relations = {}

    @property
    def size(self) -> int:
        return len(self.defs)

    def relation(self, i: int):
        if i not in self._relations:
            self._relations[i] = self._relation(self.defs[i])
        return self._relations[i]


class ShockFamily(_Family):
    """Built shock family."""

    kind = "shock"
    seed_type = ShockSolutionDef
    plan = _SHOCK_PRECOMPUTE
    shared_plan = _SHARED_PRECOMPUTE

    def _relation(self, d):
        return implicitsolve.shock_relation(d, self.shared)

    def sample(self, i: int, point, proot):
        return calculus.shock_derivatives(self.relation(i), self.defs[i],
                                          self.shared, point, proot)

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


class GeneralFamily(_Family):
    """Built general hodograph family."""

    kind = "general"
    seed_type = GeneralSolutionDef
    plan = _GENERAL_PRECOMPUTE

    def _relation(self, d):
        return implicitsolve.general_relation(d)

    def sample(self, i: int, point, proot):
        return calculus.general_derivatives(self.relation(i), self.defs[i],
                                            point, proot)

    def values(self, i: int, point, proot):
        (x, y, z, t), p = cloud_lanes(point, proot)
        d = self.defs[i]
        q = d.Q.compiled((0, 1))(p, y)
        r = d.R.compiled((0, 1))(p, z)
        return p, lanes(q, len(p)), lanes(r, len(p))


# The family class, and through its seed_type the seed class, of each kind
FAMILIES = {cls.kind: cls for cls in (ShockFamily, GeneralFamily)}
