"""Solution-family definitions: shared profiles, seeds, family classes.

Variable conventions are fixed: the field variable is "p", the spacetime
coordinates are (x, y, z, t).  Univariate profiles are alpha(t), beta(y),
delta(z), m(y), n(z), F(p), G(p); bivariate general-family functions are
Q(p, y), R(p, z), T(p, t) with first variable p.  Each definition class
states its own in one table, VARIABLES, which scenario loading reads too.
"""

from __future__ import annotations

import numpy as np

from . import calculus, implicitsolve
from .exprdsl import SmoothFn
from .implicitsolve import cloud_lanes, lanes
from .record import Record


class FamilyError(ValueError):
    """Raised on invalid family definitions (arity, variable convention)."""


class _Expressions(Record):
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


class ShockSolutionDef(_Expressions):
    """One seed of the superposable shock family: F(p), G(p), m(y), n(z)."""

    F: SmoothFn
    G: SmoothFn
    m: SmoothFn
    n: SmoothFn

    VARIABLES = {"F": ("p",), "G": ("p",), "m": ("y",), "n": ("z",)}


class GeneralSolutionDef(_Expressions):
    """One seed of the general hodograph family: Q(p,y), R(p,z), T(p,t)."""

    Q: SmoothFn
    R: SmoothFn
    T: SmoothFn

    VARIABLES = {"Q": ("p", "y"), "R": ("p", "z"), "T": ("p", "t")}


# The build check evaluates each seed on the diagonal x = y = z = t = p at
# these points, so that an expression that cannot be evaluated refuses the
# family before any scan runs.
_PROBE_POINTS = np.array([-0.73, 0.11, 0.97])
_PROBE_CLOUD = np.repeat(_PROBE_POINTS[:, None], 4, axis=1)


def _require_finite(vals, what):
    if not np.isfinite(vals).any():
        raise FamilyError(f"differentiation domain failure: {what} not "
                          "evaluable at any probe point")


def _probe(family, i):
    """Refuse seed i unless every partial its samples read, and its
    relation's Phi and gradient, are finite at one probe point at least.

    One sample compiles the partials; the fields derived from them, such as
    p_x = -1/D, are not tested, for D may vanish at every probe point.  The
    partials come first because they name the user's function.
    """
    rel = family.relation(i)
    with np.errstate(all="ignore"):
        at = [_PROBE_POINTS] * 5
        values = [f(*at) for f in (rel.phi, rel.dphi, *rel.grad)]
        family.sample(i, _PROBE_CLOUD, _PROBE_POINTS, values[1])
        for obj in (family.defs[i], family.shared):
            for attr in obj.VARIABLES:
                fn = getattr(obj, attr)
                for orders, compiled in fn._compiled.items():
                    _require_finite(compiled(*[_PROBE_POINTS] * fn.arity),
                                    f"partial {orders} of '{attr}'")
        for name, vals in zip(("Phi", "dPhi/dp", "dPhi/dy", "dPhi/dz",
                               "dPhi/dt"), values):
            _require_finite(vals, f"{name} of seed {i}")


class _Family:
    """A built family of seeds over one shared profile, with each seed's
    relation; immutable after construction."""

    def __init__(self, defs, shared: SharedProfile):
        if not defs:
            raise FamilyError("empty family")
        self.defs = tuple(defs)
        self.shared = shared
        for d in self.defs:
            if not isinstance(d, self.seed_type):
                raise FamilyError(f"{self.kind} family needs "
                                  f"{self.seed_type.__name__} seeds")
        self._relations = tuple(self._relation(d) for d in self.defs)
        for i in range(self.size):
            _probe(self, i)

    @property
    def size(self) -> int:
        return len(self.defs)

    def relation(self, i: int):
        return self._relations[i]


class ShockFamily(_Family):
    """Built shock family."""

    kind = "shock"
    seed_type = ShockSolutionDef

    def _relation(self, d):
        return implicitsolve.shock_relation(d, self.shared)

    def sample(self, i: int, point, proot, D):
        return calculus.shock_derivatives(self.relation(i), self.defs[i],
                                          self.shared, point, proot, D)

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

    def _relation(self, d):
        return implicitsolve.general_relation(d)

    def sample(self, i: int, point, proot, D):
        return calculus.general_derivatives(self.relation(i), self.defs[i],
                                            point, proot, D)

    def values(self, i: int, point, proot):
        (x, y, z, t), p = cloud_lanes(point, proot)
        d = self.defs[i]
        q = d.Q.compiled((0, 1))(p, y)
        r = d.R.compiled((0, 1))(p, z)
        return p, lanes(q, len(p)), lanes(r, len(p))


# The family class, and through its seed_type the seed class, of each kind
FAMILIES = {cls.kind: cls for cls in (ShockFamily, GeneralFamily)}
