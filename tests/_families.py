"""Shared builders for tests: canonical fixtures and randomized families."""

import numpy as np

from heavenly.cliapp import scrambled_halton
from heavenly.exprdsl import SmoothFn
from heavenly.registry import (
    GeneralSolutionDef,
    SharedProfile,
    ShockSolutionDef,
    build_shock_family,
)

# pools of smooth univariate profiles used by the randomized scenarios
Y_POOL = ("0", "y", "y^2/2", "sin(y)", "tanh(y)", "y + sin(y)/2")
Z_POOL = ("0", "z", "z^2/2", "sin(z)", "tanh(z)", "z + cos(z)/2")
T_POOL = ("t", "sin(t)", "t^2/4", "tanh(t)", "t/2 + 1")

BOX_LOWS = (-1.0, 0.5, 0.5, 0.5)
BOX_HIGHS = (1.0, 1.5, 1.5, 1.5)


def sf(source, variables):
    return SmoothFn.parse(source, variables)


def simple_shared(a=1.0, b=1.0):
    return SharedProfile(alpha=sf("t", ("t",)), beta=sf("y", ("y",)),
                         delta=sf("z", ("z",)), a=a, b=b)


def quadratic_shock_def():
    """F = p^2/2, G = p: affine relation with closed-form root."""
    return ShockSolutionDef(F=sf("p^2/2", ("p",)), G=sf("p", ("p",)),
                            m=sf("0", ("y",)), n=sf("0", ("z",)))


def second_shock_def():
    """F = p^2, G = 0: the other seed of the worked two-seed example."""
    return ShockSolutionDef(F=sf("p^2", ("p",)), G=sf("0", ("p",)),
                            m=sf("y^2/2", ("y",)), n=sf("sin(z)", ("z",)))


def unbalanced_general_pair():
    """Two hodograph seeds that each solve the equation but whose
    superposition does not (cross terms unbalanced)."""
    g1 = GeneralSolutionDef(Q=sf("p^2*y/2", ("p", "y")),
                            R=sf("p^2*z/2", ("p", "z")),
                            T=sf("p*t", ("p", "t")))
    g2 = GeneralSolutionDef(Q=sf("p^3*y/3", ("p", "y")),
                            R=sf("p^2*z/2", ("p", "z")),
                            T=sf("p*t", ("p", "t")))
    return g1, g2


def random_polynomial(var, degree, rng, scale=0.5):
    terms = [f"{rng.uniform(-scale, scale):.6f}"]
    for k in range(1, degree + 1):
        terms.append(f"{rng.uniform(-scale, scale):.6f}*{var}^{k}")
    return " + ".join(terms)


def random_shock_family(rng, n_seeds):
    """Random shock family with polynomial F, G of degree <= 4.

    G carries a dominant cubic term so the relation always crosses zero
    on the default scan interval for box-scale coordinates.
    """
    shared = SharedProfile(
        alpha=sf(str(rng.choice(T_POOL)), ("t",)),
        beta=sf(str(rng.choice(Y_POOL)), ("y",)),
        delta=sf(str(rng.choice(Z_POOL)), ("z",)),
        a=float(rng.uniform(-2.0, 2.0)),
        b=float(rng.uniform(0.5, 2.0)))
    defs = []
    for _ in range(n_seeds):
        K = float(rng.choice([-1.0, 1.0])) * rng.uniform(15.0, 20.0)
        G = random_polynomial("p", 2, rng) + f" + {K:.6f}*p^3"
        defs.append(ShockSolutionDef(
            F=sf(random_polynomial("p", 4, rng), ("p",)),
            G=sf(G, ("p",)),
            m=sf(str(rng.choice(Y_POOL)), ("y",)),
            n=sf(str(rng.choice(Z_POOL)), ("z",))))
    return build_shock_family(defs, shared)


def halton_cloud(count, seed):
    return scrambled_halton(count, seed, BOX_LOWS, BOX_HIGHS)
