"""Shared builders for tests: canonical fixtures and randomized families."""

import numpy as np
from hypothesis import reject
from hypothesis import strategies as st

from heavenly import exprdsl
from heavenly.calculus import FIELD_NAMES, FieldSample
from heavenly.cliapp import scrambled_halton
from heavenly.exprdsl import Expr, ExprError, SmoothFn
from heavenly.registry import (
    GeneralSolutionDef,
    SharedProfile,
    ShockFamily,
    ShockSolutionDef,
)

# pools of smooth univariate profiles used by the randomized scenarios
Y_POOL = ("0", "y", "y^2/2", "sin(y)", "tanh(y)", "y + sin(y)/2")
Z_POOL = ("0", "z", "z^2/2", "sin(z)", "tanh(z)", "z + cos(z)/2")
T_POOL = ("t", "sin(t)", "t^2/4", "tanh(t)", "t/2 + 1")
# polynomial m and n, which shock_def_as_general can embed
Y_POLYNOMIALS = ("0", "y", "y^2/2", "y^3/3 - y")
Z_POLYNOMIALS = ("0", "z", "z^2/2", "z^3/6 + z")

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


def take_lanes(sample: FieldSample, rows) -> FieldSample:
    """The seed cloud sample of the given lanes, in that order: [k] is the
    one-row cloud at lane k.  The fields and Phi_p, which the oracle reads,
    are kept."""
    return FieldSample(point=sample.point[rows],
                       **{name: getattr(sample, name)[rows]
                          for name in FIELD_NAMES + ("Phi_p",)})


def random_polynomial(var, degree, rng, scale=0.5):
    terms = [f"{rng.uniform(-scale, scale):.6f}"]
    for k in range(1, degree + 1):
        terms.append(f"{rng.uniform(-scale, scale):.6f}*{var}^{k}")
    return " + ".join(terms)


def random_shock_family(rng, n_seeds, m_pool=Y_POOL, n_pool=Z_POOL):
    """Random shock family with polynomial F, G of degree <= 4, and m and
    n drawn from m_pool and n_pool.

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
            m=sf(str(rng.choice(m_pool)), ("y",)),
            n=sf(str(rng.choice(n_pool)), ("z",))))
    return ShockFamily(defs, shared)


def halton_cloud(count, seed):
    return scrambled_halton(count, seed, BOX_LOWS, BOX_HIGHS)


# a node is a leaf with probability 2/9 below the bound, so trees of every
# depth up to it are drawn
_NODES = ("leaf", "leaf", "neg", "call", "add", "sub", "mul", "div", "pow")
_BINARY = {"add": exprdsl.add, "sub": exprdsl.sub, "mul": exprdsl.mul,
           "div": exprdsl.div, "pow": exprdsl.pow_}
TREE_CONSTANTS = (0.0, 0.5, 1.0, 2.0, 3.0)


@st.composite
def expr_trees(draw, variables, depth):
    """Expression trees of depth <= depth over variables and
    TREE_CONSTANTS, with + - * / ^, negation and the six calls.

    The exprdsl constructors build them, so constants fold as in a parsed
    source; a tree that folds to a non-finite constant is rejected.
    """
    kind = draw(st.sampled_from(_NODES[:1] if depth == 0 else _NODES))
    if kind == "leaf":
        if draw(st.booleans()):
            return exprdsl.var(draw(st.sampled_from(variables)))
        return exprdsl.const(draw(st.sampled_from(TREE_CONSTANTS)))
    args = [draw(expr_trees(variables, depth - 1))
            for _ in range(1 if kind in ("neg", "call") else 2)]
    try:
        if kind == "neg":
            return exprdsl.neg(*args)
        if kind == "call":
            return exprdsl.call(draw(st.sampled_from(exprdsl.FUNCTIONS)),
                                *args)
        return _BINARY[kind](*args)
    except ExprError:
        reject()


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
