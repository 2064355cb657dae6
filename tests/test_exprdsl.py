import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavenly.exprdsl import (
    EvalDomainError,
    Expr,
    ExprError,
    ParseError,
    SmoothFn,
    _pysource,
    compile_expr,
    differentiate,
    evaluate,
    parse,
    to_source,
)


def d(source, wrt, at, variables=("p",)):
    e = parse(source, variables)
    bindings = dict(zip(variables, at if isinstance(at, tuple) else (at,)))
    return evaluate(differentiate(e, wrt), bindings)


class TestParse:
    def test_power_quotient(self):
        e = parse("p^2/2", ["p"])
        assert evaluate(e, {"p": 3.0}) == 4.5

    def test_two_variables(self):
        e = parse("p*y + sin(y)", ["p", "y"])
        assert evaluate(e, {"p": 2.0, "y": 0.0}) == 0.0
        assert evaluate(e, {"p": 2.0, "y": math.pi / 2}) == \
            pytest.approx(math.pi + 1.0)

    @pytest.mark.parametrize("source", [
        "(" * 3000 + "p" + ")" * 3000, "-" * 3000 + "p", "p^" * 3000 + "p",
        "sin(" * 100 + "p" + ")" * 100],
        ids=["parentheses", "unary", "power", "calls"])
    def test_nesting_bound(self, source):
        with pytest.raises(ParseError, match="nested deeper than 64"):
            parse(source, ["p"])

    def test_nesting_inside_bound(self):
        assert evaluate(parse("(" * 63 + "p" + ")" * 63, ["p"]),
                        {"p": 2.0}) == 2.0

    def test_tree_depth_bound(self):
        # a chain nests without parentheses; 200 terms are 200 levels
        assert evaluate(parse("+".join(["p"] * 200), ["p"]),
                        {"p": 1.0}) == 200.0
        for terms in (201, 3000):
            with pytest.raises(ParseError, match="tree deeper than 200"):
                parse("+".join(["p"] * terms), ["p"])

    def test_differentiate_too_deep(self):
        e = parse("p", ["p"])
        for _ in range(5000):
            e = Expr("mul", args=(e, parse("p", ["p"])))
        with pytest.raises(ExprError, match="too deeply nested to differ"):
            differentiate(e, "p")

    def test_partial_too_deep_to_compile(self):
        source = "p"
        for _ in range(16):
            source = f"log({source})/p"
        fn = SmoothFn.parse(source, ("p",))
        with pytest.raises(ExprError, match="too deeply nested to compile"):
            fn.compiled((3,))

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("p +* 2", ["p"])
        assert exc.value.offset == 3

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("p + w", ["p"])

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("abs(p)", ["p"])

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse("   ", ["p"])

    def test_variable_count(self):
        with pytest.raises(ExprError):
            parse("p", ["p", "y", "z"])
        with pytest.raises(ExprError):
            parse("p", ["p", "p"])

    def test_unary_minus_binds_looser_than_power(self):
        e = parse("-p^2", ["p"])
        assert evaluate(e, {"p": 3.0}) == -9.0

    def test_power_right_associative(self):
        e = parse("p^2^3", ["p"])
        assert evaluate(e, {"p": 2.0}) == 2.0 ** 8

    def test_scientific_literals(self):
        assert evaluate(parse("1e-2 + p", ["p"]), {"p": 0.0}) == 0.01

    @pytest.mark.parametrize("source, value", [
        ("2.5e-3", 2.5e-3), ("1E+2", 100.0), (".5", 0.5), ("3.", 3.0)])
    def test_numeric_literals(self, source, value):
        assert parse(source, ["p"]) == Expr("const", value)

    @pytest.mark.parametrize("source, message, offset", [
        ("1.2.3", "malformed number '1.2.3'", 0),
        ("1e5e3", "malformed number '1e5e3'", 0),
        # an e with no digits after it ends the number
        ("2e", "unexpected token 'e'", 1)])
    def test_malformed_numeric_literals(self, source, message, offset):
        with pytest.raises(ParseError, match=message) as exc:
            parse(source, ["p"])
        assert exc.value.offset == offset

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("p) + 2", ["p"])


class TestDifferentiate:
    def test_power_rule(self):
        assert d("p^2/2", "p", 3.0) == 3.0

    def test_product_and_chain(self):
        e = parse("p*y + sin(y)", ["p", "y"])
        dy = differentiate(e, "y")
        assert evaluate(dy, {"p": 2.0, "y": 0.0}) == pytest.approx(3.0)

    def test_constant(self):
        e = parse("4.25", ["p"])
        assert evaluate(differentiate(e, "p"), {"p": 9.0}) == 0.0

    @pytest.mark.parametrize("source, expected", [
        ("sin(p)", math.cos(0.7)),
        ("cos(p)", -math.sin(0.7)),
        ("exp(p)", math.exp(0.7)),
        ("log(p)", 1.0 / 0.7),
        ("sqrt(p)", 0.5 / math.sqrt(0.7)),
        ("tanh(p)", 1.0 - math.tanh(0.7) ** 2),
    ])
    def test_function_rules(self, source, expected):
        assert d(source, "p", 0.7) == pytest.approx(expected, rel=1e-14)

    def test_general_power(self):
        # d/dp p^p = p^p (log p + 1)
        v = d("p^p", "p", 1.5)
        assert v == pytest.approx(1.5 ** 1.5 * (math.log(1.5) + 1.0))


class TestEvaluate:
    def test_arithmetic(self):
        assert evaluate(parse("p^2/2", ["p"]), {"p": 3.0}) == 4.5

    def test_exp_identity(self):
        assert evaluate(parse("exp(p)", ["p"]), {"p": 0.0}) == 1.0

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError, match="division by zero"):
            evaluate(parse("1/p", ["p"]), {"p": 0.0})

    def test_log_domain(self):
        with pytest.raises(EvalDomainError, match="log"):
            evaluate(parse("log(p)", ["p"]), {"p": -1.0})

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError, match="sqrt"):
            evaluate(parse("sqrt(p)", ["p"]), {"p": -4.0})

    def test_error_names_subexpression(self):
        with pytest.raises(EvalDomainError, match="1.0/p"):
            evaluate(parse("2 + 1/p", ["p"]), {"p": 0.0})


# ---------------------------------------------------------------------------
# Random expression properties
# ---------------------------------------------------------------------------

_FUNCS = ("sin", "cos", "tanh", "exp")


def _random_expr(rng, variables, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return f"{rng.uniform(-2.0, 2.0):.4f}"
        return rng.choice(variables)
    choice = rng.random()
    a = _random_expr(rng, variables, depth - 1)
    if choice < 0.2:
        return f"{rng.choice(_FUNCS)}({a})"
    if choice < 0.3:
        return f"-({a})"
    if choice < 0.4:
        return f"({a})^{rng.randint(2, 3)}"
    b = _random_expr(rng, variables, depth - 1)
    op = rng.choice(["+", "-", "*", "/"])
    if op == "/":
        # keep denominators away from zero
        return f"({a})/({b} + 4.0)"
    return f"({a}) {op} ({b})"


def _richardson(fn, x0, h=1e-5):
    return (8.0 * (fn(x0 + h) - fn(x0 - h))
            - (fn(x0 + 2 * h) - fn(x0 - 2 * h))) / (12.0 * h)


def test_random_exprs_derivative_matches_central_difference():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(1000):
        nvars = rng.choice([1, 2])
        variables = ("p",) if nvars == 1 else ("p", "y")
        source = _random_expr(rng, variables, depth=rng.randint(1, 6))
        e = parse(source, variables)
        wrt = rng.choice(variables)
        de = differentiate(e, wrt)
        point = {v: rng.uniform(-1.5, 1.5) for v in variables}

        def f(x, _e=e, _point=point, _wrt=wrt):
            b = dict(_point)
            b[_wrt] = x
            return evaluate(_e, b)

        try:
            sym = evaluate(de, point)
            if abs(sym) > 1e5 or abs(f(point[wrt])) > 1e5:
                continue
            fd = _richardson(f, point[wrt])
        except EvalDomainError:
            continue
        assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym)), source
        checked += 1
    assert checked >= 700


def test_parse_print_parse_idempotent():
    variables = ("p", "y")
    # a negative constant as the base of ^ keeps its parentheses; the base
    # is negative, so compare at integer exponents
    for source in ("(-2)^p", "p*(-2.5)^p", "(-2)^(-p)"):
        e1 = parse(source, variables)
        e2 = parse(to_source(e1), variables)
        for p in (-2.0, 2.0, 3.0):
            point = {"p": p, "y": 0.0}
            assert evaluate(e2, point) == evaluate(e1, point), source
    rng = random.Random(99)
    for _ in range(300):
        source = _random_expr(rng, variables, depth=rng.randint(1, 5))
        e1 = parse(source, variables)
        e2 = parse(to_source(e1), variables)
        for _ in range(5):
            point = {v: rng.uniform(-1.5, 1.5) for v in variables}
            try:
                v1 = evaluate(e1, point)
            except EvalDomainError:
                continue
            v2 = evaluate(e2, point)
            assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3), x=st.floats(-2, 2))
def test_differentiation_is_linear(a, b, x):
    e1 = parse("sin(p) + p^3", ["p"])
    e2 = parse("exp(p)/2 + p", ["p"])
    combo = parse(f"({a!r})*(sin(p) + p^3) + ({b!r})*(exp(p)/2 + p)", ["p"])
    lhs = evaluate(differentiate(combo, "p"), {"p": x})
    rhs = (a * evaluate(differentiate(e1, "p"), {"p": x})
           + b * evaluate(differentiate(e2, "p"), {"p": x}))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestSmoothFn:
    def test_cached_partials_match_fresh_differentiation(self):
        fn = SmoothFn.parse("sin(p*y) + p^2*y", ("p", "y"))
        rng = random.Random(5)
        for orders in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 3)]:
            cached = fn.partial(*orders)
            fresh = fn.expr
            for name, k in zip(fn.variables, orders):
                for _ in range(k):
                    fresh = differentiate(fresh, name)
            for _ in range(10):
                pt = {"p": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
                a, b = evaluate(cached, pt), evaluate(fresh, pt)
                assert abs(a - b) <= 1e-12 * (1.0 + abs(b))

    def test_every_partial_cached(self):
        fn = SmoothFn.parse("p^6", ("p",))
        fn.partial(3)
        fn.partial(4)
        assert (3,) in fn._partials
        assert (4,) in fn._partials
        assert fn.partial(4) is fn._partials[(4,)]

    def test_arity_enforced(self):
        with pytest.raises(ExprError):
            SmoothFn.parse("p", ("p", "y", "z"))

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ExprError):
            SmoothFn(parse("p*y", ("p", "y")), ("p",))

    def test_compiled_matches_evaluate(self):
        fn = SmoothFn.parse("tanh(p) + p^3/3", ("p",))
        fast = fn.compiled((1,))
        slow = differentiate(fn.expr, "p")
        for x in (-1.2, 0.0, 0.7, 2.5):
            assert fast(x) == pytest.approx(evaluate(slow, {"p": x}),
                                            rel=1e-14)


class TestIntegerPowers:
    """p^2, p^3 and p^4 compile to products of the base, left to right."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_left_to_right_product_within_2_ulp_of_pow(self, n):
        rng = np.random.default_rng(n)
        base = rng.choice([-1.0, 1.0], 20_000) \
            * 10.0 ** rng.uniform(-120.0, 120.0, 20_000)
        with np.errstate(all="ignore"):
            got = compile_expr(parse(f"p^{n}", ["p"]), ["p"])(base)
        for b, v in zip(base.tolist(), got.tolist()):
            product = b
            for _ in range(n - 1):
                product *= b
            assert v == product or math.isnan(v) and math.isnan(product)
            if math.isfinite(v) and abs(v) >= sys.float_info.min:
                assert abs(v - math.pow(b, n)) <= 2 * math.ulp(v)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_special_values_as_np_power(self, n):
        base = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200,
                         1e-200, -1e-200])
        with np.errstate(all="ignore"):
            got = compile_expr(parse(f"p^{n}", ["p"]), ["p"])(base)
            want = np.power(base, float(n))
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("source", ["p^5", "p^2.5", "p^-3", "p^t"])
    def test_other_exponents_compile_to_pow(self, source):
        assert "**" in _pysource(parse(source, ["p", "t"]))

    def test_base_evaluated_once(self):
        source = _pysource(parse("(sin(p) + 1)^4", ["p"]))
        assert source.count("sin(") == 1
        assert "**" not in source
