"""Small expression language: parsing, symbolic differentiation, evaluation.

Expressions live in one or two named variables and support +, -, *, /, ^
(right associative, binds tighter than unary minus), parentheses, numeric
literals and the smooth functions sin, cos, exp, log, sqrt, tanh.  The AST
is immutable; differentiation returns a new AST over the same variables.

Only constant folding and 0/1 identity elimination are performed; no
general simplification.

Compiled code evaluates a power whose exponent is the constant 2, 3 or 4
as a product of its base, multiplied left to right, and every other power
with `**`.  numpy evaluates `p**3.0` through libm `pow`, tens of times
slower than `p*p*p`; a product can differ from `pow` in the last bit
(within 2 ulp on finite normal results).
"""

from __future__ import annotations

import math

from .record import Record

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")
# Nesting bound of parentheses, calls, unary minus and ^ in a source: the
# parser recurses once per level.
MAX_NESTING = 64
# Depth bound of a parsed tree.  Chains such as p+p+...+p nest without
# parentheses; differentiation, printing and the root scan's bound walk the
# tree recursively, and compiled source stays under Python's 200 nested
# parentheses only for trees about this shallow.
MAX_DEPTH = 200

_MATH_FUNCS = {name: getattr(math, name) for name in FUNCTIONS}


class ExprError(ValueError):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalDomainError(ExprError):
    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in '{to_source(subexpr)}'")
        self.subexpr = subexpr


class Expr(Record):
    """AST node.

    kind is one of "const", "var", "neg", "add", "sub", "mul", "div",
    "pow", "call".  For "const" `value` holds the number, for "var" and
    "call" `name` holds the identifier / function name.
    """

    kind: str
    value: float = 0.0
    name: str = ""
    args: tuple = ()


ZERO = Expr("const", 0.0)
ONE = Expr("const", 1.0)


def const(v: float) -> Expr:
    return Expr("const", float(v))


def var(name: str) -> Expr:
    return Expr("var", name=name)


def _is_const(e: Expr, v: float | None = None) -> bool:
    return e.kind == "const" and (v is None or e.value == v)


def _folded(kind: str, a: Expr, b: Expr, value) -> Expr:
    """The constant a <kind> b folds to; an undefined or non-finite one is
    refused, since compiled code would raise or print it as a bare name."""
    if isinstance(value, complex) or not math.isfinite(value):
        raise ExprError(f"constant '{to_source(Expr(kind, args=(a, b)))}' "
                        f"is undefined or not finite")
    return const(value)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return _folded("add", a, b, a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Expr("add", args=(a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return _folded("sub", a, b, a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Expr("sub", args=(a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return _folded("mul", a, b, a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Expr("mul", args=(a, b))


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return ZERO
    if _is_const(a) and _is_const(b):
        return _folded("div", a, b, a.value / b.value if b.value
                       else math.nan)
    return Expr("div", args=(a, b))


def pow_(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return ONE
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        try:
            v = a.value ** b.value
        except (ValueError, OverflowError, ZeroDivisionError):
            v = math.nan
        return _folded("pow", a, b, v)
    return Expr("pow", args=(a, b))


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return const(-a.value)
    if a.kind == "neg":
        return a.args[0]
    return Expr("neg", args=(a,))


def call(fname: str, arg: Expr) -> Expr:
    if fname not in FUNCTIONS:
        raise ExprError(f"unknown function '{fname}'")
    if _is_const(arg):
        try:
            v = _MATH_FUNCS[fname](arg.value)
        except (ValueError, OverflowError):
            return Expr("call", name=fname, args=(arg,))
        return const(v)
    return Expr("call", name=fname, args=(arg,))


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_OPERATORS = "+-*/^()"


def _tokenize(source: str):
    """Yield (kind, text, offset) tuples; kind in num|ident|op."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n:
                cj = source[j]
                if cj.isdigit() or cj == ".":
                    j += 1
                elif cj in "eE" and j + 1 < n and (source[j + 1].isdigit()
                                                   or source[j + 1] in "+-"):
                    j += 2
                else:
                    break
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number '{text}'", i)
            tokens.append(("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character '{c}'", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected '{op}'", off)
        return self.next()

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.parse_term()
                e = add(e, rhs) if text == "+" else sub(e, rhs)
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.parse_unary()
                e = mul(e, rhs) if text == "*" else div(e, rhs)
            else:
                return e

    def parse_unary(self) -> Expr:
        # parentheses, calls, unary minus and ^ all nest through here
        kind, text, off = self.peek()
        if self.nesting >= MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING}",
                             off)
        self.nesting += 1
        try:
            if kind == "op" and text == "-":
                self.next()
                return neg(self.parse_unary())
            return self.parse_power()
        finally:
            self.nesting -= 1

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            # right associative; exponent may carry its own unary minus
            return pow_(base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        kind, text, off = self.next()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number '{text}' out of range", off)
            return const(value)
        if kind == "ident":
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{text}'", off)
                self.next()
                arg = self.parse_expr()
                self.expect_op(")")
                return call(text, arg)
            if text not in self.variables:
                raise ParseError(f"unknown identifier '{text}'", off)
            return var(text)
        if kind == "op" and text == "(":
            e = self.parse_expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token '{text or 'end of input'}'", off)


def parse(source: str, variables) -> Expr:
    """Parse `source` over the declared variables (1 or 2 distinct names)."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    variables = list(variables)
    if len(variables) not in (1, 2) or len(set(variables)) != len(variables):
        raise ExprError("need 1 or 2 distinct variable names")
    tokens = _tokenize(source)
    p = _Parser(tokens, variables)
    e = p.parse_expr()
    kind, text, off = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected token '{text}'", off)
    if _depth(e) > MAX_DEPTH:
        raise ParseError(f"expression tree deeper than {MAX_DEPTH}", 0)
    return e


def _depth(e: Expr) -> int:
    """Number of nodes on the longest root-to-leaf path."""
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((a, d + 1) for a in node.args)
    return deepest


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def differentiate(e: Expr, wrt: str) -> Expr:
    """Symbolic derivative of e with respect to the variable `wrt`."""
    try:
        return _differentiate(e, wrt)
    except RecursionError:
        # each order can deepen the tree: a product chain's doubles
        raise ExprError(f"expression too deeply nested to differentiate "
                        f"(depth {_depth(e)})") from None


def _differentiate(e: Expr, wrt: str) -> Expr:
    k = e.kind
    if k == "const":
        return ZERO
    if k == "var":
        return ONE if e.name == wrt else ZERO
    if k == "neg":
        return neg(_differentiate(e.args[0], wrt))
    if k == "add":
        return add(_differentiate(e.args[0], wrt),
                   _differentiate(e.args[1], wrt))
    if k == "sub":
        return sub(_differentiate(e.args[0], wrt),
                   _differentiate(e.args[1], wrt))
    if k == "mul":
        a, b = e.args
        return add(mul(_differentiate(a, wrt), b),
                   mul(a, _differentiate(b, wrt)))
    if k == "div":
        a, b = e.args
        num = sub(mul(_differentiate(a, wrt), b),
                  mul(a, _differentiate(b, wrt)))
        return div(num, pow_(b, const(2.0)))
    if k == "pow":
        a, b = e.args
        if b.kind == "const":
            return mul(mul(b, pow_(a, const(b.value - 1.0))),
                       _differentiate(a, wrt))
        # general f^g via exp(g log f)
        da, db = _differentiate(a, wrt), _differentiate(b, wrt)
        return mul(e, add(mul(db, call("log", a)), div(mul(b, da), a)))
    if k == "call":
        arg = e.args[0]
        darg = _differentiate(arg, wrt)
        f = e.name
        if f == "sin":
            outer = call("cos", arg)
        elif f == "cos":
            outer = neg(call("sin", arg))
        elif f == "exp":
            outer = e
        elif f == "log":
            outer = div(ONE, arg)
        elif f == "sqrt":
            outer = div(ONE, mul(const(2.0), e))
        elif f == "tanh":
            outer = sub(ONE, pow_(e, const(2.0)))
        else:  # pragma: no cover - constructors reject unknown names
            raise ExprError(f"unknown function '{f}'")
        return mul(outer, darg)
    raise ExprError(f"unknown node kind '{k}'")  # pragma: no cover


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, bindings: dict) -> float:
    """Evaluate with a binding per variable; raises EvalDomainError on
    log of non-positive, sqrt of negative, division by zero etc.

    A scalar tree walk, independent of compile_expr: the reference the
    compiled code and the symbolic partials are tested against.
    """
    k = e.kind
    if k == "const":
        return e.value
    if k == "var":
        try:
            return float(bindings[e.name])
        except KeyError:
            raise ExprError(f"unbound variable '{e.name}'") from None
    if k == "neg":
        return -evaluate(e.args[0], bindings)
    if k in ("add", "sub", "mul", "div", "pow"):
        a = evaluate(e.args[0], bindings)
        b = evaluate(e.args[1], bindings)
        if k == "add":
            return a + b
        if k == "sub":
            return a - b
        if k == "mul":
            v = a * b
        elif k == "div":
            if b == 0.0:
                raise EvalDomainError("division by zero", e)
            v = a / b
        else:
            try:
                v = a ** b
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise EvalDomainError(f"invalid power ({exc})", e) from None
            if isinstance(v, complex):
                raise EvalDomainError("non-integer power of negative base", e)
        if not math.isfinite(v):
            raise EvalDomainError("overflow", e)
        return v
    if k == "call":
        a = evaluate(e.args[0], bindings)
        f = e.name
        if f == "log" and a <= 0.0:
            raise EvalDomainError("log of non-positive value", e)
        if f == "sqrt" and a < 0.0:
            raise EvalDomainError("sqrt of negative value", e)
        try:
            v = _MATH_FUNCS[f](a)
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(f"domain error ({exc})", e) from None
        if not math.isfinite(v):
            raise EvalDomainError("overflow", e)
        return v
    raise ExprError(f"unknown node kind '{k}'")  # pragma: no cover


def free_variables(e: Expr) -> set:
    if e.kind == "var":
        return {e.name}
    out = set()
    for a in e.args:
        out |= free_variables(a)
    return out


# ---------------------------------------------------------------------------
# Printing and compilation
# ---------------------------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "neg": 2, "mul": 3, "div": 3, "pow": 5,
         "const": 9, "var": 9, "call": 9}


def to_source(e: Expr) -> str:
    """Canonical printed form; re-parses to a numerically identical Expr."""

    def wrap(child: Expr, minimum: int) -> str:
        s = to_source(child)
        # a negative constant prints with a leading minus: it binds as neg
        negative = child.kind == "const" and s.startswith("-")
        if _PREC["neg" if negative else child.kind] < minimum:
            return f"({s})"
        return s

    k = e.kind
    if k == "const":
        return repr(e.value)
    if k == "var":
        return e.name
    if k == "neg":
        return "-" + wrap(e.args[0], 3)
    if k == "add":
        return f"{wrap(e.args[0], 1)} + {wrap(e.args[1], 2)}"
    if k == "sub":
        return f"{wrap(e.args[0], 1)} - {wrap(e.args[1], 2)}"
    if k == "mul":
        return f"{wrap(e.args[0], 3)}*{wrap(e.args[1], 4)}"
    if k == "div":
        return f"{wrap(e.args[0], 3)}/{wrap(e.args[1], 4)}"
    if k == "pow":
        # ^ is right associative and binds tighter than unary minus
        return f"{wrap(e.args[0], 6)}^{wrap(e.args[1], 6)}"
    if k == "call":
        return f"{e.name}({to_source(e.args[0])})"
    raise ExprError(f"unknown node kind '{k}'")  # pragma: no cover


# base^n for the integer exponents compiled to a product: the base is
# evaluated once, whatever its source
_PRODUCTS = {2.0: lambda b: b * b, 3.0: lambda b: b * b * b,
             4.0: lambda b: b * b * b * b}
_PRODUCT_NAMES = {n: f"_pow{int(n)}" for n in _PRODUCTS}


def _pysource(e: Expr) -> str:
    k = e.kind
    if k == "const":
        return f"({e.value!r})"
    if k == "var":
        return e.name
    if k == "neg":
        return f"(-{_pysource(e.args[0])})"
    if k in ("add", "sub", "mul", "div"):
        op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[k]
        return f"({_pysource(e.args[0])}{op}{_pysource(e.args[1])})"
    if k == "pow":
        base, exponent = e.args
        if exponent.kind == "const" and exponent.value in _PRODUCTS:
            return f"{_PRODUCT_NAMES[exponent.value]}({_pysource(base)})"
        return f"({_pysource(base)}**{_pysource(exponent)})"
    if k == "call":
        return f"{e.name}({_pysource(e.args[0])})"
    raise ExprError(f"unknown node kind '{k}'")  # pragma: no cover


def compile_expr(e: Expr, variables):
    """Compile to a numpy callable(*args) in declared-variable order.

    Arguments broadcast against each other; domain violations give nan or
    inf instead of raising.  An expression free of some variables returns
    the shape of the ones it uses, and a constant returns a Python float,
    so callers broadcast results to their lane shape.  Pass float64
    arrays, not bare Python floats: `1.0/p` at p = 0.0 would raise.

    `^` with the constant exponent 2, 3 or 4 compiles to a product of the
    base, multiplied left to right ((b*b)*b for 3), which can differ from
    libm `pow` in the last bit; every other exponent compiles to `**`.
    """
    import numpy as np

    # env goes in globals: the lambda body resolves names there at call time
    env = {name: getattr(np, name) for name in FUNCTIONS}
    env.update({_PRODUCT_NAMES[n]: f for n, f in _PRODUCTS.items()})
    try:
        src = f"lambda {', '.join(variables)}: {_pysource(e)}"
        return eval(src, {"__builtins__": {}, **env})  # noqa: S307 - closed namespace
    except (RecursionError, SyntaxError):
        # a partial can nest deeper than Python's parser or stack allows
        raise ExprError(f"expression too deeply nested to compile "
                        f"(depth {_depth(e)})") from None


# ---------------------------------------------------------------------------
# SmoothFn
# ---------------------------------------------------------------------------

class SmoothFn:
    """An Expr in 1 or 2 variables with lazily cached symbolic partials.

    Every partial asked for is cached, symbolic and compiled.  Immutable in
    effect: the expression never changes, caches only grow.
    """

    def __init__(self, expr: Expr, variables):
        self.variables = tuple(variables)
        if len(self.variables) not in (1, 2):
            raise ExprError("SmoothFn arity must be 1 or 2")
        if len(set(self.variables)) != len(self.variables):
            raise ExprError("variable names must be distinct")
        extra = free_variables(expr) - set(self.variables)
        if extra:
            raise ExprError(f"undeclared variables {sorted(extra)}")
        self.expr = expr
        self._partials = {(0,) * self.arity: expr}
        self._compiled = {}

    @classmethod
    def parse(cls, source: str, variables) -> "SmoothFn":
        variables = tuple(variables)
        return cls(parse(source, variables), variables)

    @property
    def arity(self) -> int:
        return len(self.variables)

    def partial(self, *orders) -> Expr:
        """Symbolic partial; orders gives the derivative order per variable."""
        if len(orders) != self.arity:
            raise ExprError("orders must match arity")
        orders = tuple(int(o) for o in orders)
        if any(o < 0 for o in orders):
            raise ExprError("orders must be non-negative")
        if orders in self._partials:
            return self._partials[orders]
        e = self.expr
        for name, order in zip(self.variables, orders):
            for _ in range(order):
                e = differentiate(e, name)
        self._partials[orders] = e
        return e

    def compiled(self, orders=None):
        if orders is None:
            orders = (0,) * self.arity
        orders = tuple(int(o) for o in orders)
        if orders not in self._compiled:
            self._compiled[orders] = compile_expr(self.partial(*orders),
                                                  self.variables)
        return self._compiled[orders]

    def __repr__(self):
        return f"SmoothFn({to_source(self.expr)!r}, vars={self.variables})"
