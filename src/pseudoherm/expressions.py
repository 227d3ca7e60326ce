"""Arithmetic expression trees for real-valued model functions.

Supports parsing, pointwise evaluation (scalar or numpy array argument),
and closed symbolic differentiation over a small grammar: real constants,
the variable x, named parameters, unary functions, and the binary
operations + - * / ^ with constant integer exponents.

Each grammar rule has one source: the tokenizer is one regular expression,
a function is one FUNCTIONS row that carries both its numpy callable and
its derivative rule, and a binary operator is one BINARY row that carries
its precedence, its value and its derivative rule.  The precedences drive
both the parser and the printer.
"""

import re
from dataclasses import dataclass

import numpy as np

# name -> (numpy callable, derivative rule: argument tree u -> tree of f'(u))
FUNCTIONS = {
    "sin": (np.sin, lambda u: Call("cos", u)),
    "cos": (np.cos, lambda u: _neg(Call("sin", u))),
    "sinh": (np.sinh, lambda u: Call("cosh", u)),
    "cosh": (np.cosh, lambda u: Call("sinh", u)),
    "tanh": (np.tanh, lambda u: _sub(Const(1.0), _pow(Call("tanh", u), 2))),
    "exp": (np.exp, lambda u: Call("exp", u)),
    "sqrt": (np.sqrt, lambda u: _div(Const(1.0), _mul(Const(2.0), Call("sqrt", u)))),
}

# operator -> (precedence: higher binds tighter, all associate left;
#   value of (left, right) at x; derivative rule (u, v, u', v') -> tree)
BINARY = {
    "+": (1, lambda a, b, x: a + b, lambda u, v, du, dv: _add(du, dv)),
    "-": (1, lambda a, b, x: a - b, lambda u, v, du, dv: _sub(du, dv)),
    "*": (2, lambda a, b, x: a * b, lambda u, v, du, dv: _add(_mul(du, v), _mul(u, dv))),
    "/": (2, lambda a, b, x: a / _divisor(b, x),
          lambda u, v, du, dv: _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, 2))),
}
_PREC = {op: row[0] for op, row in BINARY.items()}


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries a 0-based column offset."""

    def __init__(self, message, column):
        super().__init__("%s at column %d" % (message, column))
        self.column = column


class EvaluationError(ValueError):
    """Evaluation failed: unbound parameter or a domain violation."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


# ---------------------------------------------------------------------------
# tokenizer
#
# A number is a digit or '.', then digits and dots with at most one exponent
# mark ('e' or 'E' before a sign or a digit); float() judges the literal.
# A name starts with a letter or '_'.  \w also matches a leading numeral (a
# superscript digit, say), which _tokenize refuses.  Every position matches
# some group (bad takes any one character), so the matches tile the source
# and a running sum of their lengths is each token's column.

_TOKEN = re.compile(
    r"(?P<num>[0-9.][\d.]*(?:[eE](?:[+-]|(?=\d))[\d.]*)?)|(?P<name>\w+)"
    r"|(?P<op>[-+*/^()])|(?P<space>\s+)|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(source):
    tokens, i = [], 0
    for num, name, op, space, bad in _TOKEN.findall(source):
        if num:
            try:
                tokens.append(("num", float(num), i))
            except ValueError:
                raise ExprSyntaxError("bad number literal '%s'" % num, i) from None
        elif op:
            tokens.append((op, op, i))
        elif name and (name[0].isalpha() or name[0] == "_"):
            tokens.append(("name", name, i))
        elif not space:
            raise ExprSyntaxError("unexpected character '%s'" % (name or bad)[0], i)
        i += len(num or name or op or space or bad)
    tokens.append(("end", None, i))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser
#
# expr   := unary (binop unary)*   binop precedence from BINARY, left-assoc
# unary  := '-' unary | power
# power  := atom ('^' ['-'] integer)?
# atom   := number | name | name '(' expr ')' | '(' expr ')'


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError("expected '%s'" % kind, tok[2])
        return tok

    def parse_expr(self, min_prec=1):
        node = self.parse_unary()
        while _PREC.get(self.peek()[0], 0) >= min_prec:
            op = self.advance()[0]
            node = BinOp(op, node, self.parse_expr(_PREC[op] + 1))
        return node

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] != "^":
            return base
        self.advance()
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.advance()
        if tok[0] != "num" or not tok[1].is_integer():  # refuses 1e999 too
            raise ExprSyntaxError("exponent must be a constant integer", tok[2])
        if tok[1] >= 2**53:  # from 2^53 on, a float need not be the integer written
            raise ExprSyntaxError("exponent must be below 2^53 in magnitude", tok[2])
        return Pow(base, sign * int(tok[1]))

    def parse_atom(self):
        tok = self.advance()
        if tok[0] == "num":
            return Const(tok[1])
        if tok[0] == "name":
            if self.peek()[0] == "(":
                if tok[1] not in FUNCTIONS:
                    raise ExprSyntaxError("unknown function '%s'" % tok[1], tok[2])
                self.advance()
                arg = self.parse_expr()
                self.expect(")")
                return Call(tok[1], arg)
            if tok[1] == "x":
                return Var()
            return Param(tok[1])
        if tok[0] == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ExprSyntaxError("unexpected token '%s'" % tok[1], tok[2])


def parse(source):
    """Parse expression text into an immutable tree."""
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr()
    end = parser.peek()
    if end[0] != "end":
        raise ExprSyntaxError("trailing input '%s'" % end[1], end[2])
    return node


# ---------------------------------------------------------------------------
# evaluation


def evaluate(expr, x, env=None):
    """Evaluate at x (scalar or ndarray) with parameters bound from env.

    A value that overflows to Infinity or NaN raises EvaluationError at the
    first such x."""
    env = env or {}
    result = np.asarray(_eval(expr, x, env), dtype=float)
    _refuse(~np.isfinite(result), "non-finite value", x)
    if np.ndim(x) == 0:
        return float(result)
    return np.broadcast_to(result, np.shape(x)).copy()


def _first_offender(x, mask):
    # a scalar mask comes from a subexpression that does not depend on x
    xs, mask = np.broadcast_arrays(np.asarray(x, dtype=float), mask)
    return float(xs[mask][0])


def _refuse(bad, what, x):
    if np.asarray(bad).any():
        raise EvaluationError("%s at x = %g" % (what, _first_offender(x, bad)))


def _divisor(value, x):
    _refuse(value == 0, "division by zero", x)
    return value


def _eval(expr, x, env):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return np.asarray(x, dtype=float)
    if isinstance(expr, Param):
        try:
            return env[expr.name]
        except KeyError:
            raise EvaluationError("unbound parameter '%s'" % expr.name) from None
    if isinstance(expr, Neg):
        return -_eval(expr.arg, x, env)
    if isinstance(expr, Call):
        arg = _eval(expr.arg, x, env)
        if expr.fn == "sqrt":
            _refuse(arg < 0, "square root of negative value", x)
        return FUNCTIONS[expr.fn][0](arg)
    if isinstance(expr, BinOp):  # left is evaluated first
        return BINARY[expr.op][1](_eval(expr.left, x, env), _eval(expr.right, x, env), x)
    if isinstance(expr, Pow):
        base = _eval(expr.base, x, env)
        if expr.exponent < 0:
            base = _divisor(base, x)
        return np.power(base, expr.exponent)
    raise TypeError("not an expression node: %r" % (expr,))


def free_parameters(expr):
    """Names of all parameters appearing in the tree; None has none."""
    if isinstance(expr, Param):
        return {expr.name}
    names = set()
    for child in getattr(expr, "__dict__", {}).values():  # a node's fields; a leaf value has none
        names |= free_parameters(child)
    return names


# ---------------------------------------------------------------------------
# differentiation
#
# Smart constructors fold constants so derivative trees stay readable;
# no further simplification is attempted.


def _is_const(expr, value=None):
    return isinstance(expr, Const) and (value is None or expr.value == value)


def _fold(value, unfolded):
    # a fold that gives NaN (inf - inf, inf * 0, inf / inf) stays a tree:
    # evaluate reports it as a domain error at x, and NaN has no source text
    return unfolded if np.isnan(value) else Const(value)


def _add(left, right):
    if _is_const(left) and _is_const(right):
        return _fold(left.value + right.value, BinOp("+", left, right))
    if _is_const(left, 0.0):
        return right
    if _is_const(right, 0.0):
        return left
    return BinOp("+", left, right)


def _sub(left, right):
    if _is_const(left) and _is_const(right):
        return _fold(left.value - right.value, BinOp("-", left, right))
    if _is_const(right, 0.0):
        return left
    if _is_const(left, 0.0):
        return _neg(right)
    return BinOp("-", left, right)


def _mul(left, right):
    if _is_const(left) and _is_const(right):
        return _fold(left.value * right.value, BinOp("*", left, right))
    if _is_const(left, 0.0) or _is_const(right, 0.0):
        return Const(0.0)
    if _is_const(left, 1.0):
        return right
    if _is_const(right, 1.0):
        return left
    return BinOp("*", left, right)


def _div(left, right):
    if _is_const(left, 0.0):
        return Const(0.0)
    if _is_const(right, 1.0):
        return left
    if _is_const(left) and _is_const(right) and right.value != 0.0:
        return _fold(left.value / right.value, BinOp("/", left, right))
    return BinOp("/", left, right)


def _neg(expr):
    if _is_const(expr):
        return Const(-expr.value)
    if isinstance(expr, Neg):
        return expr.arg
    return Neg(expr)


def _pow(base, exponent):
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if _is_const(base):
        try:
            return Const(base.value**exponent)
        except (OverflowError, ZeroDivisionError):
            pass  # left unfolded: evaluate reports it as a domain error at x
    return Pow(base, exponent)


def differentiate(expr):
    """d/dx by the standard rules; the result is again an expression tree."""
    if isinstance(expr, (Const, Param)):
        return Const(0.0)
    if isinstance(expr, Var):
        return Const(1.0)
    if isinstance(expr, Neg):
        return _neg(differentiate(expr.arg))
    if isinstance(expr, Call):
        return _mul(FUNCTIONS[expr.fn][1](expr.arg), differentiate(expr.arg))
    if isinstance(expr, BinOp):
        dl = differentiate(expr.left)
        return BINARY[expr.op][2](expr.left, expr.right, dl, differentiate(expr.right))
    if isinstance(expr, Pow):
        if abs(expr.exponent - 1) >= 2**53:  # parse would refuse the printed result
            raise EvaluationError(
                "the derivative of a power with exponent %d has exponent %d,"
                " not below 2^53 in magnitude" % (expr.exponent, expr.exponent - 1)
            )
        db = differentiate(expr.base)
        return _mul(_mul(Const(float(expr.exponent)), _pow(expr.base, expr.exponent - 1)), db)
    raise TypeError("not an expression node: %r" % (expr,))


# ---------------------------------------------------------------------------
# printing


def to_source(expr):
    """Render the tree as parseable text (round-trips through parse)."""
    return _render(expr, 0)


def _render(expr, parent_prec):
    if isinstance(expr, Const):
        value = expr.value
        if np.isinf(value):
            text = "-1e999" if value < 0 else "1e999"  # parses back to +-inf
        elif value == 0 and np.signbit(value):
            text = "-0"  # parses back to -0.0, through Neg
        else:
            text = repr(int(value)) if value == int(value) else repr(value)
        if np.signbit(value) and parent_prec >= 2:  # as Neg prints
            return "(%s)" % text
        return text
    if isinstance(expr, Var):
        return "x"
    if isinstance(expr, Param):
        return expr.name
    if isinstance(expr, Call):
        return "%s(%s)" % (expr.fn, _render(expr.arg, 0))
    if isinstance(expr, Neg):
        inner = _render(expr.arg, 3)
        text = "-%s" % inner
        return "(%s)" % text if parent_prec >= 2 else text
    if isinstance(expr, BinOp):
        prec = _PREC[expr.op]
        left = _render(expr.left, prec - 1)
        # right operand keeps parens at equal precedence so the reparsed
        # tree associates identically
        right = _render(expr.right, prec)
        text = "%s %s %s" % (left, expr.op, right)
        return "(%s)" % text if prec <= parent_prec else text
    if isinstance(expr, Pow):
        base = _render(expr.base, 3)
        if isinstance(expr.base, Pow):
            base = "(%s)" % base
        return "%s^%d" % (base, expr.exponent)
    raise TypeError("not an expression node: %r" % (expr,))
