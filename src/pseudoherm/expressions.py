"""Arithmetic expression trees for real-valued model functions.

Supports parsing, pointwise evaluation (scalar or numpy array argument),
and closed symbolic differentiation over a small grammar: real constants,
the variable x, named parameters, unary functions, and the binary
operations + - * / ^ with constant integer exponents.
"""

from dataclasses import dataclass

import numpy as np

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "exp": np.exp,
    "sqrt": np.sqrt,
}


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


_NUMBER_START = "0123456789."


def _tokenize(source):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _NUMBER_START:
            j = i
            seen_e = False
            while j < n:
                d = source[j]
                if d.isdigit() or d == ".":
                    j += 1
                elif d in "eE" and not seen_e and j + 1 < n and (
                    source[j + 1].isdigit() or source[j + 1] in "+-"
                ):
                    seen_e = True
                    j += 2 if source[j + 1] in "+-" else 1
                else:
                    break
            try:
                value = float(source[i:j])
            except ValueError:
                raise ExprSyntaxError("bad number literal '%s'" % source[i:j], i)
            tokens.append(("num", value, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
        elif c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
        else:
            raise ExprSyntaxError("unexpected character '%s'" % c, i)
    tokens.append(("end", None, n))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser
#
# expr   := term (('+'|'-') term)*
# term   := unary (('*'|'/') unary)*
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

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.parse_term()
            node = BinOp(op, node, right)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            right = self.parse_unary()
            node = BinOp(op, node, right)
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
        if tok[0] != "num" or tok[1] != int(tok[1]):
            raise ExprSyntaxError("exponent must be a constant integer", tok[2])
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
    finite = np.isfinite(result)
    if not finite.all():
        bad = np.broadcast_to(~finite, np.shape(x))
        raise EvaluationError("non-finite value at x = %g" % _first_offender(x, bad))
    if np.ndim(x) == 0:
        return float(result)
    return np.broadcast_to(result, np.shape(x)).copy()


def _first_offender(x, mask):
    xs = np.broadcast_to(np.asarray(x, dtype=float), np.shape(mask))
    return float(xs[mask].flat[0]) if np.ndim(mask) else float(xs)


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
            bad = np.asarray(arg) < 0
            if np.any(bad):
                raise EvaluationError(
                    "square root of negative value at x = %g" % _first_offender(x, bad)
                )
        return FUNCTIONS[expr.fn](arg)
    if isinstance(expr, BinOp):
        left = _eval(expr.left, x, env)
        right = _eval(expr.right, x, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        bad = np.asarray(right) == 0
        if np.any(bad):
            raise EvaluationError(
                "division by zero at x = %g" % _first_offender(x, bad)
            )
        return left / right
    if isinstance(expr, Pow):
        base = _eval(expr.base, x, env)
        if expr.exponent < 0:
            bad = np.asarray(base) == 0
            if np.any(bad):
                raise EvaluationError(
                    "division by zero at x = %g" % _first_offender(x, bad)
                )
        return np.power(base, expr.exponent)
    raise TypeError("not an expression node: %r" % (expr,))


def free_parameters(expr):
    """Names of all parameters appearing in the tree."""
    if isinstance(expr, Param):
        return {expr.name}
    if isinstance(expr, Neg):
        return free_parameters(expr.arg)
    if isinstance(expr, Call):
        return free_parameters(expr.arg)
    if isinstance(expr, BinOp):
        return free_parameters(expr.left) | free_parameters(expr.right)
    if isinstance(expr, Pow):
        return free_parameters(expr.base)
    return set()


# ---------------------------------------------------------------------------
# differentiation
#
# Smart constructors fold constants so derivative trees stay readable;
# no further simplification is attempted.


def _is_const(expr, value=None):
    return isinstance(expr, Const) and (value is None or expr.value == value)


def _add(left, right):
    if _is_const(left) and _is_const(right):
        return Const(left.value + right.value)
    if _is_const(left, 0.0):
        return right
    if _is_const(right, 0.0):
        return left
    return BinOp("+", left, right)


def _sub(left, right):
    if _is_const(left) and _is_const(right):
        return Const(left.value - right.value)
    if _is_const(right, 0.0):
        return left
    if _is_const(left, 0.0):
        return _neg(right)
    return BinOp("-", left, right)


def _mul(left, right):
    if _is_const(left) and _is_const(right):
        return Const(left.value * right.value)
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
        return Const(left.value / right.value)
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
        return Const(base.value**exponent)
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
        inner = differentiate(expr.arg)
        if expr.fn == "sin":
            outer = Call("cos", expr.arg)
        elif expr.fn == "cos":
            outer = _neg(Call("sin", expr.arg))
        elif expr.fn == "sinh":
            outer = Call("cosh", expr.arg)
        elif expr.fn == "cosh":
            outer = Call("sinh", expr.arg)
        elif expr.fn == "tanh":
            outer = _sub(Const(1.0), _pow(Call("tanh", expr.arg), 2))
        elif expr.fn == "exp":
            outer = expr
        elif expr.fn == "sqrt":
            outer = _div(Const(1.0), _mul(Const(2.0), expr))
        else:
            raise ValueError("no derivative rule for '%s'" % expr.fn)
        return _mul(outer, inner)
    if isinstance(expr, BinOp):
        dl = differentiate(expr.left)
        dr = differentiate(expr.right)
        if expr.op == "+":
            return _add(dl, dr)
        if expr.op == "-":
            return _sub(dl, dr)
        if expr.op == "*":
            return _add(_mul(dl, expr.right), _mul(expr.left, dr))
        numer = _sub(_mul(dl, expr.right), _mul(expr.left, dr))
        return _div(numer, _pow(expr.right, 2))
    if isinstance(expr, Pow):
        db = differentiate(expr.base)
        return _mul(_mul(Const(float(expr.exponent)), _pow(expr.base, expr.exponent - 1)), db)
    raise TypeError("not an expression node: %r" % (expr,))


# ---------------------------------------------------------------------------
# printing


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_source(expr):
    """Render the tree as parseable text (round-trips through parse)."""
    return _render(expr, 0)


def _render(expr, parent_prec):
    if isinstance(expr, Const):
        value = expr.value
        if np.isinf(value):
            text = "-1e999" if value < 0 else "1e999"  # parses back to +-inf
        else:
            text = repr(int(value)) if value == int(value) else repr(value)
        if value < 0 and parent_prec >= 3:
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
