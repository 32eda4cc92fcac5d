"""Expression language for control-system right-hand sides.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' exponent)?
    base   := number | ident | '(' expr ')' | '-' base | func '(' expr ')'
    ident  := ('x' | 'u') digits
    func   := 'sin' | 'cos' | 'exp' | 'tanh'

State variables are ``x1..xn``, control variables ``u1..um``, both 1-indexed.
The exponent of ``^`` must reduce to a numeric constant (an optionally signed
or parenthesized literal), which keeps expressions continuously differentiable
away from division singularities and fractional powers of zero.  ``abs`` and
other nonsmooth primitives are deliberately absent.  Unary minus binds
tighter than ``^`` (``base := '-' base``): ``-x1^2`` is ``(-x1)^2``, which is
+0.49 at x1 = 0.7, and a negative square is written ``-(x1^2)``.

The module provides parsing with character-offset diagnostics, exact scalar
evaluation, forward-mode derivatives, a precedence-aware unparser whose output
reparses to the identical tree, and a vectorized numpy evaluator of component
lists that walks each tree once per batch.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "BinOp",
    "Call",
    "Const",
    "ControlVar",
    "EvalError",
    "Expr",
    "FUNCTIONS",
    "Neg",
    "ParseError",
    "Pow",
    "StateVar",
    "eval_field",
    "eval_expr",
    "eval_tangent",
    "is_c1_everywhere",
    "iter_nodes",
    "max_indices",
    "parse_expr",
    "unparse",
    "uses_control",
]

FUNCTIONS = ("sin", "cos", "exp", "tanh")


class ParseError(ValueError):
    """Malformed expression text; ``offset`` is the character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ArithmeticError):
    """Evaluation hit a singularity or a domain violation."""


@dataclass(frozen=True)
class Expr:
    """Immutable expression node."""


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class StateVar(Expr):
    index: int


@dataclass(frozen=True)
class ControlVar(Expr):
    index: int


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


# --- folding constructors -------------------------------------------------
#
# Used by structural rewrites (control-affine extraction, programmatic system
# building).  The parser itself preserves the written structure except for
# unary minus on literals, which must fold so negative constants survive an
# unparse/parse round trip.


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    return Neg(e)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value != 0.0:
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    if isinstance(a, Const) and a.value == 0.0 and not (isinstance(b, Const) and b.value == 0.0):
        return Const(0.0)
    return BinOp("/", a, b)


# --- tokenizer ------------------------------------------------------------

_NUMBER = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(
    rf"(?P<num>{_NUMBER})|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()])|(?P<ws>\s+)|(?P<bad>.)"
)
_VAR_RE = re.compile(r"([xu])([0-9]+)\Z")

_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        tokens.append((kind, match.group(), match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


# --- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            shown = text if text else "end of input"
            raise ParseError(f"expected {op!r}, found {shown!r}", offset)
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", offset)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at_op("*", "/"):
            op = self.advance()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.base()
        if self.at_op("^"):
            self.advance()
            _, _, offset = self.peek()
            exponent = self.base()
            if not isinstance(exponent, Const):
                raise ParseError("exponent must be a numeric constant", offset)
            node = Pow(node, exponent.value)
        return node

    def base(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            value = float(text)
            if math.isinf(value):
                raise ParseError("number out of range", offset)
            return Const(value)
        if kind == "name":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            match = _VAR_RE.match(text)
            if match:
                index = int(match.group(2))
                if index == 0:
                    raise ParseError("variable indices start at 1", offset)
                return StateVar(index) if match.group(1) == "x" else ControlVar(index)
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and text == "-":
            inner = self.base()
            # fold so that "-2" means the constant -2, not Neg(Const(2))
            return Const(-inner.value) if isinstance(inner, Const) else Neg(inner)
        shown = text if text else "end of input"
        raise ParseError(f"expected a number, variable, function or '(', found {shown!r}", offset)


def parse_expr(text: str) -> Expr:
    """Parse expression text into an AST, with offsets in error messages."""
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ParseError("empty expression", 0)
    return _Parser(tokens).parse()


# --- evaluation -----------------------------------------------------------

_SCALAR_FUNCS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "tanh": math.tanh,
}


def _pow_value(v: float, p: float) -> float:
    if v == 0.0 and p < 0.0:
        raise EvalError("zero base raised to a negative power")
    if v < 0.0 and not float(p).is_integer():
        raise EvalError("fractional power of a negative base")
    try:
        return v**p
    except OverflowError:
        raise EvalError("overflow in power") from None


def eval_expr(e: Expr, x: Sequence[float], u: Sequence[float]) -> float:
    """Evaluate at a single point; raises :class:`EvalError` on singularities."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, StateVar):
        return float(x[e.index - 1])
    if isinstance(e, ControlVar):
        return float(u[e.index - 1])
    if isinstance(e, Neg):
        return -eval_expr(e.arg, x, u)
    if isinstance(e, BinOp):
        a = eval_expr(e.lhs, x, u)
        b = eval_expr(e.rhs, x, u)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise EvalError("division by zero")
        return a / b
    if isinstance(e, Pow):
        return _pow_value(eval_expr(e.base, x, u), e.exponent)
    if isinstance(e, Call):
        v = eval_expr(e.arg, x, u)
        try:
            return _SCALAR_FUNCS[e.func](v)
        except OverflowError:
            raise EvalError(f"overflow in {e.func}") from None
    raise TypeError(f"not an expression node: {e!r}")


def eval_tangent(
    e: Expr,
    x: Sequence[float],
    u: Sequence[float],
    tx: Sequence,
    tu: Sequence,
) -> tuple[float, float | np.ndarray]:
    """Forward-mode value and derivative along the seeds (tx, tu) of x and u.

    Float seeds give one directional derivative: the scalar oracle that the
    finite-difference acceptance criterion checks.  With ndarray seeds, such
    as the rows of ``np.eye(n + m)``, each node carries a gradient row through
    the same arithmetic, bit for bit, so one walk yields a Jacobian row
    (vector forward mode, Griewank & Walther, *Evaluating Derivatives*, ch. 3).
    """
    if isinstance(e, Const):
        return e.value, 0.0
    if isinstance(e, StateVar):
        return float(x[e.index - 1]), tx[e.index - 1]
    if isinstance(e, ControlVar):
        return float(u[e.index - 1]), tu[e.index - 1]
    if isinstance(e, Neg):
        v, dv = eval_tangent(e.arg, x, u, tx, tu)
        return -v, -dv
    if isinstance(e, BinOp):
        a, da = eval_tangent(e.lhs, x, u, tx, tu)
        b, db = eval_tangent(e.rhs, x, u, tx, tu)
        if e.op == "+":
            return a + b, da + db
        if e.op == "-":
            return a - b, da - db
        if e.op == "*":
            return a * b, da * b + a * db
        if b * b == 0.0:  # b = 0, or so small that the derivative's b^2 underflows
            raise EvalError("division by zero")
        return a / b, (da * b - a * db) / (b * b)
    if isinstance(e, Pow):
        v, dv = eval_tangent(e.base, x, u, tx, tu)
        p = e.exponent
        value = _pow_value(v, p)
        if p == 0.0:
            return value, 0.0
        if v == 0.0 and p < 1.0:
            raise EvalError("power is not differentiable at zero base")
        return value, p * _pow_value(v, p - 1.0) * dv
    if isinstance(e, Call):
        v, dv = eval_tangent(e.arg, x, u, tx, tu)
        try:
            if e.func == "sin":
                return math.sin(v), math.cos(v) * dv
            if e.func == "cos":
                return math.cos(v), -math.sin(v) * dv
            if e.func == "exp":
                ev = math.exp(v)
                return ev, ev * dv
            th = math.tanh(v)
            return th, (1.0 - th * th) * dv
        except OverflowError:
            raise EvalError(f"overflow in {e.func}") from None
    raise TypeError(f"not an expression node: {e!r}")


# --- unparser -------------------------------------------------------------

_ADD_LEVEL, _MUL_LEVEL, _POW_LEVEL, _BASE_LEVEL = 0, 1, 2, 3


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _level(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _ADD_LEVEL if e.op in "+-" else _MUL_LEVEL
    if isinstance(e, Pow):
        return _POW_LEVEL
    return _BASE_LEVEL


def _fmt(e: Expr, context: int) -> str:
    if isinstance(e, Const):
        text = _fmt_number(e.value)
    elif isinstance(e, StateVar):
        text = f"x{e.index}"
    elif isinstance(e, ControlVar):
        text = f"u{e.index}"
    elif isinstance(e, Neg):
        text = f"-{_fmt(e.arg, _BASE_LEVEL)}"
    elif isinstance(e, BinOp):
        own = _level(e)
        text = f"{_fmt(e.lhs, own)} {e.op} {_fmt(e.rhs, own + 1)}"
    elif isinstance(e, Pow):
        text = f"{_fmt(e.base, _BASE_LEVEL)}^{_fmt_number(e.exponent)}"
    elif isinstance(e, Call):
        text = f"{e.func}({_fmt(e.arg, _ADD_LEVEL)})"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if _level(e) < context:
        return f"({text})"
    return text


def unparse(e: Expr) -> str:
    """Render an AST to text that reparses to the identical tree."""
    return _fmt(e, _ADD_LEVEL)


# --- structure helpers ----------------------------------------------------


def iter_nodes(e: Expr) -> Iterator[Expr]:
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, BinOp):
            stack.append(node.lhs)
            stack.append(node.rhs)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Call):
            stack.append(node.arg)


def max_indices(e: Expr) -> tuple[int, int]:
    """Largest state and control indices referenced by the expression."""
    max_x = max_u = 0
    for node in iter_nodes(e):
        if isinstance(node, StateVar):
            max_x = max(max_x, node.index)
        elif isinstance(node, ControlVar):
            max_u = max(max_u, node.index)
    return max_x, max_u

def uses_control(e: Expr) -> bool:
    return any(isinstance(node, ControlVar) for node in iter_nodes(e))


def is_c1_everywhere(e: Expr) -> bool:
    """True when no division or fractional power can break differentiability."""
    for node in iter_nodes(e):
        if isinstance(node, BinOp) and node.op == "/":
            return False
        if isinstance(node, Pow) and not (float(node.exponent).is_integer() and node.exponent >= 0):
            return False
    return True


# --- vectorized evaluation -----------------------------------------------

_BATCH_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_BATCH_FUNCS = {name: getattr(np, name) for name in FUNCTIONS}


def _eval_batch(e: Expr, x: np.ndarray, u: np.ndarray):
    # constants stay Python floats, so a constant subtree such as 1/0 raises;
    # the node classes have no subclasses, and `is` beats isinstance per node
    kind = type(e)
    if kind is BinOp:
        return _BATCH_BINARY[e.op](_eval_batch(e.lhs, x, u), _eval_batch(e.rhs, x, u))
    if kind is Const:
        return e.value
    if kind is StateVar:
        return x[..., e.index - 1]
    if kind is Pow:
        return _eval_batch(e.base, x, u) ** e.exponent
    if kind is Call:
        return _BATCH_FUNCS[e.func](_eval_batch(e.arg, x, u))
    if kind is Neg:
        return -_eval_batch(e.arg, x, u)
    if kind is ControlVar:
        return u[..., e.index - 1]
    raise TypeError(f"not an expression node: {e!r}")


def eval_field(components: Sequence[Expr], x, u) -> np.ndarray:
    """Evaluate components on a batch, by a vectorized walk of each tree.

    ``x`` has shape (..., n) and ``u`` shape (..., m); the result has shape
    (..., k) with k = len(components).  The batch shape is x's and u's
    leading axes, broadcast; a constant component, or one that reads only x
    or only u, broadcasts into it.  Singular points yield inf/nan entries
    instead of raising, which is what the batch callers (integration,
    covering search, span estimate) want; wrap calls in
    ``np.errstate(all="ignore")`` to silence the floating-point warnings.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    shape = x.shape[:-1]
    if u.shape[:-1] != shape:  # every internal caller passes one batch shape for both
        shape = np.broadcast_shapes(shape, u.shape[:-1])
    out = np.empty(shape + (len(components),))
    for i, c in enumerate(components):
        out[..., i] = _eval_batch(c, x, u)
    return out
