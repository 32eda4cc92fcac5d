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
lists that walks each tree once per batch, or reads a term plan's affine
terms as coefficients and walks only the rest.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Iterator, NamedTuple, Sequence

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
    "TermPlan",
    "eval_components",
    "eval_field",
    "eval_expr",
    "eval_gradients",
    "eval_tangent",
    "is_c1_everywhere",
    "iter_nodes",
    "max_indices",
    "parse_expr",
    "term_plan",
    "unparse",
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


# --- tokenizer and parser -------------------------------------------------

_NUMBER = r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
# one token per match, its leading whitespace folded in; any other character
# is a token of its own, which the parser rejects as unexpected
_TOKEN_RE = re.compile(rf"\s*({_NUMBER}|[A-Za-z][A-Za-z0-9]*|\S)")
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_TOKEN_STARTS = _DIGITS | _LETTERS | frozenset("+-*/^()")
# shared leaves for x1..x50 and u1..u50; a larger index gets a node of its own
_VARIABLES = {f"{name}{i}": kind(i) for name, kind in (("x", StateVar), ("u", ControlVar))
              for i in range(1, 51)}


class _Unparsed(Exception):
    """A parse error at a token index, located in the text by parse_expr."""


def _parse(tokens: list[str]) -> Expr:
    # One pass over the tokens, left to right, with the recursive-descent
    # grammar's precedence kept as state: a pending sum, a pending product, a
    # base awaiting its exponent and a count of unary minuses.  A "(" or a
    # call saves that state on a stack, so nesting costs no stack frames.
    stack: list[tuple] = []
    call = sum_op = sum_lhs = prod_op = prod_lhs = power = power_at = None
    negs = i = 0
    while True:
        tok = tokens[i]
        i += 1
        if tok in _VARIABLES:
            node = _VARIABLES[tok]
        elif tok[:1] in _DIGITS:
            value = float(tok)
            if value == math.inf:
                raise _Unparsed("number out of range", i - 1)
            node = Const(value)
        elif tok == "-":
            negs += 1
            continue
        elif tok == "(" or tok in FUNCTIONS:
            if tok != "(":
                if tokens[i] != "(":
                    raise _Unparsed(f"expected '(', found {tokens[i] or 'end of input'!r}", i)
                i += 1
            stack.append((call, sum_op, sum_lhs, prod_op, prod_lhs, power, power_at, negs))
            call = tok
            sum_op = prod_op = power = None
            negs = 0
            continue
        elif tok[:1] in _LETTERS:
            if tok[0] not in "xu" or not tok[1:].isdigit():
                raise _Unparsed(f"unknown identifier {tok!r}", i - 1)
            index = int(tok[1:])
            if index == 0:
                raise _Unparsed("variable indices start at 1", i - 1)
            node = StateVar(index) if tok[0] == "x" else ControlVar(index)
        else:
            raise _Unparsed("expected a number, variable, function or '(', "
                            f"found {tok or 'end of input'!r}", i - 1)
        while True:  # node is a complete base
            while negs:
                # fold so that "-2" means the constant -2, not Neg(Const(2))
                node = Const(-node.value) if type(node) is Const else Neg(node)
                negs -= 1
            tok = tokens[i]
            if power is not None:
                if type(node) is not Const:
                    raise _Unparsed("exponent must be a numeric constant", power_at)
                node = Pow(power, node.value)
                power = None
            elif tok == "^":
                power, power_at = node, i + 1
                i += 1
                break
            if prod_op is not None:
                node = BinOp(prod_op, prod_lhs, node)
                prod_op = None
            if tok == "*" or tok == "/":
                prod_op, prod_lhs = tok, node
                i += 1
                break
            if sum_op is not None:
                node = BinOp(sum_op, sum_lhs, node)
                sum_op = None
            if tok == "+" or tok == "-":
                sum_op, sum_lhs = tok, node
                i += 1
                break
            if not stack:
                if tok:
                    raise _Unparsed(f"unexpected token {tok!r}", i)
                return node
            if tok != ")":
                raise _Unparsed(f"expected ')', found {tok or 'end of input'!r}", i)
            i += 1
            if call != "(":
                node = Call(call, node)
            call, sum_op, sum_lhs, prod_op, prod_lhs, power, power_at, negs = stack.pop()


def parse_expr(text: str) -> Expr:
    """Parse expression text into an AST, with offsets in error messages."""
    # without endpos, each trailing space would start a match that fails at the end
    end = len(text.rstrip())
    tokens = _TOKEN_RE.findall(text, 0, end)
    if not tokens:
        raise ParseError("empty expression", 0)
    tokens.append("")  # end of input
    try:
        return _parse(tokens)
    except _Unparsed as err:
        message, index = err.args
    # the whole text is tokenized before it is parsed: its first unexpected
    # character is the error, wherever the parse stopped
    starts = []
    for match in _TOKEN_RE.finditer(text, 0, end):
        if match.group(1)[0] not in _TOKEN_STARTS:
            raise ParseError(f"unexpected character {match.group(1)!r}", match.start(1))
        starts.append(match.start(1))
    starts.append(len(text))
    raise ParseError(message, starts[index])


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
    kind = type(e)
    if kind is BinOp:
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
    if kind is Const:
        return e.value
    if kind is StateVar:
        return float(x[e.index - 1])
    if kind is Pow:
        return _pow_value(eval_expr(e.base, x, u), e.exponent)
    if kind is Call:
        v = eval_expr(e.arg, x, u)
        try:
            return _SCALAR_FUNCS[e.func](v)
        except OverflowError:
            raise EvalError(f"overflow in {e.func}") from None
    if kind is Neg:
        return -eval_expr(e.arg, x, u)
    if kind is ControlVar:
        return float(u[e.index - 1])
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
    kind = type(e)
    if kind is BinOp:
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
    if kind is Const:
        return e.value, 0.0
    if kind is StateVar:
        return float(x[e.index - 1]), tx[e.index - 1]
    if kind is Pow:
        v, dv = eval_tangent(e.base, x, u, tx, tu)
        p = e.exponent
        value = _pow_value(v, p)
        if p == 0.0:
            return value, 0.0
        if v == 0.0 and p < 1.0:
            raise EvalError("power is not differentiable at zero base")
        return value, p * _pow_value(v, p - 1.0) * dv
    if kind is Call:
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
    if kind is Neg:
        v, dv = eval_tangent(e.arg, x, u, tx, tu)
        return -v, -dv
    if kind is ControlVar:
        return float(u[e.index - 1]), tu[e.index - 1]
    raise TypeError(f"not an expression node: {e!r}")


# --- unparser -------------------------------------------------------------

_ADD_LEVEL, _MUL_LEVEL, _POW_LEVEL, _BASE_LEVEL = 0, 1, 2, 3


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt(e: Expr, context: int) -> str:
    # base-level nodes never need parentheses: no context exceeds _BASE_LEVEL
    kind = type(e)
    if kind is BinOp:
        own = _ADD_LEVEL if e.op in "+-" else _MUL_LEVEL
        text = f"{_fmt(e.lhs, own)} {e.op} {_fmt(e.rhs, own + 1)}"
        return f"({text})" if own < context else text
    if kind is Const:
        return _fmt_number(e.value)
    if kind is StateVar:
        return f"x{e.index}"
    if kind is Pow:
        text = f"{_fmt(e.base, _BASE_LEVEL)}^{_fmt_number(e.exponent)}"
        return f"({text})" if _POW_LEVEL < context else text
    if kind is Call:
        return f"{e.func}({_fmt(e.arg, _ADD_LEVEL)})"
    if kind is Neg:
        return f"-{_fmt(e.arg, _BASE_LEVEL)}"
    if kind is ControlVar:
        return f"u{e.index}"
    raise TypeError(f"not an expression node: {e!r}")


def unparse(e: Expr) -> str:
    """Render an AST to text that reparses to the identical tree."""
    return _fmt(e, _ADD_LEVEL)


# --- structure helpers ----------------------------------------------------


def iter_nodes(e: Expr) -> Iterator[Expr]:
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        kind = type(node)
        if kind is BinOp:
            stack += node.lhs, node.rhs
        elif kind is Neg or kind is Call:
            stack.append(node.arg)
        elif kind is Pow:
            stack.append(node.base)


def max_indices(e: Expr) -> tuple[int, int]:
    """Largest state and control indices referenced by the expression."""
    nodes = list(iter_nodes(e))
    return (max((v.index for v in nodes if type(v) is StateVar), default=0),
            max((v.index for v in nodes if type(v) is ControlVar), default=0))


def is_c1_everywhere(e: Expr) -> bool:
    """True when no division or fractional power can break differentiability."""
    for node in iter_nodes(e):
        if type(node) is BinOp and node.op == "/":
            return False
        if type(node) is Pow and not (float(node.exponent).is_integer() and node.exponent >= 0):
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


def eval_components(components: Sequence[Expr], x: np.ndarray, u: np.ndarray) -> Iterator:
    """Each component's walk of :func:`eval_field`, in order; a constant yields a float."""
    for c in components:
        yield _eval_batch(c, x, u)


def eval_field(components: Sequence[Expr] | TermPlan, x, u) -> np.ndarray:
    """Evaluate components on a batch, by a vectorized walk of each tree.

    ``x`` has shape (..., n) and ``u`` shape (..., m); the result has shape
    (..., k) with k = len(components).  The batch shape is x's and u's
    leading axes, broadcast; a constant component, or one that reads only x
    or only u, broadcasts into it.  Singular points yield inf/nan entries
    instead of raising, which is what the batch callers (integration,
    covering search, span estimate) want; wrap calls in
    ``np.errstate(all="ignore")`` to silence the floating-point warnings.

    A :class:`TermPlan` with enough affine terms is read by position
    instead, with the same result bit for bit (a nan may differ in its sign
    bit); with fewer, the walk is the cheaper of the two and is taken.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    shape = x.shape[:-1]
    if u.shape[:-1] != shape:  # every internal caller passes one batch shape for both
        shape = np.broadcast_shapes(shape, u.shape[:-1])
    if isinstance(components, TermPlan):
        if components.affine_terms >= _PLAN_MIN_AFFINE_TERMS:
            out = _plan_field(components, x, u, shape)
            if out is not None:
                return out
        components = components.components
    out = np.empty(shape + (len(components),))
    for i, column in enumerate(eval_components(components, x, u)):
        out[..., i] = column
    return out


# --- term plans -----------------------------------------------------------
#
# Most nodes of a generated system sit in affine chains such as
# ``c1*x1 + ... + c50*x50 + u1``, whose coefficients are the Jacobian row.  A
# term plan unrolls each component's left-associated +/- spine into ordered
# positions.  A term ``c*v``, ``v*c`` or a bare ``v`` (v a state or control)
# becomes a coefficient and a column of [x | u]; every other term, a tail,
# stays a tree and is walked at its position.  Shorter spines are padded with
# -0.0, since a + (-0.0) is a, bit for bit.  Adding the positions in order
# repeats the walk's left-to-right sums.

# eval_field reads a plan from this many affine terms on; below it, the walk
# is cheaper: per position, the plan pays a few numpy calls whatever the
# number of components, which n <= 4 chains and shifted c*(xj - d) tails do
# not repay.  Dense systems reach it from n = 6 (42 affine terms) up.
_PLAN_MIN_AFFINE_TERMS = 32


class TermPlan(NamedTuple):
    """Components unrolled into spine positions; built by :func:`term_plan`.

    Entry [t, i] of the (positions, k) tables describes the t-th term of
    component i.  An affine term multiplies column ``columns[t, i]`` of
    [x | u | -0.0] by ``coefficients[t, i]``, which is 1.0 for a bare
    variable (``bare[t, i]``).  A tail or a pad reads the -0.0 column with
    coefficient 1.0, and a tail's walk replaces that value.  The spine's
    sign (+1 or -1) is kept apart in ``signs``: a derivative's signed zeros
    depend on where it is applied.  ``tails`` lists (component, position,
    tree) in the walk's order, and ``max_indices`` the largest state and
    control index of each component.  A spec keeps its plan, so the tables
    use the smallest integer types that hold them.
    """

    components: tuple[Expr, ...]
    n: int
    m: int
    max_indices: tuple[tuple[int, int], ...]
    affine_terms: int
    columns: np.ndarray
    bare: np.ndarray
    coefficients: np.ndarray
    signs: np.ndarray
    tails: tuple[tuple[int, int, Expr], ...]


def _spine(e: Expr) -> list[tuple[int, Expr]]:
    """The (sign, term) pairs of e's left-associated +/- spine, in order."""
    terms = []
    while type(e) is BinOp and (e.op == "+" or e.op == "-"):
        terms.append((1 if e.op == "+" else -1, e.rhs))
        e = e.lhs
    terms.append((1, e))
    return terms[::-1]


def term_plan(components: Sequence[Expr], n: int, m: int) -> TermPlan:
    """Unroll components in x1..xn, u1..um into a :class:`TermPlan`.

    A variable beyond n or m is kept as a tail; ``max_indices`` shows it, for
    the caller to reject.
    """
    pad = n + m
    # per component, then transposed into (positions, k) tables over the pad
    columns, coefficients, signs, bare = [], [], [], []
    tails, indices = [], []
    for i, comp in enumerate(components):
        spine = _spine(comp)
        signs.append([sign for sign, _ in spine])
        column_list, coefficient_list, bare_list = [], [], []
        max_x = max_u = 0
        for t, (_, term) in enumerate(spine):
            var, coef = term, 1.0
            if type(term) is BinOp and term.op == "*":
                if type(term.lhs) is Const:
                    var, coef = term.rhs, term.lhs.value
                elif type(term.rhs) is Const:
                    var, coef = term.lhs, term.rhs.value
            kind = type(var)
            if kind is StateVar and var.index <= n:
                column = var.index - 1
                if var.index > max_x:
                    max_x = var.index
            elif kind is ControlVar and var.index <= m:
                column = n + var.index - 1
                if var.index > max_u:
                    max_u = var.index
            else:
                tails.append((i, t, term))
                tail_x, tail_u = max_indices(term)
                max_x, max_u = max(max_x, tail_x), max(max_u, tail_u)
                var, column, coef = None, pad, 1.0
            column_list.append(column)
            coefficient_list.append(coef)
            bare_list.append(var is term)
        columns.append(column_list)
        coefficients.append(coefficient_list)
        bare.append(bare_list)
        indices.append((max_x, max_u))
    shape = (max(map(len, signs), default=0), len(signs))

    def table(lists, fill, dtype):
        return np.array(list(zip_longest(*lists, fillvalue=fill)), dtype=dtype).reshape(shape)

    return TermPlan(tuple(components), n, m, tuple(indices), sum(map(len, columns)) - len(tails),
                    table(columns, pad, np.min_scalar_type(pad)), table(bare, False, bool),
                    table(coefficients, 1.0, float), table(signs, 1, np.int8), tuple(tails))


def _by_position(plan: TermPlan, values: list) -> dict[int, list]:
    """The tails' values as {position: [(component, value), ...]}."""
    at: dict[int, list] = {}
    for (i, t, _), value in zip(plan.tails, values):
        at.setdefault(t, []).append((i, value))
    return at


def _plan_field(plan: TermPlan, x: np.ndarray, u: np.ndarray, shape: tuple) -> np.ndarray | None:
    """:func:`eval_field` by the plan's positions; None where the walk must decide."""
    n, m = plan.n, plan.m
    z = np.empty(shape + (n + m + 1,))
    z[..., :n] = x
    z[..., n:-1] = u
    z[..., -1] = -0.0
    # tails first, in the walk's order, so that a raising constant subtree
    # raises the walk's error
    values = [_eval_batch(tree, x, u) for _, _, tree in plan.tails]
    if complex in map(type, values):
        # a negative constant to a fractional power: left to the walk's casts
        return None
    tails_at = _by_position(plan, values)
    # a - b is a + (-b) bit for bit, and the field's terms, unlike their
    # derivatives, have no part that the sign leaves alone
    coefs = plan.coefficients * plan.signs
    total = None
    for t, columns in enumerate(plan.columns.astype(np.intp)):
        terms = z[..., columns]
        terms *= coefs[t]
        for i, value in tails_at.get(t, ()):
            terms[..., i] = value if plan.signs[t, i] > 0 else -value
        if total is None:
            total = terms
        else:
            total += terms
    return total


class _UnitRows:
    """The width-wide identity's rows at the given columns, each made when read."""

    def __init__(self, columns: range, width: int):
        self.columns, self.width = columns, width

    def __getitem__(self, i: int) -> np.ndarray:
        row = np.zeros(self.width)
        row[self.columns[i]] = 1.0
        return row


def eval_gradients(plan: TermPlan, x: Sequence[float], u: Sequence[float]) -> np.ndarray:
    """The (k, n + m) gradient rows of the plan's components at one point.

    Position t gives each row ``(0.0 * v) + c * e`` for a term ``c*v`` whose
    variable has seed row e, e itself for a bare v, and the tail's
    :func:`eval_tangent` slope for a tail.  Adding the positions with their
    spine signs repeats the vector walk of each whole tree bit for bit,
    signed zeros included, and raises its first error.
    """
    n, m = plan.n, plan.m
    width = n + m
    z = np.array(tuple(x) + tuple(u) + (-0.0,))
    # the column that the 0.0 * v part of the derivative of c*v reads; a bare
    # variable has no such part and reads the -0.0 column
    columns = plan.columns.astype(np.intp)
    zero_columns = np.where(plan.bare, width, columns)
    # the identity's rows for the columns in use, and a -0.0 row that tails
    # and pads read; the whole identity would take (n + m)^2 floats, and a
    # tail's walk makes its variables' rows as it reaches them
    used = np.zeros(width + 1, dtype=bool)
    used[columns] = True
    kept = np.flatnonzero(used)
    seeds = np.where(kept[:, None] == width, -0.0, kept[:, None] == np.arange(width))
    seed_of = (np.cumsum(used) - 1)[columns]
    states, controls = _UnitRows(range(n), width), _UnitRows(range(n, width), width)
    slopes_at = _by_position(plan, [eval_tangent(tree, x, u, states, controls)[1]
                                    for _, _, tree in plan.tails])
    rows = None
    for t in range(len(columns)):
        terms = seeds[seed_of[t]]
        terms *= plan.coefficients[t, :, None]
        terms += (0.0 * z[zero_columns[t]])[:, None]
        for i, slope in slopes_at.get(t, ()):
            terms[i] = slope
        terms *= plan.signs[t, :, None]
        if rows is None:
            rows = terms
        else:
            rows += terms
    return rows
