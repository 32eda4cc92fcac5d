"""Expression language: parsing, evaluation, differentiation, batch evaluation."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen
from perfbench.workloads import cold_cli_systems, large_systems, validate_systems
from stabkit import expr as ex
from stabkit.system import parse_system

FD_STEP = 1e-5
FD_REL_TOL = 1e-6


def test_parse_shapes():
    e = ex.parse_expr("x1^3 + x2")
    assert e == ex.BinOp("+", ex.Pow(ex.StateVar(1), 3.0), ex.StateVar(2))
    assert ex.parse_expr("u1/x1") == ex.BinOp("/", ex.ControlVar(1), ex.StateVar(1))
    assert ex.parse_expr("-2.5*x1") == ex.BinOp("*", ex.Const(-2.5), ex.StateVar(1))
    assert ex.parse_expr("sin(x1)") == ex.Call("sin", ex.StateVar(1))


def test_unary_minus_folds_into_literals_only():
    assert ex.parse_expr("-3") == ex.Const(-3.0)
    assert ex.parse_expr("-x1") == ex.Neg(ex.StateVar(1))


def test_whitespace_insignificant():
    assert ex.parse_expr(" x1 ^ 3+ x2 ") == ex.parse_expr("x1^3+x2")
    # trailing spaces and newlines, tabs, and Unicode spaces such as U+00A0
    for text in ("x1 + x2   ", "x1 + x2\n", "x1\t+\nx2", "x1\xa0+\xa0x2"):
        assert ex.parse_expr(text) == ex.BinOp("+", ex.StateVar(1), ex.StateVar(2))


@pytest.mark.parametrize(
    "text",
    [
        "x1^3 + x2",
        "u1",
        "0.1*x1 + x2^2 + u1",
        "sin(x1)*cos(x2) - exp(u1)",
        "tanh(x1 - 2*u1)^3",
        "-(x1 + u1)*x2",
        "x1/(2 + cos(x2))",
        "1.5*x1 + u1 + x1^2",
        "x1^0.5",
        "2^2",
    ],
)
def test_round_trip(text):
    tree = ex.parse_expr(text)
    assert ex.parse_expr(ex.unparse(tree)) == tree


def test_unparsed_components_of_examples_and_generated_draws_are_pinned(examples_dir):
    # sha256 of unparse(parse_expr(c)) over every component c of the examples
    # and of the seed 0-1 generator draws, one line each, as the recursive-
    # descent parser of commit 0b8086c gave it.  Float repr is the same on
    # every platform, so the hash is too
    texts = [path.read_text() for path in sorted(examples_dir.glob("*.stab"))]
    texts += [g.text for seed in (0, 1)
              for draws in (large_systems, cold_cli_systems, validate_systems)
              for g in draws(seed, False)]
    lines = [ex.unparse(c) for text in texts for c in parse_system(text).components]
    assert len(lines) == 1512
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "fd35c08c37e865ef34c0828288911de79d2cca8db559a8b4805feadae7129a50")


def test_unparse_known_strings():
    assert ex.unparse(ex.parse_expr("-(x1+u1)*x2")) == "-(x1 + u1) * x2"
    assert ex.unparse(ex.parse_expr("sin(x1)^2*cos(u1)")) == "sin(x1)^2 * cos(u1)"
    assert ex.unparse(ex.parse_expr("x1 - (x2 - u1)")) == "x1 - (x2 - u1)"


@pytest.mark.parametrize(
    "text, message_part, offset",
    [
        ("x1^x2", "exponent must be a numeric constant", 3),
        ("y1 + 2", "unknown identifier", 0),
        ("x1 +", "end of input", None),
        ("(x1", "expected ')'", None),
        ("x1 x2", "unexpected", None),
        ("", "empty", None),
        ("sin()", "found ')'", None),
        ("x0", "indices start at 1", None),
        ("1e999", "number out of range", 0),
        ("x1 + u1 + 1e999 - 1e999", "number out of range", 10),
        # offsets count whitespace: trailing, and before a token after a tab or newline
        ("x1 x2  \n", "unexpected token 'x2'", 3),
        ("(x1\n", "expected ')', found 'end of input'", 4),
        ("x1 +   ", "found 'end of input'", 7),
        ("x1 +\tx0", "indices start at 1", 5),
        ("x1\n x2", "unexpected token 'x2'", 4),
        # the whole text is tokenized first, so a bad character wins over an earlier error
        ("x1 + * $", "unexpected character '$'", 7),
        ("sin x1", "expected '(', found 'x1'", 4),
        # a number is ASCII digits only: U+0663 (Arabic-Indic three) is not one
        ("\u0663*x1", "unexpected character '\u0663'", 0),
    ],
)
def test_parse_errors(text, message_part, offset):
    with pytest.raises(ex.ParseError) as info:
        ex.parse_expr(text)
    assert message_part in str(info.value)
    if offset is not None:
        assert info.value.offset == offset


def test_eval_basics():
    e = ex.parse_expr("x1^3 + x2")
    assert ex.eval_expr(e, [2.0, 5.0], []) == 13.0
    e = ex.parse_expr("sin(x1) + exp(u1)")
    assert ex.eval_expr(e, [0.3], [0.7]) == pytest.approx(math.sin(0.3) + math.exp(0.7))
    # unary minus binds tighter than ^: -x1^2 is (-x1)^2, -(x1^2) the negative square
    assert ex.parse_expr("-x1^2") == ex.Pow(ex.Neg(ex.StateVar(1)), 2.0)
    assert ex.eval_expr(ex.parse_expr("-x1^2"), [0.7], []) == pytest.approx(0.49)
    assert ex.eval_expr(ex.parse_expr("-(x1^2)"), [0.7], []) == pytest.approx(-0.49)


def test_eval_division_by_zero():
    e = ex.parse_expr("u1/x1")
    with pytest.raises(ex.EvalError):
        ex.eval_expr(e, [0.0], [1.0])


def test_eval_pow_domain_errors():
    with pytest.raises(ex.EvalError):
        ex.eval_expr(ex.parse_expr("x1^0.5"), [-1.0], [])
    with pytest.raises(ex.EvalError):
        ex.eval_expr(ex.parse_expr("x1^-1"), [0.0], [])


def test_tangent_quotient_rule():
    e = ex.parse_expr("x1/x2")
    value, deriv = ex.eval_tangent(e, [3.0, 2.0], [], [1.0, 0.0], [])
    assert value == pytest.approx(1.5)
    assert deriv == pytest.approx(0.5)
    value, deriv = ex.eval_tangent(e, [3.0, 2.0], [], [0.0, 1.0], [])
    assert deriv == pytest.approx(-0.75)


def test_tangent_fractional_power_at_zero_rejected():
    e = ex.parse_expr("x1^0.5")
    with pytest.raises(ex.EvalError):
        ex.eval_tangent(e, [0.0], [], [1.0], [])


def _random_expr(rng, n, m, depth):
    """Grammar-random expression; denominators are kept away from zero."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.4:
            return ex.StateVar(int(rng.integers(1, n + 1)))
        if roll < 0.7 and m > 0:
            return ex.ControlVar(int(rng.integers(1, m + 1)))
        return ex.Const(round(float(rng.uniform(-2.0, 2.0)), 3))
    roll = rng.random()
    if roll < 0.45:
        op = rng.choice(["+", "-", "*"])
        return ex.BinOp(op, _random_expr(rng, n, m, depth - 1),
                        _random_expr(rng, n, m, depth - 1))
    if roll < 0.55:
        safe = ex.BinOp("+", ex.Const(2.5), ex.Call("cos", _random_expr(rng, n, m, depth - 1)))
        return ex.BinOp("/", _random_expr(rng, n, m, depth - 1), safe)
    if roll < 0.75:
        return ex.Call(str(rng.choice(["sin", "cos", "exp", "tanh"])),
                       _random_expr(rng, n, m, depth - 1))
    return ex.Pow(_random_expr(rng, n, m, depth - 1), float(rng.integers(2, 4)))


def test_tangent_matches_central_differences():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        tree = _random_expr(rng, n, m, depth=3)
        x = rng.uniform(-0.5, 0.5, n)
        u = rng.uniform(-0.5, 0.5, m)
        seeds = [(i, True) for i in range(n)] + [(j, False) for j in range(m)]
        for idx, is_state in seeds:
            tx = np.zeros(n)
            tu = np.zeros(m)
            xp, xm = x.copy(), x.copy()
            up, um = u.copy(), u.copy()
            if is_state:
                tx[idx] = 1.0
                xp[idx] += FD_STEP
                xm[idx] -= FD_STEP
            else:
                tu[idx] = 1.0
                up[idx] += FD_STEP
                um[idx] -= FD_STEP
            try:
                _, ad = ex.eval_tangent(tree, x, u, tx, tu)
                fd = (ex.eval_expr(tree, xp, up) - ex.eval_expr(tree, xm, um)) / (2 * FD_STEP)
            except ex.EvalError:
                break
            assert abs(ad - fd) <= FD_REL_TOL * max(1.0, abs(ad)), ex.unparse(tree)
        else:
            checked += 1


def test_eval_field_matches_eval_expr():
    rng = np.random.default_rng(3)
    comps = [ex.parse_expr(t) for t in ("x1^3 + x2", "sin(x1)*u1", "x2/(2 + cos(x1))")]
    xs = rng.uniform(-1.0, 1.0, (40, 2))
    us = rng.uniform(-1.0, 1.0, (40, 1))
    with np.errstate(all="ignore"):
        batch = ex.eval_field(comps, xs, us)
        # one control row broadcasts over the batch of states
        shared = ex.eval_field(comps, xs, us[0])
        repeated = ex.eval_field(comps, xs, np.repeat(us[:1], 40, axis=0))
        # and a batch of controls over the leading axis of stacked states
        stacked = ex.eval_field(comps, xs.reshape(4, 10, 2), us[:10])
        tiled = ex.eval_field(comps, xs, np.tile(us[:10], (4, 1)))
    assert batch.shape == (40, 3)
    assert shared.tobytes() == repeated.tobytes()
    assert stacked.shape == (4, 10, 3)
    assert stacked.tobytes() == tiled.tobytes()
    for row in range(40):
        for j, comp in enumerate(comps):
            assert batch[row, j] == pytest.approx(ex.eval_expr(comp, xs[row], us[row]), abs=1e-14)


def test_eval_field_gives_inf_and_nan_at_singular_points():
    comps = [ex.parse_expr(t) for t in ("x1/x2", "x1^0.5", "x2^-1", "exp(x1*1000)", "-2^2 + x1")]
    xs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [-4.0, -0.0], [2.0, 1.0]])
    with np.errstate(all="ignore"):
        values = ex.eval_field(comps, xs, np.zeros((5, 1)))
    inf, nan = math.inf, math.nan
    np.testing.assert_array_equal(values.T, [
        [inf, -inf, nan, inf, 2.0],
        [1.0, nan, 0.0, nan, math.sqrt(2.0)],
        [inf, inf, inf, -inf, 1.0],
        [inf, 0.0, 1.0, 0.0, inf],
        # a negative literal raised to a power is (-2)^2, as eval_expr reads it
        [5.0, 3.0, 4.0, 0.0, 6.0],
    ])


def test_eval_field_raises_where_a_constant_subtree_raises():
    # a constant subtree is Python float arithmetic, which raises, as it did
    # in the generated-source evaluator this walk replaced
    for text in ("x1 + 1/0", "x1 + 0^-1"):
        with pytest.raises(ZeroDivisionError):
            ex.eval_field([ex.parse_expr(text)], np.zeros(1), np.zeros(1))


# --- properties over grammar-generated text ------------------------------

_NUMBERS = st.one_of(st.integers(0, 1000).map(str),
                     st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False).map(repr))
_VARIABLES = st.sampled_from(["x1", "x2", "x3", "u1", "u2"])
_EXPONENTS = st.sampled_from(["0", "1", "2", "3", "-1", "(-2)", "0.5", "1.5"])


def _expression_texts(arithmetic_only: bool):
    """Text from the grammar: + - * / unary minus and parentheses, then ^ and calls."""

    def extend(inner):
        forms = [
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
            inner.map(lambda t: f"({t})"),
            inner.map(lambda t: f"-{t}"),
        ]
        if not arithmetic_only:
            forms += [
                st.tuples(st.sampled_from(ex.FUNCTIONS), inner).map(lambda p: f"{p[0]}({p[1]})"),
                st.tuples(inner, _EXPONENTS).map(lambda p: f"({p[0]})^{p[1]}"),
                st.tuples(_VARIABLES, _EXPONENTS).map("^".join),
            ]
        return st.one_of(forms)

    return st.recursive(st.one_of(_NUMBERS, _VARIABLES), extend, max_leaves=12)


# (x1, x2, x3, u1, u2) rows
_POINTS = st.lists(st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5), min_size=1, max_size=4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=_expression_texts(arithmetic_only=False))
def test_unparse_round_trips_every_parsed_tree(text):
    tree = ex.parse_expr(text)
    assert ex.parse_expr(ex.unparse(tree)) == tree


def _field_values(tree, points):
    """eval_field's values on the rows, or None where a constant subtree
    (such as 1/0) raises for every row."""
    xs, us = points[:, :3], points[:, 3:]
    with np.errstate(all="ignore"), warnings.catch_warnings():
        # a negative constant to a fractional power is complex; the cast warns
        warnings.simplefilter("ignore")
        try:
            return ex.eval_field([tree], xs, us)[:, 0]
        except (ZeroDivisionError, OverflowError):
            return None


def _finite_eval(tree, row):
    try:
        value = ex.eval_expr(tree, row[:3], row[3:])
    except ex.EvalError:
        return None
    return value if math.isfinite(value) else None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=_expression_texts(arithmetic_only=True), points=_POINTS)
def test_eval_field_arithmetic_is_bit_identical_to_eval_expr(text, points):
    tree, points = ex.parse_expr(text), np.array(points)
    values = _field_values(tree, points)
    for k, row in enumerate(points):
        want = _finite_eval(tree, row)
        if values is None:
            assert want is None
        elif want is not None:
            assert values[k].tobytes() == np.float64(want).tobytes(), ex.unparse(tree)


# Relative error allowed to each operation of either evaluation.  numpy's
# vectorized sin, cos, exp, tanh and power and libm's scalar ones differ by a
# few ulps (~1e-15); 1e-13 leaves room.  No fixed rtol on the result would
# hold: cancellation in + and -, or a small divisor, turns one ulp inside the
# tree into any relative error at its root.  So the budget is carried
# through the tree to a first-order bound on each evaluation's error, and the
# two may differ by twice that.  The absolute part covers subnormal results.
OP_REL_ERROR = 1e-13
OP_ABS_ERROR = 1e-300


def _value_and_error_bound(e, x, u):
    if isinstance(e, ex.Const):
        return e.value, 0.0
    if isinstance(e, (ex.StateVar, ex.ControlVar)):
        return ex.eval_expr(e, x, u), 0.0
    if isinstance(e, ex.Neg):
        v, err = _value_and_error_bound(e.arg, x, u)
        return -v, err
    if isinstance(e, ex.BinOp):
        a, ea = _value_and_error_bound(e.lhs, x, u)
        b, eb = _value_and_error_bound(e.rhs, x, u)
        if e.op in "+-":
            v, err = (a + b if e.op == "+" else a - b), ea + eb
        elif e.op == "*":
            v, err = a * b, ea * abs(b) + eb * abs(a) + ea * eb
        else:
            v = a / b
            err = (ea + abs(v) * eb) / (abs(b) - eb) if eb < abs(b) else math.inf
    elif isinstance(e, ex.Pow):
        w, ew = _value_and_error_bound(e.base, x, u)
        p = e.exponent
        v = w**p
        # |d(w^p)/dw| = |p| |w|^(p - 1), largest over |w| +- ew at one end
        near = abs(w) + ew if p >= 1.0 else abs(w) - ew
        if ew == 0.0 or p == 0.0:
            err = 0.0
        else:
            err = abs(p) * near ** (p - 1.0) * ew if near > 0.0 else math.inf
    else:
        w, ew = _value_and_error_bound(e.arg, x, u)
        v = getattr(math, e.func)(w)
        # sin, cos and tanh are 1-Lipschitz; exp grows by the factor e^ew
        err = abs(v) * math.expm1(min(ew, 700.0)) if e.func == "exp" else ew
    return v, err + OP_REL_ERROR * abs(v) + OP_ABS_ERROR


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=_expression_texts(arithmetic_only=False), points=_POINTS)
def test_eval_field_agrees_with_eval_expr_within_the_error_bound(text, points):
    tree, points = ex.parse_expr(text), np.array(points)
    values = _field_values(tree, points)
    for k, row in enumerate(points):
        want = _finite_eval(tree, row)
        if values is None:
            assert want is None
        elif want is not None:
            _, bound = _value_and_error_bound(tree, row[:3], row[3:])
            # a nan bound (inf - inf inside the tree) checks nothing, like an inf one
            assert not abs(values[k] - want) > 2.0 * bound, ex.unparse(tree)


def test_is_c1_everywhere_flags_division():
    assert not ex.is_c1_everywhere(ex.parse_expr("x1/x2"))
    assert ex.is_c1_everywhere(ex.parse_expr("sin(x1) + x2^3"))
    # fractional powers are not C1 at zero
    assert not ex.is_c1_everywhere(ex.parse_expr("x1^0.5"))


def test_max_indices():
    assert ex.max_indices(ex.parse_expr("x3 + u2*sin(x1)")) == (3, 2)
    assert ex.max_indices(ex.parse_expr("x1^2")) == (1, 0)
    # every node kind: a constant, a negation, a call, a power and a division
    assert ex.max_indices(ex.parse_expr("2.5")) == (0, 0)
    assert ex.max_indices(ex.parse_expr("-(u3)^2 + cos(x5/u1) - 7*x2")) == (5, 3)


# --- term plans -----------------------------------------------------------

_SPECIAL_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan)
_COEFFICIENTS = st.one_of(_NUMBERS, _NUMBERS.map("-{}".format))
_PLAN_TERMS = st.one_of(
    st.tuples(_COEFFICIENTS, _VARIABLES).map("*".join),
    st.tuples(_VARIABLES, _COEFFICIENTS).map("*".join),
    _VARIABLES,
    _COEFFICIENTS,
    _expression_texts(arithmetic_only=False),
)


def _joined(terms_and_ops):
    terms, ops = terms_and_ops
    return terms[0] + "".join(f" {op} {term}" for op, term in zip(ops, terms[1:]))


_SUMS = st.tuples(st.lists(_PLAN_TERMS, min_size=1, max_size=40),
                  st.lists(st.sampled_from("+-"), min_size=39, max_size=39)).map(_joined)
# (x1, x2, x3, u1, u2) rows with signed zeros, infinities and nans among them
_SPECIAL_POINTS = st.lists(
    st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from(_SPECIAL_VALUES)),
             min_size=5, max_size=5),
    min_size=1, max_size=4)


def _field_outcome(evaluate):
    """The field's values, or the type of what a constant subtree raised."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return evaluate()
        except (ZeroDivisionError, OverflowError, TypeError) as err:
            return type(err)


def _assert_plan_is_the_walk(components, n, m, xs, us):
    """The plan's field equals the walk's byte for byte; a nan may differ in sign."""
    plan = ex.term_plan(components, n, m)
    shape = np.broadcast_shapes(xs.shape[:-1], us.shape[:-1])
    walked = _field_outcome(lambda: ex.eval_field(components, xs, us))
    # None: a complex constant, which the plan leaves to the walk
    planned = _field_outcome(lambda: ex._plan_field(plan, xs, us, shape))
    if planned is None:
        planned = walked
    if isinstance(walked, type):
        assert planned is walked
        return
    nan = np.isnan(walked)
    np.testing.assert_array_equal(np.isnan(planned), nan)
    assert planned[~nan].tobytes() == walked[~nan].tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(texts=st.lists(_SUMS, min_size=1, max_size=3), points=_SPECIAL_POINTS)
def test_term_plan_field_is_the_walk_bit_for_bit(texts, points):
    points = np.array(points)
    _assert_plan_is_the_walk([ex.parse_expr(t) for t in texts], 3, 2,
                             points[:, :3], points[:, 3:])


def _chain_text(rng, mode, n, m, zero_x_eq):
    """gen.small_system's shape, without its redraw until the verdict is
    positive, which does not end at n = 50."""
    a = np.diag(np.round(rng.uniform(-1.5, 0.5, n), 3))
    a[np.arange(n - 1), np.arange(1, n)] = np.round(rng.uniform(-1.5, 1.5, n - 1), 3)
    b = np.zeros((n, m))
    b[np.arange(n - m, n), np.arange(m)] = np.round(rng.uniform(-2.0, 2.0, m), 3)
    x_eq = np.zeros(n) if zero_x_eq else np.round(rng.uniform(-1.0, 1.0, n), 3)
    u_eq = np.round(rng.uniform(-1.0, 1.0, m), 3)
    return gen.system_text("chain", mode, a, b, x_eq, u_eq, gen._small_hot(rng, n, x_eq))


@pytest.mark.parametrize("n", [2, 4, 8, 10, 30, 50])
def test_term_plan_field_is_the_walk_on_generator_draws(n):
    rng = np.random.default_rng(n)
    modes = (gen.CONTINUOUS, gen.DISCRETE)
    texts = [gen.large_system(rng, "large", mode, n).text for mode in modes]
    texts += [_chain_text(rng, mode, n, min(2, n), zero) for mode in modes for zero in (True, False)]
    for text in texts:
        spec = parse_system(text)
        rows = rng.uniform(-2.0, 2.0, (24, spec.n + spec.m))
        specials = rng.random(rows.shape) < 0.1
        rows[specials] = rng.choice(_SPECIAL_VALUES, size=int(specials.sum()))
        _assert_plan_is_the_walk(spec.components, spec.n, spec.m,
                                 rows[:, :spec.n], rows[:, spec.n:])
        # one control row broadcast over the states, and a single point
        _assert_plan_is_the_walk(spec.components, spec.n, spec.m,
                                 rows[:, :spec.n], rows[0, spec.n:])
        _assert_plan_is_the_walk(spec.components, spec.n, spec.m,
                                 rows[1, :spec.n], rows[1, spec.n:])


def test_term_plan_reads_affine_terms_and_keeps_tails():
    components = [ex.parse_expr(t) for t in (
        "2*x1 - x2*-3 + u1 - sin(x1)*x2", "-0*u1", "x2 - 4", "x2 - (x1 + u1)")]
    plan = ex.term_plan(components, 2, 1)
    pad = 3
    np.testing.assert_array_equal(plan.columns, [[0, 2, 1, 1],
                                                 [1, pad, pad, pad],
                                                 [2, pad, pad, pad],
                                                 [pad, pad, pad, pad]])
    np.testing.assert_array_equal(plan.bare, [[False, False, True, True],
                                              [False, False, False, False],
                                              [True, False, False, False],
                                              [False, False, False, False]])
    assert plan.coefficients.tobytes() == np.array([[2.0, -0.0, 1.0, 1.0],
                                                    [-3.0, 1.0, 1.0, 1.0],
                                                    [1.0, 1.0, 1.0, 1.0],
                                                    [1.0, 1.0, 1.0, 1.0]]).tobytes()
    np.testing.assert_array_equal(plan.signs, [[1, 1, 1, 1],
                                               [-1, 1, -1, -1],
                                               [1, 1, 1, 1],
                                               [-1, 1, 1, 1]])
    assert [(i, t, ex.unparse(tree)) for i, t, tree in plan.tails] == [
        (0, 3, "sin(x1) * x2"), (2, 1, "4"), (3, 1, "x1 + u1")]
    assert plan.max_indices == ((2, 1), (0, 1), (2, 0), (2, 1))
    assert plan.affine_terms == 6


def test_a_plan_raises_where_the_walk_raises():
    chain = " + ".join(f"{k}*x{k % 3 + 1}" for k in range(1, 41))
    # tails are walked in the walk's order: the first raising component wins
    divide = ex.parse_expr(f"{chain} + 1/0 + sin(x1)")
    overflow = ex.parse_expr(f"x2 - 10^400 + {chain}")
    for components, error in (([divide, overflow], ZeroDivisionError),
                              ([overflow, divide], OverflowError)):
        plan = ex.term_plan(components, 3, 2)
        assert plan.affine_terms >= ex._PLAN_MIN_AFFINE_TERMS
        for evaluate in (plan, components):
            with pytest.raises(error):
                ex.eval_field(evaluate, np.zeros(3), np.zeros(2))
