"""Expression language: parsing, evaluation, differentiation, codegen."""

import math

import numpy as np
import pytest

from stabkit import expr as ex

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


def test_compile_field_matches_eval():
    rng = np.random.default_rng(3)
    comps = [ex.parse_expr(t) for t in ("x1^3 + x2", "sin(x1)*u1", "x2/(2 + cos(x1))")]
    field = ex.compile_field(comps)
    xs = rng.uniform(-1.0, 1.0, (40, 2))
    us = rng.uniform(-1.0, 1.0, (40, 1))
    with np.errstate(all="ignore"):
        batch = field(xs, us)
        # one control row broadcasts over the batch of states
        shared = field(xs, us[0])
    assert batch.shape == (40, 3)
    assert shared.tobytes() == field(xs, np.repeat(us[:1], 40, axis=0)).tobytes()
    for row in range(40):
        for j, comp in enumerate(comps):
            assert batch[row, j] == pytest.approx(ex.eval_expr(comp, xs[row], us[row]), abs=1e-14)


def test_is_c1_everywhere_flags_division():
    assert not ex.is_c1_everywhere(ex.parse_expr("x1/x2"))
    assert ex.is_c1_everywhere(ex.parse_expr("sin(x1) + x2^3"))
    # fractional powers are not C1 at zero
    assert not ex.is_c1_everywhere(ex.parse_expr("x1^0.5"))


def test_max_indices_and_uses_control():
    tree = ex.parse_expr("x3 + u2*sin(x1)")
    assert ex.max_indices(tree) == (3, 2)
    assert ex.uses_control(tree)
    assert not ex.uses_control(ex.parse_expr("x1^2"))
