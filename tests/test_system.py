"""System files, validation, linearization, and control-affine structure."""

import numpy as np
import pytest
from test_expr import _random_expr

from perfbench import gen
from stabkit import expr as ex
from stabkit import system
from stabkit.synthesis import synthesize
from stabkit.system import (
    SystemFormatError,
    SystemSpec,
    SystemValidationError,
    detect_control_affine,
    evaluate,
    is_affine_system,
    jacobian,
    load_system,
    parse_system,
    span_dimension_estimate,
    system_from_strings,
)
from stabkit.verdict import analyze

WELL_FORMED = """\
# comment line
mode continuous
states 2
controls 1
eq x = 0 0
eq u = 0
f1 = x1^3 + x2   # trailing comment
f2 = u1
"""


def test_parse_well_formed():
    spec = parse_system(WELL_FORMED)
    assert (spec.n, spec.m, spec.mode) == (2, 1, "continuous")
    assert spec.x_eq == (0.0, 0.0)
    assert spec.u_eq == (0.0,)
    assert ex.unparse(spec.components[0]) == "x1^3 + x2"


def test_load_fixture_files(examples_dir):
    for name in ("planar_cubic", "three_state_mixed", "unstable_drift",
                 "cubic_input", "identity_input", "discrete_quadratic"):
        spec = load_system(examples_dir / f"{name}.stab")
        assert spec.n >= 1 and spec.m >= 1


@pytest.mark.parametrize(
    "text, message_part, line",
    [
        ("mode sideways\nstates 1\n", "continuous or discrete", 1),
        ("mode continuous\nstates two\n", "integer", 2),
        ("mode continuous\nstates 1\ncontrols 1\neq z = 0\n", "eq x", 4),
        ("mode continuous\nstates 1\ncontrols 1\neq x = a\n", "numbers", 4),
        ("wat 3\n", "unrecognized", 1),
        ("mode continuous\nstates 1\ncontrols 1\neq x = 0\neq u = 0\nf1 = u1\nf1 = u1\n",
         "duplicate", 7),
        ("mode continuous\nstates 2\ncontrols 1\neq x = 0 0\neq u = 0\nf1 = u1\nf2 = u1\nf3 = u1\n",
         "out of range", 8),
        ("mode continuous\nstates 1\ncontrols 1\neq x = 0\neq u = 0\nf1 = u1 +\n", "in f1", 6),
    ],
)
def test_format_errors_carry_line_numbers(text, message_part, line):
    with pytest.raises(SystemFormatError) as info:
        parse_system(text)
    assert message_part in str(info.value)
    assert info.value.line == line


def test_missing_sections_reported():
    with pytest.raises(SystemFormatError, match="missing mode"):
        parse_system("states 1\ncontrols 1\neq x = 0\neq u = 0\nf1 = u1\n")
    with pytest.raises(SystemFormatError, match="missing component f2"):
        parse_system("mode continuous\nstates 2\ncontrols 1\neq x = 0 0\neq u = 0\nf1 = u1\n")


def test_equilibrium_residual_rejected():
    with pytest.raises(SystemValidationError, match="residual"):
        system_from_strings("continuous", ["x1 + 1", "u1"], m=1)
    # discrete residual is f(x*) - x*
    system_from_strings("discrete", ["1.5*x1 + u1"], m=1)
    with pytest.raises(SystemValidationError, match="residual"):
        system_from_strings("discrete", ["x1 + 1 + u1"], m=1)



def test_nonfinite_equilibrium_residual_rejected():
    # 1e308*10 overflows to inf at evaluation, so the residual is inf - inf = nan
    with pytest.raises(SystemValidationError, match="residual nan"):
        system_from_strings("continuous", ["x1 + u1 + 1e308*10 - 1e308*10"], m=1)
    with pytest.raises(SystemValidationError, match="residual nan"):
        system_from_strings("continuous", ["x1 + u1"], x_eq=[float("nan")], m=1)


@pytest.mark.parametrize("x_eq, u_eq", [
    ([float("nan")], [0.0]),
    ([float("inf")], [0.0]),
    ([0.0], [float("-inf")]),
])
def test_nonfinite_equilibrium_rejected(x_eq, u_eq):
    # -x1 at x = 0 and u1 at u = 0 leave a zero residual whatever the other value is
    comp = "u1" if u_eq == [0.0] else "-x1"
    with pytest.raises(SystemValidationError, match="equilibrium values must be finite"):
        system_from_strings("continuous", [comp], x_eq=x_eq, u_eq=u_eq, m=1)


def test_out_of_range_variable_rejected():
    with pytest.raises(SystemValidationError, match="x3"):
        system_from_strings("continuous", ["x3", "u1"], m=1)
    with pytest.raises(SystemValidationError, match="u2"):
        system_from_strings("continuous", ["x1 - x1 + u2"], m=1)


def test_dimension_caps():
    with pytest.raises(SystemValidationError):
        SystemSpec(0, 1, "continuous", (), (), (0.0,))
    big = [f"u1 - u1 + x{i + 1} - x{i + 1}" for i in range(51)]
    with pytest.raises(SystemValidationError, match="cap"):
        system_from_strings("continuous", big, m=1)


def test_evaluate_vector():
    spec = parse_system(WELL_FORMED)
    np.testing.assert_allclose(evaluate(spec, [2.0, 1.0], [0.5]), [9.0, 0.5])


def test_jacobian_planar(examples_dir):
    lin = jacobian(load_system(examples_dir / "planar_cubic.stab"))
    np.testing.assert_allclose(lin.a, [[0.0, 1.0], [0.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(lin.b, [[0.0], [1.0]], atol=1e-15)
    np.testing.assert_allclose(lin.augmented, [[0, 1, 0], [0, 0, 1]], atol=1e-15)


def test_jacobian_three_state(examples_dir):
    lin = jacobian(load_system(examples_dir / "three_state_mixed.stab"))
    np.testing.assert_allclose(lin.a, [[0, 0, 1], [1, 0, 1], [0.1, 0, 0]], atol=1e-15)
    np.testing.assert_allclose(lin.b, [[0], [0], [1]], atol=1e-15)


def test_jacobian_away_from_equilibrium(examples_dir):
    spec = load_system(examples_dir / "planar_cubic.stab")
    lin = jacobian(spec, x=[0.5, 0.0], u=[0.0])
    assert lin.a[0, 0] == pytest.approx(3 * 0.5**2)


@pytest.mark.parametrize("x, u", [([0.5], None), ([0.5, 0.0, 9.0], [0.0, 7.0]),
                                  ([0.5, 0.0], [0.0, 7.0])])
def test_jacobian_rejects_points_of_the_wrong_length(examples_dir, x, u):
    spec = load_system(examples_dir / "planar_cubic.stab")
    with pytest.raises(ValueError, match="n=2 states and m=1 controls"):
        jacobian(spec, x=x, u=u)


def _scalar_jacobian(spec, x, u):
    """Reference: one scalar eval_tangent walk per component and unit seed."""
    n, m = spec.n, spec.m
    a = np.empty((n, n))
    b = np.empty((n, m))
    for j in range(n + m):
        seed = [1.0 if k == j else 0.0 for k in range(n + m)]
        for i, comp in enumerate(spec.components):
            d = ex.eval_tangent(comp, x, u, seed[:n], seed[n:])[1]
            if j < n:
                a[i, j] = d
            else:
                b[i, j - n] = d
    return a, b


def _assert_bit_identical(spec, x=None, u=None):
    lin = jacobian(spec, x, u)
    a, b = _scalar_jacobian(spec, spec.x_eq if x is None else x, spec.u_eq if u is None else u)
    assert lin.a.tobytes() == a.tobytes()
    assert lin.b.tobytes() == b.tobytes()


def test_jacobian_is_bit_identical_to_the_scalar_walks(examples_dir):
    rng = np.random.default_rng(7)
    for path in sorted(examples_dir.glob("*.stab")):
        spec = load_system(path)
        _assert_bit_identical(spec)
        _assert_bit_identical(spec, rng.uniform(-1, 1, spec.n), rng.uniform(-1, 1, spec.m))
    # criterion 07's random trees, shifted so that a drawn point is the equilibrium
    for _ in range(60):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        x0, u0 = rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, m)
        trees = [_random_expr(rng, n, m, depth=3) for _ in range(n)]
        comps = [ex.BinOp("-", t, ex.Const(ex.eval_expr(t, x0, u0))) for t in trees]
        spec = SystemSpec(n, m, "continuous", comps, x0, u0)
        _assert_bit_identical(spec)
        _assert_bit_identical(spec, rng.uniform(-1, 1, n), rng.uniform(-1, 1, m))
    for n in (10, 30, 50):
        for mode in ("continuous", "discrete"):
            g = gen.large_system(rng, "large", mode, n)
            spec = parse_system(g.text)
            _assert_bit_identical(spec)
            _assert_bit_identical(spec, rng.uniform(-1, 1, n), rng.uniform(-1, 1, spec.m))


@pytest.mark.parametrize("text, message", [
    ("x1^0.5 - 1", "power is not differentiable at zero base"),
    ("1/x1 - 1", "division by zero"),
])
def test_singular_points_raise_the_scalar_walks_error(text, message):
    spec = system_from_strings("continuous", [text, "u1"], x_eq=(1.0, 0.0))
    with pytest.raises(ex.EvalError) as vector:
        jacobian(spec, x=[0.0, 0.0], u=[0.0])
    with pytest.raises(ex.EvalError) as scalar:
        _scalar_jacobian(spec, (0.0, 0.0), (0.0,))
    assert str(vector.value) == str(scalar.value) == message


def test_underflowing_denominator_is_an_eval_error():
    # (1e-200)^2 underflows to zero, which used to escape as ZeroDivisionError
    spec = system_from_strings("continuous", ["x1/x2 + u1", "u1"], x_eq=(0.0, 1e-200))
    with pytest.raises(ex.EvalError, match="division by zero"):
        jacobian(spec)


def test_analyze_then_synthesize_linearize_once(monkeypatch, examples_dir):
    text = (examples_dir / "three_state_mixed.stab").read_text()
    walks = []
    scalar_walk = ex.eval_tangent

    def counted(*args):
        walks.append(args[0])
        return scalar_walk(*args)

    monkeypatch.setattr(ex, "eval_tangent", counted)
    spec = parse_system(text)
    jacobian(spec, spec.x_eq, spec.u_eq)
    per_linearization = len(walks)
    assert per_linearization > 0

    walks.clear()
    spec = parse_system(text)
    analyze(spec)
    synthesize(spec)
    assert jacobian(spec) is jacobian(spec)
    assert len(walks) == per_linearization

    # the cache lives on the instance: a fresh parse of the same text walks again
    walks.clear()
    analyze(parse_system(text))
    assert len(walks) == per_linearization


def test_control_affine_reconstruction(examples_dir):
    spec = load_system(examples_dir / "three_state_mixed.stab")
    parts = detect_control_affine(spec)
    assert parts is not None
    g0, g1 = parts
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, spec.n)
        u = rng.uniform(-1.0, 1.0, spec.m)
        direct = evaluate(spec, x, u)
        recon = np.array([ex.eval_expr(c, x, []) for c in g0])
        recon = recon + u[0] * np.array([ex.eval_expr(c, x, []) for c in g1])
        np.testing.assert_allclose(recon, direct, rtol=1e-12, atol=1e-12)


def test_control_affine_rejects_nonlinear_input():
    assert detect_control_affine(system_from_strings("continuous", ["u1^2 + x1 - x1"], m=1)) is None
    assert detect_control_affine(system_from_strings("continuous", ["sin(u1)"], m=1)) is None
    assert detect_control_affine(system_from_strings("continuous", ["x1*u1"], m=1)) is not None


def test_is_affine_system():
    assert is_affine_system(system_from_strings("continuous", ["x1 + u1", "x2 - u1"], m=1))
    assert not is_affine_system(system_from_strings("continuous", ["x1^2 + u1"], m=1))


def test_span_dimension_estimate():
    g0 = (ex.parse_expr("x2"), ex.parse_expr("x1 - x1"))
    g1 = (ex.parse_expr("x1 - x1"), ex.parse_expr("1"))
    assert span_dimension_estimate([g0, g1], [0.0, 0.0], 0.1, 64) == 2
    # a single direction spans one dimension
    assert span_dimension_estimate([g1], [0.0, 0.0], 0.1, 64) == 1


def test_span_estimate_refuses_a_stack_over_the_cap_before_drawing(monkeypatch):
    g0 = (ex.parse_expr("x2"), ex.parse_expr("x1 - x1"))
    g1 = (ex.parse_expr("x1 - x1"), ex.parse_expr("1"))
    # 2 fields x 64 points x 2 values stored
    monkeypatch.setattr(system, "MAX_STORED_FLOATS", 2 * 64 * 2)
    assert span_dimension_estimate([g0, g1], [0.0, 0.0], 0.1, 64) == 2

    def no_draws(*args, **kwargs):
        raise AssertionError("sampled points for an estimate over the cap")

    monkeypatch.setattr(system.np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match="2 fields x 65 points x 2 values exceed the limit"):
        span_dimension_estimate([g0, g1], [0.0, 0.0], 0.1, 65)
