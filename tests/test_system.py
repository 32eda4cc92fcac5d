"""System files, validation, linearization, and control-affine structure."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_expr import _random_expr

from perfbench import gen
from stabkit import expr as ex
from stabkit import system
from stabkit.linalg import numerical_rank
from stabkit.synthesis import synthesize
from stabkit.system import (
    SystemFormatError,
    SystemSpec,
    SystemValidationError,
    degree_range,
    evaluate,
    is_affine_system,
    jacobian,
    load_system,
    parse_system,
    span_dimension_estimate,
    system_from_strings,
)
from stabkit.verdict import AnalysisConfig, analyze

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


SPACED = "mode continuous\nstates 1\ncontrols 1\neq x = 0\neq u = 0\nf1 = u1\n"


@pytest.mark.parametrize("old, new", [("f1 = u1", "f1=u1"), ("f1 = u1", "f1\t= u1"),
                                      ("states 1", "states\t1")])
def test_a_directive_name_ends_at_whitespace_or_equals(old, new):
    spaced, packed = parse_system(SPACED), parse_system(SPACED.replace(old, new))
    assert packed == spaced
    assert [ex.unparse(c) for c in packed.components] == ["u1"]


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
        # a repeated header line is an error, not an override
        ("mode continuous\nmode discrete\n", "duplicate mode line", 2),
        ("mode continuous\nstates 1\nstates 2\n", "duplicate states line", 3),
        ("states 1\ncontrols 1\ncontrols 2\neq x = 0\neq u = 0 0\nf1 = u1\n",
         "duplicate controls line", 3),
        ("mode continuous\nstates 1\ncontrols 1\neq x = 0\neq x=0\n", "duplicate eq x line", 5),
        ("mode continuous\nstates 1\ncontrols 1\neq u = 0\neq x = 0\neq u = 1\n",
         "duplicate eq u line", 6),
    ],
)
def test_format_errors_carry_line_numbers(text, message_part, line):
    with pytest.raises(SystemFormatError) as info:
        parse_system(text)
    assert message_part in str(info.value)
    assert info.value.line == line


def test_a_huge_states_count_is_rejected_without_allocating():
    text = WELL_FORMED.replace("states 2", "states 1000000")
    tracemalloc.start()
    try:
        with pytest.raises(SystemFormatError, match="missing component f3"):
            parse_system(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("n, mode, message", [
    (1, "sideways", "mode must be continuous or discrete, got 'sideways'"),
    (2, "continuous", "expected 2 components, got 1"),
])
def test_spec_built_directly_is_validated(n, mode, message):
    with pytest.raises(SystemValidationError, match=message):
        SystemSpec(n, 1, mode, (ex.parse_expr("u1"),), (0.0,) * n, (0.0,))


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("component, x_eq, u_eq, residual", [
    ("1.5*x1 + u1", [0.0], [1e308], "inf"),
    ("1e308 + u1 + x1", [0.0], [0.0], "inf"),
    ("1.5*x1 + u1", [float("inf")], [0.0], "nan"),
])
def test_discrete_residual_overflow_is_rejected_without_a_warning(component, x_eq, u_eq,
                                                                  residual):
    with pytest.raises(SystemValidationError, match=f"residual {residual} exceeds"):
        system_from_strings("discrete", [component], x_eq=x_eq, u_eq=u_eq, m=1)


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
    # affine terms whose column would not fit the term plan's table
    with pytest.raises(SystemValidationError, match="x300"):
        system_from_strings("continuous", ["2*x300 + x1", "u1"], m=1)
    with pytest.raises(SystemValidationError, match="u1000"):
        system_from_strings("continuous", ["x1 + u1000*3", "u1"], m=1)


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


def test_jacobian_overflow_is_an_eval_error():
    # exp(710) overflows in the tangent walk at a point the equilibrium check never sees
    spec = system_from_strings("continuous", ["exp(x1) - 1 + u1"], m=1)
    with pytest.raises(ex.EvalError, match="overflow in exp"):
        jacobian(spec, (710.0,), (0.0,))


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
    # chains at x* != 0, whose shifted terms c*(xj - d) are tails
    for n, m in ((2, 1), (3, 2), (4, 1), (8, 2)):
        for mode in ("continuous", "discrete"):
            spec = parse_system(gen.small_system(rng, "chain", mode, n, m).text)
            assert any(v != 0.0 for v in spec.x_eq)
            _assert_bit_identical(spec)
            _assert_bit_identical(spec, rng.uniform(-1, 1, n), rng.uniform(-1, 1, m))
    # literal negative and signed-zero coefficients on either side of the variable
    for _ in range(20):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        x0, u0 = rng.uniform(-1, 1, n), rng.uniform(-1, 1, m)
        names = [f"x{j}" for j in range(1, n + 1)] + [f"u{j}" for j in range(1, m + 1)]
        texts = []
        for _ in range(n):
            terms = []
            for _ in range(int(rng.integers(1, 8))):
                coef = rng.choice(["-2.5", "-1", "-0", "0", "0.5", "-0.25"])
                var = rng.choice(names)
                terms.append(rng.choice([f"{coef}*{var}", f"{var}*{coef}", var]))
            ops = rng.choice([" + ", " - "], size=len(terms))
            texts.append(terms[0] + "".join(op + t for op, t in zip(ops[1:], terms[1:])))
        trees = [ex.parse_expr(t) for t in texts]
        comps = [ex.BinOp("-", t, ex.Const(ex.eval_expr(t, x0, u0))) for t in trees]
        spec = SystemSpec(n, m, "continuous", comps, x0, u0)
        _assert_bit_identical(spec)
        _assert_bit_identical(spec, rng.uniform(-1, 1, n), rng.uniform(-1, 1, m))


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
    linearizations = []
    compute = system.jacobian

    def counted(spec, x=None, u=None):
        if x is not None or u is not None:
            linearizations.append(spec)
        return compute(spec, x, u)

    monkeypatch.setattr(system, "jacobian", counted)
    spec = parse_system(text)
    analyze(spec)
    synthesize(spec)
    assert jacobian(spec) is jacobian(spec)
    assert len(linearizations) == 1 and linearizations[0] is spec

    # the cache lives on the instance: a fresh parse of the same text linearizes again
    linearizations.clear()
    fresh = parse_system(text)
    analyze(fresh)
    assert len(linearizations) == 1 and linearizations[0] is fresh


def _count_walks(monkeypatch, name):
    """Record the node each call of the tree walk ``ex.<name>`` visits."""
    visits = []
    walk = getattr(ex, name)

    def counted(*args):
        visits.append(args[0])
        return walk(*args)

    monkeypatch.setattr(ex, name, counted)
    return visits


def test_the_span_estimate_and_the_jacobian_walk_only_the_tails(monkeypatch):
    spec = parse_system(gen.large_system(np.random.default_rng(5), "large", "continuous", 50).text)
    # one sin(xi)*xj tail per row, of four nodes; the rest is affine chains
    tail_nodes = sum(len(list(ex.iter_nodes(tree))) for _, _, tree in spec.plan.tails)
    assert tail_nodes == 4 * 50
    batch = _count_walks(monkeypatch, "_eval_batch")
    tangent = _count_walks(monkeypatch, "eval_tangent")
    span_dimension_estimate(spec, 0.1)
    jacobian(spec, spec.x_eq, spec.u_eq)
    assert len(batch) == len(tangent) == tail_nodes

    # planar_cubic has too few affine terms for the plan: its field walks every node
    spec = parse_system(gen.PLANAR_CUBIC)
    batch.clear()
    span_dimension_estimate(spec, 0.1)
    assert len(batch) == sum(len(list(ex.iter_nodes(c))) for c in spec.components)


def _structure(*components, m=1):
    return analyze(system_from_strings("continuous", components, m=m)).affine


def test_control_affine_rejects_nonlinear_input():
    assert not _structure("u1^2 + x1 - x1").is_control_affine
    assert not _structure("sin(u1)").is_control_affine
    assert _structure("x1*u1").is_control_affine


def test_is_affine_system():
    assert is_affine_system(system_from_strings("continuous", ["x1 + u1", "x2 - u1"], m=1))
    assert not is_affine_system(system_from_strings("continuous", ["x1^2 + u1"], m=1))
    # a literal 0 factor makes the zero polynomial, whatever it multiplies
    assert is_affine_system(system_from_strings("continuous", ["0*x1^2 + u1"], m=1))


ZERO = (math.inf, -math.inf)
# text -> (degrees in u, degrees in (x, u)); None: not a polynomial in them
DEGREES = {
    "0": (ZERO, ZERO),
    "2.5": ((0, 0), (0, 0)),
    "x1": ((0, 0), (1, 1)),
    "u1": ((1, 1), (1, 1)),
    "-u1": ((1, 1), (1, 1)),
    "x1 + u1": ((0, 1), (1, 1)),
    "x1 - x1*u1": ((0, 1), (1, 2)),
    "u1*x2": ((1, 1), (2, 2)),
    "(u1 - u1)*u1": ((2, 2), (2, 2)),
    "0*u1^2": (ZERO, ZERO),
    "u1^2*0": (ZERO, ZERO),
    "sin(u1)*0": (None, None),
    "u1/(2 + x1)": ((1, 1), None),
    "x1/u1": (None, None),
    "u1/0": (None, None),
    "u1^0": ((0, 0), (0, 0)),
    "sin(u1)^0": ((0, 0), (0, 0)),
    "sin(u1)^2": (None, None),
    "u1^1": ((1, 1), (1, 1)),
    "(x1 + u1)^2": ((0, 2), (2, 2)),
    "x1^0.5": ((0, 0), None),
    "u1^0.5": (None, None),
    "u1^-1": (None, None),
    "0^0.5": (ZERO, ZERO),
    "sin(x1)*u1": ((1, 1), None),
    "cos(0*u1)": ((0, 0), (0, 0)),
    "tanh(u1)": (None, None),
    # the two structure changes of reading degrees: a ^0 is a constant and a 0
    # factor the zero polynomial, so the first is control-affine and the second driftless
    "u1^0*x1 + u1": ((0, 1), (1, 1)),
    "0*x1 + x1*u1": ((1, 1), (2, 2)),
}


@pytest.mark.parametrize("text", DEGREES)
def test_degree_range_of_every_node_kind(text):
    tree = ex.parse_expr(text)
    in_u, joint = DEGREES[text]
    assert degree_range(tree, (ex.ControlVar,)) == in_u
    assert degree_range(tree, (ex.StateVar, ex.ControlVar)) == joint


def test_a_constant_power_and_a_zero_factor_change_the_structure():
    assert _structure("u1^0*x1 + u1").is_control_affine
    assert _structure("0*x1 + x1*u1").driftless


@settings(derandomize=True, max_examples=40, deadline=None)
@given(mode=st.sampled_from([gen.CONTINUOUS, gen.DISCRETE]), n=st.integers(1, 6),
       m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_span_of_f_matches_the_span_of_its_affine_fields(mode, n, m, seed):
    g = gen.small_system(np.random.default_rng(seed), "chain", mode, n, min(m, n))
    spec = parse_system(g.text)
    affine = analyze(spec).affine
    # the estimate's points x_k: seed 0, radius 0.1, max(64, 4n) of them, as analyze
    # draws them where [A | B] is not onto
    samples = max(64, 4 * n)
    span_dim = span_dimension_estimate(spec, 0.1)
    rng = np.random.default_rng(0)
    directions = rng.standard_normal((samples, n))
    radii = 0.1 * rng.random((samples, 1)) ** (1.0 / n)
    points = np.asarray(spec.x_eq) + directions / np.linalg.norm(directions, axis=1,
                                                                 keepdims=True) * radii
    u_eq = np.broadcast_to(spec.u_eq, (samples, spec.m))
    drift = ex.eval_field(spec.components, points, u_eq)
    # f is affine in u, so f(x, u* + e_i) - f(x, u*) = gi(x)
    inputs = [ex.eval_field(spec.components, points, u_eq + e) - drift for e in np.eye(spec.m)]
    assert span_dim == numerical_rank(np.vstack([drift, *inputs]))
    assert affine.input_rank == spec.m
    assert not affine.driftless


def test_span_dimension_estimate():
    # f = g0 + g1 u1 with g0 = (x2, 0) and g1 = (0, 1)
    spec = system_from_strings("continuous", ["x2", "u1"], m=1)
    assert span_dimension_estimate(spec, 0.1) == 2
    # a single direction spans one dimension
    spec = system_from_strings("continuous", ["x1 - x1", "u1"], m=1)
    assert span_dimension_estimate(spec, 0.1) == 1


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_span_dimension_estimate_rejects_a_radius_that_is_not_positive(radius):
    spec = system_from_strings("continuous", ["x2", "u1"], m=1)
    with pytest.raises(ValueError, match="^radius must be positive$"):
        span_dimension_estimate(spec, radius)


# fields that vanish at the origin and are affine in u
SPAN_FIELDS = ("x{i}", "u{j}", "x{i}*u{j}", "sin(x{i})", "x{i}^2", "x{i}*x{k}")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(2, 5), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_span_estimate_reads_the_same_for_f_and_for_a_multiple_of_f(n, m, seed):
    # f = P h with h r < n such fields: [A | B] = P Dh is not onto, so f is sampled
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n))
    fields = [SPAN_FIELDS[rng.integers(len(SPAN_FIELDS))].format(
        i=rng.integers(1, n + 1), j=rng.integers(1, m + 1), k=rng.integers(1, n + 1))
        for _ in range(r)]
    mix = rng.integers(-3, 4, (n, r))
    texts = [" + ".join(f"{w}*({h})" for w, h in zip(row, fields)) for row in mix]
    span_dim = span_dimension_estimate(system_from_strings("continuous", texts, m=m), 0.1)
    assert span_dim <= r
    for c in (1e-6, 1e6):
        scaled = system_from_strings("continuous", [f"{c!r}*({t})" for t in texts], m=m)
        assert span_dimension_estimate(scaled, 0.1) == span_dim
        # a rank cutoff chosen for [A | B] does not reach the estimate
        a = analyze(scaled, AnalysisConfig(tol_rank=0.5))
        assert not a.openness.linearly_open
        assert a.affine.span_dim == span_dim


def test_span_estimate_refuses_a_stack_over_the_cap_before_drawing(monkeypatch):
    spec = system_from_strings("continuous", ["x2", "u1"], m=1)
    # 64 points x (2 states + 1 control) stored
    monkeypatch.setattr(system, "MAX_STORED_FLOATS", 64 * 3)
    assert span_dimension_estimate(spec, 0.1) == 2

    def no_draws(*args, **kwargs):
        raise AssertionError("sampled points for an estimate over the cap")

    monkeypatch.setattr(system.np.random, "default_rng", no_draws)
    monkeypatch.setattr(system, "MAX_STORED_FLOATS", 64 * 3 - 1)
    with pytest.raises(ValueError, match="64 points x 3 values exceed the limit of 191 "):
        span_dimension_estimate(spec, 0.1)
