"""Gain synthesis tests: placement accuracy, reductions, failure modes."""

import bisect
import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from stabkit import expr as ex
from stabkit import synthesis
from stabkit.hautus import controllable_subspace
from stabkit.linalg import spectrum
from stabkit.synthesis import (
    FeedbackGain,
    PlacementError,
    UncontrollableError,
    _block_sylvester,
    _real_block_form,
    _sylvester,
    default_poles,
    gain_expressions,
    place_poles,
    pole_match_error,
    synthesize,
)
from stabkit.system import Linearization, load_system, system_from_strings

PLACEMENT_ROUNDS = 100
SYLVESTER_CASES = 200
SQRT_TENTH = 0.31622776601683794


# --- frozen gains for the bundled examples ------------------------------

def test_planar_default_gain(examples_dir):
    gain = synthesize(load_system(examples_dir / "planar_cubic.stab"))
    assert gain.k == pytest.approx(np.array([[-1.5, -2.5]]), abs=1e-12)
    assert gain.target_poles == (-1.0, -1.5)
    assert gain.mode == "continuous"
    assert pole_match_error(gain.achieved_poles, gain.target_poles) <= 1e-10


def test_planar_requested_poles(examples_dir):
    gain = synthesize(load_system(examples_dir / "planar_cubic.stab"), poles=[-1.0, -2.0])
    assert gain.k == pytest.approx(np.array([[-2.0, -3.0]]), abs=1e-12)
    assert gain.target_poles == (-1.0, -2.0)


def test_three_state_default_targets(examples_dir):
    gain = synthesize(load_system(examples_dir / "three_state_mixed.stab"))
    base = -(SQRT_TENTH + 1.0)
    assert gain.target_poles == pytest.approx(
        (base, base - 0.5, base - 1.0), abs=1e-12
    )
    assert pole_match_error(gain.achieved_poles, gain.target_poles) <= 1e-13
    assert all(p.real < -1.0 for p in gain.achieved_poles)


def test_discrete_default_gain(examples_dir):
    gain = synthesize(load_system(examples_dir / "discrete_quadratic.stab"))
    assert gain.k == pytest.approx(np.array([[-1.0]]), abs=1e-12)
    assert gain.target_poles == (0.5,)
    assert gain.mode == "discrete"


# --- partially controllable pairs ---------------------------------------

def test_staircase_dimension():
    t, dim = controllable_subspace(Linearization([[1.0, 0.0], [0.0, 0.0]], [[0.0], [1.0]]))
    assert dim == 1
    assert t.T @ t == pytest.approx(np.eye(2), abs=1e-12)


def test_stable_uncontrollable_block_is_preserved():
    sys = system_from_strings("continuous", ["x2", "u1", "-2*x3"], m=1)
    gain = synthesize(sys)
    assert gain.target_poles == (-3.0, -3.5)
    achieved = sorted(gain.achieved_poles, key=lambda z: z.real)
    assert achieved[0] == pytest.approx(-3.5, abs=1e-8)
    assert achieved[1] == pytest.approx(-3.0, abs=1e-8)
    assert achieved[2] == pytest.approx(-2.0, abs=1e-8)
    assert gain.k[0, 2] == pytest.approx(0.0, abs=1e-12)


def test_empty_controllable_block_gets_a_zero_gain():
    # B = 0: nothing is placed, and the stable spectrum -1, -2 stays where it is
    assert place_poles(np.zeros((0, 0)), np.zeros((0, 1)), []).shape == (1, 0)
    gain = synthesize(system_from_strings("continuous", ["-x1 + x2", "-2*x2 + 0*u1"], m=1))
    assert gain.k.tolist() == [[0.0, 0.0]]
    assert gain.target_poles == ()
    assert gain.achieved_poles == (-2.0, -1.0)


def test_unstable_uncontrollable_mode_raises(examples_dir):
    with pytest.raises(UncontrollableError, match="lambda=1"):
        synthesize(load_system(examples_dir / "unstable_drift.stab"))


# --- randomized placement accuracy --------------------------------------

def _random_placement_case(rng):
    """Controllable pair with stable desired poles clear of the open loop."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 3))
    while True:
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        ctrb = np.hstack([np.linalg.matrix_power(a, i) @ b for i in range(n)])
        if np.linalg.matrix_rank(ctrb) == n:
            break
    open_loop = np.linalg.eigvals(a)

    def clear(p):
        return np.min(np.abs(open_loop - p)) > 1e-3

    desired = []
    while len(desired) < n:
        if n - len(desired) >= 2 and rng.random() < 0.4:
            re = -float(rng.uniform(0.5, 3.0))
            im = float(rng.uniform(0.3, 2.0))
            if clear(complex(re, im)):
                desired.extend([complex(re, im), complex(re, -im)])
        else:
            p = -float(rng.uniform(0.5, 3.0))
            if clear(p):
                desired.append(complex(p))
    return a, b, desired


def test_random_placement_accuracy():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(PLACEMENT_ROUNDS):
        a, b, desired = _random_placement_case(rng)
        k = place_poles(a, b, desired, rng=rng)
        err = pole_match_error(np.linalg.eigvals(a + b @ k), desired)
        worst = max(worst, err)
    assert worst <= 1e-6


# --- the block Sylvester solver -----------------------------------------

def _sylvester_case(rng):
    """A with spectrum near the unit disk, a block target left of it, and C."""
    n = int(rng.integers(2, 51))
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    poles = []
    while len(poles) < n:
        if n - len(poles) >= 2 and rng.random() < 0.5:
            re, im = -rng.uniform(1.5, 3.0), rng.uniform(0.2, 2.0)
            poles += [complex(re, im), complex(re, -im)]
        else:
            poles.append(complex(-rng.uniform(1.5, 3.0)))
    return a, _real_block_form(poles), rng.standard_normal((n, n))


def test_block_sylvester_matches_scipy():
    rng = np.random.default_rng(5)
    worst = 0.0
    mixed = 0
    for _ in range(SYLVESTER_CASES):
        a, blocks, c = _sylvester_case(rng)
        x = _block_sylvester(a, blocks, c)
        target = scipy.linalg.block_diag(*[[[p.real, p.imag], [-p.imag, p.real]] if p.imag
                                           else [[p.real]] for p in blocks])
        ref = scipy.linalg.solve_sylvester(a, -target, c)
        worst = max(worst, np.linalg.norm(x - ref) / np.linalg.norm(ref))
        pairs = np.count_nonzero(np.diag(target, 1))
        mixed += 0 < 2 * pairs < len(target)
    assert mixed >= SYLVESTER_CASES // 2
    assert worst <= 1e-9


@pytest.mark.parametrize("a, desired", [
    (np.diag([1.0, 2.0]), [1.0, -1.0]),
    (np.array([[0.0, 1.0], [-1.0, 0.0]]), [1j, -1j]),
])
def test_sylvester_singular_shift_reports_the_solver_error(a, desired, monkeypatch):
    # a target pole on an eigenvalue of A makes A - lambda I exactly singular
    calls = []

    def counted(*args):
        calls.append(args)
        return _block_sylvester(*args)

    monkeypatch.setattr(synthesis, "_block_sylvester", counted)
    with pytest.raises(PlacementError, match=r"last solver error: Singular matrix"):
        _sylvester(a, np.eye(2), desired, _real_block_form(desired),
                   np.random.default_rng(0))
    # the singular shift does not depend on the redrawn G, so one solve decides
    assert len(calls) == 1


# --- input validation ---------------------------------------------------

A2 = np.array([[0.0, 1.0], [0.0, 0.0]])
B2 = np.array([[0.0], [1.0]])


def test_pole_count_mismatch():
    with pytest.raises(ValueError, match="expected 2 poles"):
        place_poles(A2, B2, [-1.0])


def test_single_input_placement_that_overflows_raises_placement_error():
    # the characteristic polynomial's constant term 2e320 overflows; the
    # multi-input path places the same poles
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PlacementError, match="^single-input placement overflows the "
                                                 "float range: Ackermann's formula gave a "
                                                 "non-finite gain$"):
            place_poles(A2, B2, [-1e160, -2e160])
        k = place_poles(A2, np.eye(2), [-1e160, -2e160])
    assert sorted(np.linalg.eigvals(A2 + k).real) == pytest.approx([-2e160, -1e160])


def test_unpaired_complex_pole():
    with pytest.raises(ValueError, match="not closed under conjugation"):
        place_poles(A2, B2, [complex(-1.0, 1.0), -2.0])


def test_pole_collision_with_open_loop():
    with pytest.raises(ValueError, match="collides"):
        place_poles(A2, B2, [0.0, -1.0])


def test_uncontrollable_pair_rejected():
    with pytest.raises(UncontrollableError):
        place_poles(np.eye(2), B2, [-1.0, -2.0])


def test_synthesize_rejects_unstable_request(examples_dir):
    sys = load_system(examples_dir / "planar_cubic.stab")
    with pytest.raises(ValueError, match="not stable for continuous mode"):
        synthesize(sys, poles=[0.5, -1.0])
    with pytest.raises(ValueError, match="expected 2 poles"):
        synthesize(sys, poles=[-1.0])


def test_synthesize_rejects_unstable_discrete_request(examples_dir):
    sys = load_system(examples_dir / "discrete_quadratic.stab")
    with pytest.raises(ValueError, match="not stable for discrete mode"):
        synthesize(sys, poles=[1.0])


@pytest.mark.parametrize("name, poles, mode", [
    ("planar_cubic", [float("nan"), -1.0], "continuous"),
    ("planar_cubic", [-float("inf"), -1.0], "continuous"),
    ("planar_cubic", [complex(-1.0, float("nan")), complex(-1.0, float("nan"))], "continuous"),
    ("discrete_quadratic", [float("nan")], "discrete"),
])
def test_synthesize_rejects_nonfinite_request(examples_dir, name, poles, mode):
    sys = load_system(examples_dir / f"{name}.stab")
    with pytest.raises(ValueError, match=f"not stable for {mode} mode"):
        synthesize(sys, poles=poles)


def test_pole_match_error_is_permutation_invariant():
    achieved = [complex(-1, 2), complex(-3, 0), complex(-1, -2)]
    desired = [complex(-3, 0), complex(-1, -2), complex(-1, 2)]
    assert pole_match_error(achieved, desired) == 0.0
    with pytest.raises(ValueError, match="equal length"):
        pole_match_error(achieved, desired[:2])


def _costs(achieved, desired) -> np.ndarray:
    return np.abs(np.subtract.outer(np.asarray(achieved, dtype=complex),
                                    np.asarray(desired, dtype=complex)))


def _bottleneck_oracle(cost: np.ndarray) -> float:
    """Smallest cost t whose graph {cost <= t} matches every row (Hopcroft-Karp)."""
    def matches_every_row(t):
        graph = csr_matrix((cost <= t).astype(np.int8))
        return bool(np.all(maximum_bipartite_matching(graph, perm_type="column") >= 0))

    values = np.unique(cost)
    return float(values[bisect.bisect_left(values, True, key=matches_every_row)])


def test_pole_match_error_is_the_bottleneck_value():
    rng = np.random.default_rng(7)
    for case in range(600):
        n = int(rng.integers(1, 9))
        desired = rng.normal(size=n) + 1j * rng.normal(size=n) * (case % 2)
        if case % 3 == 0 and n > 1:  # repeated targets
            desired[rng.integers(1, n)] = desired[0]
        noise = rng.normal(size=n) + 1j * rng.normal(size=n)
        achieved = rng.permutation(desired) + 10.0 ** rng.uniform(-14, 0.5) * noise
        cost = _costs(achieved, desired)
        value = pole_match_error(achieved, desired)
        assert value == _bottleneck_oracle(cost)
        # a minimum-sum matching is one matching, so its largest cost bounds the value,
        # and with distinct nearest targets both are the largest nearest distance
        rows, cols = linear_sum_assignment(cost)
        assert value <= cost[rows, cols].max()
        if len(set(cost.argmin(axis=1).tolist())) == n:
            assert value == cost[rows, cols].max() == cost.min(axis=1).max()
    # both achieved poles are nearest to 0.05; matching 0.1 to 5.0 costs 4.9
    assert pole_match_error([0.0, 0.1], [0.05, 5.0]) == _costs([0.1], [5.0])[0, 0]


def test_pole_match_error_can_undercut_the_minimum_sum_matching():
    # the minimum sum 0 + 3*sqrt(2) pairs 0 -> 0 and 3i -> 3; 3 + 3 pairs 0 -> 3 and 3i -> 0
    achieved, desired = [0.0, 3j], [0.0, 3.0]
    cost = _costs(achieved, desired)
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() == cost[1, 1] > 4.0
    assert pole_match_error(achieved, desired) == 3.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(-1.0, float("nan"))])
def test_pole_match_error_of_a_nonfinite_pole_is_inf(bad):
    # inf fails the placement gate; a nan compares false with the tolerance either way
    assert pole_match_error([bad, -2.0], [-1.0, -2.0]) == float("inf")
    assert pole_match_error([-1.0, -2.0], [-1.0, bad]) == float("inf")


@st.composite
def _grid_pole_lists(draw):
    # poles on a 5 x 5 integer grid, so ties in the nearest target are frequent
    n = draw(st.integers(1, 6))
    pole = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
    achieved = draw(st.lists(pole, min_size=n, max_size=n))
    desired = draw(st.lists(pole, min_size=n, max_size=n))
    return achieved, desired, draw(st.permutations(achieved)), draw(st.permutations(desired))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_grid_pole_lists())
def test_pole_match_error_is_the_brute_force_minimum_over_matchings(case):
    achieved, desired, shuffled_achieved, shuffled_desired = case
    cost = _costs(achieved, desired)
    n = len(achieved)
    brute = min(max(cost[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n)))
    assert pole_match_error(achieved, desired) == brute
    assert pole_match_error(shuffled_achieved, shuffled_desired) == brute


# --- helpers ------------------------------------------------------------

def test_default_poles_avoid_collisions():
    assert default_poles(3, "continuous", 0.0, avoid=[-1.0]) == [-1.25, -1.5, -2.0]
    assert default_poles(3, "discrete") == [0.5, 0.45, 0.4]


def test_closed_loop_eigenvalues_match_gain(examples_dir):
    sys = load_system(examples_dir / "planar_cubic.stab")
    gain = synthesize(sys)
    lam = spectrum(A2 + B2 @ gain.k)
    assert pole_match_error(lam, gain.achieved_poles) <= 1e-12


def test_gain_is_frozen(examples_dir):
    gain = synthesize(load_system(examples_dir / "planar_cubic.stab"))
    with pytest.raises(ValueError):
        gain.k[0, 0] = 0.0
    assert isinstance(gain, FeedbackGain)


def test_gain_expressions_round_trip(examples_dir):
    sys = load_system(examples_dir / "planar_cubic.stab")
    gain = synthesize(sys)
    rendered = gain_expressions(gain, sys)
    assert rendered == ["-1.5*x1 + -2.5*x2"]
    tree = ex.parse_expr(rendered[0])
    for x in ([0.3, -0.7], [1.0, 2.0], [0.0, 0.0]):
        want = float(gain.k[0] @ np.asarray(x))
        assert ex.eval_expr(tree, x, []) == pytest.approx(want, abs=1e-12)


def test_gain_expressions_shifted_equilibrium():
    sys = system_from_strings(
        "continuous", ["x2 - 2", "u1 + 1"], x_eq=[0.0, 2.0], u_eq=[-1.0], m=1
    )
    gain = synthesize(sys)
    rendered = gain_expressions(gain, sys)
    tree = ex.parse_expr(rendered[0])
    for x in ([0.0, 2.0], [0.5, 1.0], [-1.0, 3.0]):
        dx = np.asarray(x) - np.asarray(sys.x_eq)
        want = sys.u_eq[0] + float(gain.k[0] @ dx)
        assert ex.eval_expr(tree, x, []) == pytest.approx(want, abs=1e-12)
    assert ex.eval_expr(tree, list(sys.x_eq), []) == pytest.approx(-1.0, abs=1e-12)
