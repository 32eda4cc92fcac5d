"""Dense kernels: distances, spectrum, singular values, numerical rank, complex pencil rank."""

import numpy as np
import pytest

from perfbench import gen
from stabkit.linalg import (
    MAX_DIM,
    complex_pencil_rank,
    distances,
    numerical_rank,
    rank_tolerance,
    singular_values,
    spectrum,
)
from stabkit.openness import openness_report
from stabkit.system import Linearization, jacobian, load_system

SQRT_TENTH = 0.31622776601683794


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_distances_match_norm_bit_for_bit(n):
    # below n = 8 numpy sums in coordinate order too; from 8 on it does not,
    # and callers there use np.linalg.norm itself
    rng = np.random.default_rng(n)
    buffer = rng.standard_normal(40 * 9 * n) * 10.0 ** rng.integers(-8, 8, 40 * 9 * n)
    points = buffer.reshape(40, 9, n)
    targets = rng.standard_normal(n)
    # the contiguous block, and a subset of its rows as a strided view
    for block in (points, points[:, 1:7:2], points[5, ::3]):
        expected = np.linalg.norm(block - targets, axis=-1)
        got = distances(np.moveaxis(block, -1, 0), targets)
        assert got.shape == expected.shape
        assert (got.view(np.int64) == expected.view(np.int64)).all()


@pytest.mark.parametrize("call, message", [
    (lambda: spectrum([1.0, 2.0]), r"matrix must be 2-dimensional, got shape \(2,\)"),
    (lambda: singular_values(np.ones(3)), r"expected a matrix, got shape \(3,\)"),
    (lambda: complex_pencil_rank(np.ones((2, 3)), 0.0, np.ones((2, 1))), "a must be square"),
    (lambda: complex_pencil_rank(np.eye(2), 0.0, np.ones((3, 1))),
     "a and b must have the same number of rows"),
])
def test_malformed_matrices_are_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_spectrum_known_matrices():
    np.testing.assert_allclose(spectrum([[0.0, 1.0], [0.0, 0.0]]), [0.0, 0.0], atol=1e-12)
    a = [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.1, 0.0, 0.0]]
    values = sorted(spectrum(a), key=lambda z: z.real)
    assert values[0].real == pytest.approx(-SQRT_TENTH, abs=1e-12)
    assert values[1].real == pytest.approx(0.0, abs=1e-12)
    assert values[2].real == pytest.approx(SQRT_TENTH, abs=1e-12)
    assert all(abs(v.imag) < 1e-12 for v in values)


def test_spectrum_ordering_deterministic():
    a = [[0.0, -2.0], [2.0, 0.0]]
    values = spectrum(a)
    # sorted by (imag, real): -2j before +2j
    assert values[0].imag < values[1].imag


def test_spectrum_trace_det_consistency():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        values = spectrum(a)
        assert sum(values).real == pytest.approx(np.trace(a), rel=1e-8, abs=1e-8)
        assert np.prod(values).real == pytest.approx(np.linalg.det(a), rel=1e-6, abs=1e-8)


def test_spectrum_similarity_invariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        before = sorted(spectrum(a), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        after = sorted(spectrum(q @ a @ q.T), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        np.testing.assert_allclose(before, after, atol=1e-6)


def test_spectrum_rejects_bad_input():
    with pytest.raises(ValueError):
        spectrum([[1.0, 2.0]])
    with pytest.raises(ValueError):
        spectrum(np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        spectrum(np.eye(MAX_DIM + 1))


def test_spectrum_whose_modulus_overflows_raises():
    # eigenvalues 1.5e308 +- 1.5e308j: finite parts, a modulus past the largest float
    with pytest.raises(ValueError, match="eigenvalue's modulus overflows"):
        spectrum([[1.5e308, -1.5e308], [1.5e308, 1.5e308]])


def test_singular_values_that_overflow_raise():
    # sigma_max = 1.5e308 * sqrt(2): an infinite rank cutoff would read rank 0
    with pytest.raises(ValueError, match="singular value overflows"):
        singular_values([[1.5e308, 1.5e308]])
    with pytest.raises(ValueError, match="singular value overflows"):
        numerical_rank([[1.5e308, 1.5e308]])
    assert numerical_rank([[1e308, 1e308]]) == 1


def test_singular_values_descending_and_transpose_invariant():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 6))
    s = singular_values(m)
    assert all(s[i] >= s[i + 1] for i in range(len(s) - 1))
    np.testing.assert_allclose(s, singular_values(m.T), rtol=1e-12)


def test_numerical_rank_tiny_singular_value():
    assert numerical_rank([[1.0, 0.0], [0.0, 1e-15]]) == 1
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.zeros((2, 2))) == 0


def test_rank_tolerance_formula():
    svals = np.array([2.0, 1.0, 1e-12])
    assert rank_tolerance(svals, (3, 4)) == pytest.approx(1e-9 * 2.0 * 4)


def test_complex_pencil_rank_rotation_at_i():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    b = np.zeros((2, 1))
    assert complex_pencil_rank(a, 1j, b) == 1
    assert complex_pencil_rank(a, 2j, b) == 2


def test_complex_pencil_rank_uncontrollable_mode():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    assert complex_pencil_rank(a, 1.0, b) == 1
    assert complex_pencil_rank(a, 0.5, b) == 2


def _planted_pair(rng, n, m, factor):
    """Random [A | B] whose smallest singular value is ``factor`` times the
    default cutoff 1e-9 * sigma_max * (n + m)."""
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n + m, n)))
    svals = np.linspace(2.0, 1.0, n)
    svals[-1] = factor * 1e-9 * 2.0 * (n + m)
    stacked = u @ np.diag(svals) @ v.T
    return stacked[:, :n], stacked[:, n:]


def test_pencil_rank_at_zero_is_the_openness_rank(examples_dir):
    # [A - 0*I | B] is [A | B]: the Hautus and openness ranks must agree there
    rng = np.random.default_rng(9)
    pairs = [(np.diag([-5e-9, 0.0]), np.array([[0.0], [1.0]]))]
    pairs += [(rng.normal(size=(n, n)), rng.normal(size=(n, m)))
              for n, m in rng.integers(1, 7, size=(20, 2))]
    pairs += [_planted_pair(rng, n, m, factor)
              for n, m in ((2, 1), (5, 2), (8, 3)) for factor in (0.5, 1.5, 3.0)]
    for path in sorted(examples_dir.glob("*.stab")):
        lin = jacobian(load_system(path))
        pairs.append((lin.a, lin.b))
    for n in (10, 30, 50):
        g = gen.large_system(rng, f"large_{n}", "continuous", n)
        pairs.append((g.a, g.b))
    for a, b in pairs:
        for tol in (None, 1e-6):
            rank = openness_report(Linearization(a, b), tol).jacobian_rank
            assert complex_pencil_rank(a, 0.0, b, tol) == rank
    # the planted singular value counts exactly when it is above the cutoff
    for factor, rank in ((0.5, 3), (1.5, 4), (3.0, 4)):
        a, b = _planted_pair(rng, 4, 1, factor)
        assert complex_pencil_rank(a, 0.0, b) == rank
