"""Spectral classification and stabilizability rank tests."""

import math

import numpy as np
import pytest

from perfbench.workloads import large_systems
from stabkit import hautus
from stabkit.hautus import (
    _distinct,
    controllable_subspace,
    format_eigenvalue,
    hautus_tests,
    spectral_profile,
)
from stabkit.linalg import complex_pencil_rank, spectrum
from stabkit.system import Linearization, jacobian, load_system, parse_system
from stabkit.synthesis import PlacementError, UncontrollableError, synthesize
from stabkit.verdict import AnalysisConfig, analyze

SQRT_TENTH = 0.31622776601683794


def test_profile_three_state(examples_dir):
    lin = jacobian(load_system(examples_dir / "three_state_mixed.stab"))
    prof = spectral_profile(lin.a, "continuous")
    assert prof.eta == pytest.approx(SQRT_TENTH, abs=1e-12)
    assert prof.eta_tilde == pytest.approx(SQRT_TENTH, abs=1e-12)
    assert prof.unstable_real_only
    assert len(prof.unstable) == 2
    # the zero eigenvalue sits on the boundary and is flagged
    assert any(abs(v) <= 1e-8 for v in prof.boundary_warnings)


def test_profile_conservative_boundary_inclusion():
    prof = spectral_profile([[0.0, 1.0], [0.0, 0.0]], "continuous")
    assert len(prof.unstable) == 2
    assert prof.eta == pytest.approx(0.0, abs=1e-12)
    assert len(prof.boundary_warnings) == 2


def test_profile_stable_matrix_has_empty_unstable_set():
    prof = spectral_profile([[-1.0, 0.0], [0.0, -2.0]], "continuous")
    assert prof.unstable == ()
    assert prof.eta == -math.inf
    assert prof.eta_tilde == pytest.approx(2.0)


def test_profile_discrete_unit_circle():
    prof = spectral_profile([[1.5]], "discrete")
    assert prof.unstable == (1.5 + 0j,)
    assert prof.eta == pytest.approx(1.5)
    prof = spectral_profile([[0.5]], "discrete")
    assert prof.unstable == ()
    prof = spectral_profile([[1.0]], "discrete")
    assert len(prof.unstable) == 1
    assert len(prof.boundary_warnings) == 1


def test_profile_complex_pair_not_real_only():
    prof = spectral_profile([[1.0, -2.0], [2.0, 1.0]], "continuous")
    assert not prof.unstable_real_only
    assert prof.eta == -math.inf  # no real unstable member
    assert prof.eta_tilde == pytest.approx(abs(complex(1, 2)))


def test_profile_rejects_bad_mode():
    with pytest.raises(ValueError):
        spectral_profile(np.eye(2), "sampled")


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_profile_whose_modulus_overflows_raises(mode):
    # eigenvalues 1.5e308 +- 1.5e308j, whose modulus Python's abs() cannot return
    a = [[1.5e308, -1.5e308], [1.5e308, 1.5e308]]
    with pytest.raises(ValueError, match="eigenvalue's modulus overflows"):
        spectral_profile(a, mode)
    spec = parse_system(f"mode {mode}\nstates 2\ncontrols 1\neq x = 0 0\neq u = 0\n"
                        "f1 = 1.5e308*x1 - 1.5e308*x2\nf2 = 1.5e308*x1 + 1.5e308*x2 + u1\n")
    with pytest.raises(ValueError, match="eigenvalue's modulus overflows"):
        synthesize(spec)


def test_hautus_holds_on_controllable_fixtures(examples_dir):
    for name in ("planar_cubic", "three_state_mixed"):
        lin = jacobian(load_system(examples_dir / f"{name}.stab"))
        prof = spectral_profile(lin.a, "continuous")
        result, full = hautus_tests(lin, prof.unstable, prof.eigenvalues)
        assert result.holds
        assert result.failures == ()
        assert full


def test_hautus_fails_at_unreachable_unstable_mode(examples_dir):
    lin = jacobian(load_system(examples_dir / "unstable_drift.stab"))
    prof = spectral_profile(lin.a, "continuous")
    result, full = hautus_tests(lin, prof.unstable, prof.eigenvalues)
    assert not result.holds
    assert any(abs(v - 1.0) <= 1e-9 for v in result.failures)
    assert not full
    # the stable direction is still reachable, so the Kalman rank is 1
    assert controllable_subspace(lin)[1] == 1


def _kalman_rank(a, b):
    return controllable_subspace(Linearization(a, b))[1]


def test_kalman_rank_known_pairs():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    assert _kalman_rank(a, b) == 2
    assert _kalman_rank(np.zeros((2, 2)), np.zeros((2, 1))) == 0


def test_kalman_singular_value_that_overflows_raises():
    # [B, AB] = [[1.2e308, 1.2e308], [0, 1.2e308]] has finite entries and sigma_max = inf
    with pytest.raises(ValueError, match="singular value of the Kalman matrix overflows"):
        _kalman_rank(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[1.2e308], [0.0]]))


def _random_pair(rng, controllable):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 3))
    if controllable:
        while True:
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(n, m))
            if _kalman_rank(a, b) == n:
                return a, b, True
    k = int(rng.integers(1, n))  # dimension of the reachable block
    while True:
        a_c = rng.normal(size=(k, k))
        b_c = rng.normal(size=(k, m))
        if _kalman_rank(a_c, b_c) == k:
            break
    a = np.zeros((n, n))
    a[:k, :k] = a_c
    a[k:, k:] = rng.normal(size=(n - k, n - k))
    a[:k, k:] = rng.normal(size=(k, n - k))
    b = np.vstack([b_c, np.zeros((n - k, m))])
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q.T @ a @ q, q.T @ b, False


def test_full_spectrum_hautus_equals_kalman():
    rng = np.random.default_rng(21)
    for trial in range(60):
        a, b, controllable = _random_pair(rng, controllable=trial % 2 == 0)
        n = a.shape[0]
        assert (_kalman_rank(a, b) == n) == controllable
        assert hautus_tests(Linearization(a, b), (), spectrum(a))[1] == controllable


def test_full_spectrum_implies_asymptotic():
    rng = np.random.default_rng(22)
    for _ in range(40):
        a, b, _ = _random_pair(rng, controllable=True)
        prof = spectral_profile(a, "continuous")
        assert hautus_tests(Linearization(a, b), prof.unstable, ())[0].holds


def _separate_hautus_tests(a, b, prof):
    """Reference: the asymptotic and full-spectrum tests as two separate loops."""
    n = a.shape[0]
    failures = tuple(
        lam for lam in _distinct(prof.unstable) if complex_pencil_rank(a, lam, b) < n
    )
    eigenvalues = tuple(complex(v) for v in spectrum(a))
    full = all(complex_pencil_rank(a, lam, b) == n for lam in _distinct(eigenvalues))
    return failures, full


def test_shared_pencil_ranks_match_the_separate_tests():
    rng = np.random.default_rng(23)
    cases = [(*_random_pair(rng, controllable=trial % 2 == 0)[:2], mode)
             for trial in range(60) for mode in ("continuous", "discrete")]
    for g in large_systems(0, False):
        lin = jacobian(parse_system(g.text))
        cases.append((lin.a, lin.b, g.mode))
    outcomes = set()
    for a, b, mode in cases:
        prof = spectral_profile(a, mode)
        haut, full = hautus_tests(Linearization(a, b), prof.unstable, prof.eigenvalues)
        assert (haut.failures, full) == _separate_hautus_tests(a, b, prof)
        assert haut.holds == (not haut.failures)
        outcomes.add((haut.holds, full))
    # both tests pass and fail somewhere on these pairs
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_analyze_ranks_each_eigenvalue_once(monkeypatch, examples_dir):
    ranked = []

    def counted(a, lam, b, tol=None):
        ranked.append(lam)
        return complex_pencil_rank(a, lam, b, tol)

    monkeypatch.setattr(hautus, "complex_pencil_rank", counted)
    specs = [load_system(path) for path in sorted(examples_dir.glob("*.stab"))]
    specs += [parse_system(g.text) for g in large_systems(0, False) if g.n <= 30]
    unstable_seen = 0
    for spec in specs:
        ranked.clear()
        prof = analyze(spec).profile
        assert len(ranked) == len(set(ranked)) <= len(prof.eigenvalues)
        # a conjugate pair is ranked once, at its member in the upper half-plane
        assert all(lam.imag >= 0 for lam in ranked)
        unstable_seen += bool(prof.unstable)
    assert unstable_seen >= len(specs) // 2


@pytest.mark.parametrize("cfg", [AnalysisConfig(),
                                 AnalysisConfig(tol_rank=1e-7, tol_class=1e-6)])
def test_synthesize_after_analyze_ranks_no_pencil(monkeypatch, examples_dir, cfg):
    ranked = []

    def counted(a, lam, b, tol=None):
        ranked.append(lam)
        return complex_pencil_rank(a, lam, b, tol)

    monkeypatch.setattr(hautus, "complex_pencil_rank", counted)
    specs = [load_system(path) for path in sorted(examples_dir.glob("*.stab"))]
    specs += [parse_system(g.text) for g in large_systems(0, False) if g.n <= 30]
    unstable_seen = 0
    for spec in specs:
        unstable_seen += bool(analyze(spec, cfg).profile.unstable)
        ranked.clear()
        # the tolerances as the synthesize command passes them
        try:
            synthesize(spec, seed=cfg.seed, tol=cfg.tol_rank, tol_class=cfg.tol_class)
        except (PlacementError, UncontrollableError):
            pass
        assert ranked == []
    assert unstable_seen >= len(specs) // 2


def test_analyze_then_synthesize_take_one_kalman_svd(monkeypatch, examples_dir):
    # at n = 1 the Kalman matrix is B, which the affine structure and place_poles rank too
    specs = [load_system(path) for path in sorted(examples_dir.glob("*.stab"))]
    specs += [parse_system(g.text) for g in large_systems(0, False) if g.n == 10]
    svd = np.linalg.svd
    for spec in (s for s in specs if s.n > 1):
        lin = jacobian(spec)
        kalman = hautus.kalman_matrix(lin.a, lin.b)
        taken = []

        def counted(m, *args, **kwargs):
            taken.append(np.shape(m) == kalman.shape and np.array_equal(m, kalman))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        analyze(spec)
        try:
            synthesize(spec)
        except (PlacementError, UncontrollableError):
            pass
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert taken.count(True) == 1


def test_format_eigenvalue():
    assert format_eigenvalue(1 + 0j) == "1"
    assert format_eigenvalue(-0.5 + 0.25j) == "-0.5+0.25j"
    assert format_eigenvalue(-0.5 - 0.25j) == "-0.5-0.25j"
