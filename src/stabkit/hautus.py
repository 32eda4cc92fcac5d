"""Spectral classification and rank tests on the linearization.

Continuous mode classifies eigenvalues with nonnegative real part as
unstable; discrete mode uses modulus at least one.  The classification is
deliberately conservative: anything within the classification tolerance of
the boundary is treated as unstable and additionally listed as a boundary
warning, so downstream sufficiency tests err toward demanding more margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import complex_pencil_rank, rank_from_singular_values, spectrum
from .system import CONTINUOUS, DISCRETE, Linearization

TOL_CLASS = 1e-8


def format_eigenvalue(z: complex) -> str:
    """Render an eigenvalue compactly, dropping a numerically zero imag part."""
    z = complex(z)
    if abs(z.imag) <= 1e-12:
        return f"{z.real:.12g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g}{sign}{abs(z.imag):.12g}j"


@dataclass(frozen=True)
class SpectralProfile:
    """Classified spectrum of the state Jacobian."""

    eigenvalues: tuple[complex, ...]
    unstable: tuple[complex, ...]
    unstable_real_only: bool
    eta: float
    eta_tilde: float
    boundary_warnings: tuple[complex, ...]


@dataclass(frozen=True)
class HautusResult:
    holds: bool
    failures: tuple[complex, ...]


def spectral_profile(a, mode: str, tol_class: float = TOL_CLASS) -> SpectralProfile:
    """Classify the spectrum of A for the given mode.

    eta is the supremum of the real members of the unstable set (signed, -inf
    when there are none); eta_tilde is the largest modulus over the whole
    spectrum.
    """
    if mode not in (CONTINUOUS, DISCRETE):
        raise ValueError(f"mode must be continuous or discrete, got {mode!r}")
    values = spectrum(a)
    eigenvalues = tuple(complex(v) for v in values)
    if mode == CONTINUOUS:
        unstable = tuple(v for v in eigenvalues if v.real >= -tol_class)
        boundary = tuple(v for v in eigenvalues if abs(v.real) <= tol_class)
    else:
        unstable = tuple(v for v in eigenvalues if abs(v) >= 1.0 - tol_class)
        boundary = tuple(v for v in eigenvalues if abs(abs(v) - 1.0) <= tol_class)
    real_members = [v.real for v in unstable if abs(v.imag) <= tol_class]
    eta = max(real_members) if real_members else -math.inf
    eta_tilde = max((abs(v) for v in eigenvalues), default=0.0)
    unstable_real_only = all(abs(v.imag) <= tol_class for v in unstable)
    return SpectralProfile(
        eigenvalues=eigenvalues,
        unstable=unstable,
        unstable_real_only=unstable_real_only,
        eta=eta,
        eta_tilde=float(eta_tilde),
        boundary_warnings=boundary,
    )


def _distinct(values: tuple[complex, ...], tol: float = 1e-9) -> list[complex]:
    """Collapse eigenvalue clusters so each test point is checked once."""
    kept: list[complex] = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        if not any(abs(v - w) <= tol * (1.0 + abs(w)) for w in kept):
            kept.append(v)
    return kept


def kalman_matrix(a, b) -> np.ndarray:
    """Controllability matrix [B, AB, ..., A^(n-1) B]."""
    a_arr = np.asarray(a, dtype=float)
    blocks = [np.asarray(b, dtype=float)]
    for _ in range(a_arr.shape[0] - 1):
        blocks.append(a_arr @ blocks[-1])
    return np.hstack(blocks)


def controllable_subspace(lin: Linearization, tol: float | None = None) -> tuple[np.ndarray, int]:
    """Orthogonal T whose leading dim columns span the controllable subspace, and dim.

    T holds the left singular vectors of [B, AB, ..., A^(n-1) B] and dim is its
    rank, so T' A T is block upper triangular with the controllable pair leading.
    The SVD does not depend on the tol and is kept on ``lin``: ``analyze``
    reports the rank of the SVD whose block ``synthesize`` places.
    """
    svd = lin._controllability.get("kalman")
    if svd is None:
        with np.errstate(over="ignore", invalid="ignore"):  # A and B are finite
            kalman = kalman_matrix(lin.a, lin.b)
        if not np.all(np.isfinite(kalman)):
            raise ValueError("the Kalman matrix [B, AB, ..., A^(n-1) B] overflows")
        # the matrix is n x nm, so the reduced U is square whenever m >= 1
        t, svals, _ = np.linalg.svd(kalman, full_matrices=False)
        if not np.all(np.isfinite(svals)):  # an infinite cutoff would read rank 0
            raise ValueError("a singular value of the Kalman matrix overflows the float range")
        svd = lin._controllability["kalman"] = (t, svals, kalman.shape)
    t, svals, shape = svd
    return t, rank_from_singular_values(svals, shape, tol)


def hautus_tests(
    lin: Linearization, unstable, eigenvalues, tol: float | None = None
) -> tuple[HautusResult, bool]:
    """Both Hautus tests, ranking [A - lam I | B] once per distinct eigenvalue.

    The first holds when the rank is n at every unstable lam, the criterion
    for stabilizability; its failures are the cluster representatives of
    ``unstable``.  The second runs the test over ``eigenvalues``: over the
    whole spectrum it is equivalent to Kalman rank n.  Each pencil is ranked
    as a complex matrix under the cutoff every other rank uses, so at lam = 0
    the test agrees with the openness rank of [A | B].

    A and B are real, so a conjugate pair shares one rank, taken at its member
    with imag >= 0 and kept on ``lin`` with the tol: ``synthesize`` reuses the
    ranks ``analyze`` took on the same system.
    """
    n = lin.a.shape[0]
    ranks = lin._controllability

    def full_rank(lam: complex) -> bool:
        key = (lam if lam.imag >= 0 else lam.conjugate(), tol)
        rank = ranks.get(key)
        if rank is None:
            rank = ranks[key] = complex_pencil_rank(lin.a, key[0], lin.b, tol)
        return rank == n

    failures = tuple(lam for lam in _distinct(unstable) if not full_rank(lam))
    full = all(full_rank(lam) for lam in _distinct(eigenvalues))
    return HautusResult(holds=not failures, failures=failures), full
