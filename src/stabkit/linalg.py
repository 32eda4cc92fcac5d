"""Dense linear-algebra kernels shared by the analysis pipeline.

Everything here targets desk-scale problems (state dimension up to 50) and
leans on LAPACK through numpy; the value added is the rank-tolerance policy,
which every rank in stabkit, real or complex, reads from one function here.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 50
# cap on the floats one run stores (64 MiB): a trajectory's states, a
# validation's norms, the covering search's grid and each of its distance
# blocks, the affine span estimate's stack; every CLI default at n <= 50 fits.
# A run's time grid, one float per grid point, is not counted, so a one-sample
# validation holds up to twice the cap
MAX_STORED_FLOATS = 1 << 23
DEFAULT_RANK_SCALE = 1e-9


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def distances(columns, targets: np.ndarray) -> np.ndarray:
    """Euclidean distances from points, given one coordinate column at a time, to targets.

    ``columns[k]`` holds coordinate k of the points and broadcasts against
    ``targets[..., k]``: (rows,) columns against (rows, n) targets pair the
    rows up, (samples,) columns against (targets, 1, n) targets give the
    (targets, samples) matrix.  Squared gaps are summed in place in
    coordinate order.  ``np.add.reduce`` sums a last axis shorter than 8 in
    that order, so below n = 8 the result equals ``np.linalg.norm(points -
    targets, axis=-1)`` bit for bit; from 8 on numpy sums in 8 pairwise
    lanes and the two may differ in the last bit.
    """
    total = None
    for k, column in enumerate(columns):
        gap = column - targets[..., k]
        gap *= gap
        total = gap if total is None else np.add(total, gap, out=total)
    return np.sqrt(total, out=total)


def spectrum(a) -> np.ndarray:
    """Eigenvalues of a square matrix, sorted by (real, imaginary) part."""
    arr = _as_matrix(a)
    rows, cols = arr.shape
    if rows != cols:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if rows > MAX_DIM:
        raise ValueError(f"dimension {rows} exceeds the supported cap of {MAX_DIM}")
    values = np.linalg.eigvals(arr)
    # Python's abs() of an eigenvalue whose modulus overflows raises OverflowError
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(np.abs(values))):
            raise ValueError("an eigenvalue's modulus overflows the float range")
    order = np.lexsort((values.imag, values.real))
    return values[order]


def singular_values(m) -> np.ndarray:
    """Singular values in descending order; raises ValueError if one is not finite."""
    arr = np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    svals = np.linalg.svd(arr, compute_uv=False)
    # an infinite sigma_max makes the rank cutoff infinite, and every rank 0
    if not np.all(np.isfinite(svals)):
        raise ValueError("a singular value overflows the float range")
    return svals


def rank_tolerance(svals: np.ndarray, shape: tuple[int, int]) -> float:
    """Default rank cutoff: 1e-9 * sigma_max * max(shape)."""
    largest = float(svals[0]) if len(svals) else 0.0
    return DEFAULT_RANK_SCALE * largest * max(shape)


def rank_from_singular_values(svals: np.ndarray, shape: tuple[int, int],
                              tol: float | None = None) -> int:
    """Number of singular values strictly above ``tol``, by default
    :func:`rank_tolerance` of the matrix they came from."""
    if tol is None:
        tol = rank_tolerance(svals, shape)
    return int(np.count_nonzero(svals > tol))


def numerical_rank(m, tol: float | None = None) -> int:
    """Number of singular values strictly above the tolerance."""
    arr = np.asarray(m)
    return rank_from_singular_values(singular_values(arr), arr.shape, tol)


def complex_pencil_rank(a, lam: complex, b, tol: float | None = None) -> int:
    """Rank over the complex numbers of [A - lam*I | B].

    The complex pencil is ranked as it is, under the same cutoff as any real
    matrix of its shape, so at lam = 0 this is the rank of [A | B].
    """
    a_arr = _as_matrix(a, "a")
    b_arr = _as_matrix(b, "b")
    n = a_arr.shape[0]
    if a_arr.shape[1] != n:
        raise ValueError("a must be square")
    if b_arr.shape[0] != n:
        raise ValueError("a and b must have the same number of rows")
    with np.errstate(over="ignore"):  # an entry past the largest float is rejected below
        pencil = np.hstack([a_arr - complex(lam) * np.eye(n), b_arr])
    return numerical_rank(pencil, tol)
