"""Linear feedback synthesis for the stabilizable linearization.

The feedback convention is u = u* + K (x - x*), so at the zero equilibrium
of the worked examples the gain acts as u = K x.  Single-input placement
uses Ackermann's formula; multi-input placement solves a Sylvester equation
for a similarity bringing A + B K to a chosen stable block-diagonal form.
That form has 1x1 and 2x2 blocks, so the equation splits into one shifted
linear solve per block and needs numpy alone.  Partially controllable pairs
are first brought to an orthogonal basis of their controllable subspace
(``hautus.controllable_subspace``) and only the controllable block is placed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hautus import (
    TOL_CLASS,
    controllable_subspace,
    format_eigenvalue,
    hautus_tests,
    kalman_matrix,
    spectral_profile,
)
from .linalg import numerical_rank, spectrum
from .system import CONTINUOUS, SystemSpec, jacobian

PLACEMENT_TOL = 1e-6
_SYLVESTER_TRIES = 5


class UncontrollableError(RuntimeError):
    """The unstable part of the linearization is not controllable."""


class PlacementError(RuntimeError):
    """Pole placement could not reach the requested accuracy."""


@dataclass(frozen=True)
class FeedbackGain:
    """Linear feedback u = u* + K (x - x*) with its placement record."""

    k: np.ndarray
    target_poles: tuple[complex, ...]
    achieved_poles: tuple[complex, ...]
    mode: str

    def __post_init__(self):
        arr = np.asarray(self.k, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "k", arr)
        object.__setattr__(self, "target_poles", tuple(complex(v) for v in self.target_poles))
        object.__setattr__(self, "achieved_poles", tuple(complex(v) for v in self.achieved_poles))


def pole_match_error(achieved: Sequence[complex], desired: Sequence[complex]) -> float:
    """Smallest t for which some one-to-one matching keeps every
    |achieved - desired| <= t (the bottleneck value), or inf for a non-finite pole.

    t is at least the largest nearest-target distance, and is that bound when
    the nearest targets are distinct; the bound is tested first, then the costs
    above it are bisected (Burkard, Dell'Amico & Martello 2009, ch. 6).
    """
    ach = np.asarray(achieved, dtype=complex)
    des = np.asarray(desired, dtype=complex)
    if ach.shape != des.shape:
        raise ValueError("pole lists must have equal length")
    if len(ach) == 0:
        return 0.0
    cost = np.abs(ach[:, None] - des[None, :])
    if not np.all(np.isfinite(cost)):
        return float("inf")
    candidates = np.sort(cost[cost >= cost.min(axis=1).max()])
    lo, hi, mid = 0, len(candidates) - 1, 0  # any matching keeps within the largest cost
    while lo < hi:
        if _matches_every_row(cost <= candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    return float(candidates[lo])


def _matches_every_row(allowed: np.ndarray) -> bool:
    """Whether the boolean (rows, cols) graph matches each row to its own column, by
    Kuhn's augmenting paths: depth <= rows, and a row none reaches is never matched."""
    neighbours = [np.flatnonzero(row).tolist() for row in allowed]
    owner: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        for j in neighbours[i]:
            if j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(neighbours)))


def _real_block_form(desired: Sequence[complex], tol: float = 1e-9) -> list[complex]:
    """Blocks of a real block-diagonal matrix with the desired spectrum: each
    real pole, then one member with positive imaginary part per conjugate pair.

    Raises ValueError when a nonreal pole has no conjugate partner.
    """
    reals: list[complex] = []
    pairs: list[complex] = []
    pool = [complex(v) for v in desired]
    while pool:
        v = pool.pop()
        if abs(v.imag) <= tol:
            reals.append(complex(v.real))
            continue
        for i, w in enumerate(pool):
            if abs(w - v.conjugate()) <= tol * (1.0 + abs(v)):
                pool.pop(i)
                break
        else:
            raise ValueError(f"desired poles are not closed under conjugation near {v}")
        pairs.append(complex(v.real, abs(v.imag)))
    return reals + pairs


def _ackermann(a: np.ndarray, ctrb: np.ndarray, desired: Sequence[complex]) -> np.ndarray:
    n = a.shape[0]
    # poles near 1e160 overflow the polynomial's constant term; the gain check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.poly(np.asarray(desired, dtype=complex))
        if np.max(np.abs(coeffs.imag)) > 1e-9 * max(1.0, np.max(np.abs(coeffs.real))):
            raise ValueError("desired poles are not closed under conjugation")
        coeffs = coeffs.real
        phi = np.zeros((n, n))
        eye = np.eye(n)
        for c in coeffs:
            phi = phi @ a + c * eye
        last_unit = np.zeros(n)
        last_unit[-1] = 1.0
        try:
            z = np.linalg.solve(ctrb.T, last_unit)
        except np.linalg.LinAlgError as err:
            raise PlacementError(f"controllability matrix is numerically singular: {err}") from err
        k = -(z @ phi)[None, :]
    if not np.all(np.isfinite(k)):
        raise PlacementError("single-input placement overflows the float range: "
                             "Ackermann's formula gave a non-finite gain")
    return k


def _block_sylvester(a: np.ndarray, blocks: Sequence[complex], c: np.ndarray) -> np.ndarray:
    """X with A X - X T = C for the T whose blocks :func:`_real_block_form` lists.

    A real pole r of T gives (A - r I) x_j = c_j; a pole p + iq with q > 0
    stands for the block [[p, q], [-q, p]] and gives (A - (p + iq) I) z =
    c_j + i c_{j+1} with z = x_j + i x_{j+1} (Bhattacharyya & de Souza 1982).
    Every block goes through one stacked solve; raises
    ``np.linalg.LinAlgError`` when some A - lambda I is singular.
    """
    n = c.shape[0]
    lam = np.asarray(blocks, dtype=complex)
    pair = lam.imag != 0.0
    width = 1 + pair
    first = np.cumsum(width) - width
    rhs = c[:, first].T.astype(complex)
    rhs[pair] += 1j * c[:, first[pair] + 1].T
    z = np.linalg.solve(a - lam[:, None, None] * np.eye(n), rhs[..., None])[..., 0]
    x = np.empty_like(c)
    x[:, first] = z.real.T
    x[:, first[pair] + 1] = z[pair].imag.T
    return x


def _sylvester(a: np.ndarray, b: np.ndarray, desired: Sequence[complex],
               blocks: Sequence[complex], rng: np.random.Generator) -> np.ndarray:
    m = b.shape[1]
    for _ in range(_SYLVESTER_TRIES):
        g = rng.standard_normal((m, a.shape[0]))
        try:
            x = _block_sylvester(a, blocks, -b @ g)
        except np.linalg.LinAlgError as err:
            # a singular A - lambda I does not depend on G: a redraw fails the same way
            raise PlacementError(
                f"multi-input placement failed (last solver error: {err})") from err
        if not np.all(np.isfinite(x)) or np.linalg.cond(x) > 1e10:
            continue
        k = np.linalg.solve(x.T, g.T).T
        achieved = np.linalg.eigvals(a + b @ k)
        if pole_match_error(achieved, desired) <= PLACEMENT_TOL:
            return k
    raise PlacementError("multi-input placement failed after redraws")


def place_poles(a, b, desired: Sequence[complex],
                rng: np.random.Generator | None = None, tol: float | None = None) -> np.ndarray:
    """Gain K with the spectrum of A + B K at the desired poles.

    Requires a controllable pair and desired poles disjoint from the open-loop
    spectrum (the multi-input path needs the separation; the requirement is
    enforced uniformly), with the Kalman matrix ranked under ``tol``.  The
    achieved accuracy is validated to 1e-6 under a bottleneck matching.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    n = a_arr.shape[0]
    desired = [complex(v) for v in desired]
    if len(desired) != n:
        raise ValueError(f"expected {n} poles, got {len(desired)}")
    if n == 0:
        return np.zeros((b_arr.shape[1], 0))
    blocks = _real_block_form(desired)
    open_loop = np.linalg.eigvals(a_arr)
    scale = max(1.0, float(np.max(np.abs(open_loop))))
    for p in desired:
        if np.min(np.abs(open_loop - p)) <= 1e-9 * scale:
            raise ValueError(
                f"desired pole {p} collides with an open-loop eigenvalue; "
                "placement needs disjoint spectra"
            )
    ctrb = kalman_matrix(a_arr, b_arr)
    if numerical_rank(ctrb, tol) < n:
        raise UncontrollableError("the pair (A, B) is not controllable")
    if b_arr.shape[1] == 1:
        k = _ackermann(a_arr, ctrb, desired)
        achieved = np.linalg.eigvals(a_arr + b_arr @ k)
        if pole_match_error(achieved, desired) > PLACEMENT_TOL:
            raise PlacementError("single-input placement lost accuracy")
        return k
    if rng is None:
        rng = np.random.default_rng(0)
    return _sylvester(a_arr, b_arr, desired, blocks, rng)


def default_poles(count: int, mode: str, eta_tilde: float = 0.0,
                  avoid: Sequence[complex] = ()) -> list[float]:
    """Deterministic stable pole defaults, nudged off any avoided values."""
    taken = [complex(v) for v in avoid]
    spacing = 0.05 if count <= 20 else 0.95 / (count - 1)
    chosen: list[float] = []
    for i in range(count):
        p = -(eta_tilde + 1.0) - 0.5 * i if mode == CONTINUOUS else 0.5 - spacing * i
        while any(abs(p - v) <= 1e-6 for v in taken):
            p = p - 0.25 if mode == CONTINUOUS else 0.5 - ((0.5 - p + 0.0171) % 1.43)
        chosen.append(p)
        taken.append(complex(p))
    return chosen


def _stable(poles: Sequence[complex], mode: str) -> bool:
    """Whether every pole is finite and strictly inside the mode's stability region."""
    if mode == CONTINUOUS:
        return all(p.real < 0.0 and np.isfinite(p) for p in poles)
    return all(abs(p) < 1.0 for p in poles)


def synthesize(system: SystemSpec, poles: Sequence[complex] | None = None,
               seed: int = 0, tol: float | None = None,
               tol_class: float = TOL_CLASS) -> FeedbackGain:
    """Stabilizing gain for the linearization of the given system.

    Precondition: the Hautus test holds at every unstable eigenvalue, with
    the spectrum classified under ``tol_class`` as in the analysis; raises
    :class:`UncontrollableError` otherwise.  The returned gain is validated,
    i.e. the closed-loop spectrum is strictly stable for the system mode.
    """
    lin = jacobian(system)
    prof = spectral_profile(lin.a, system.mode, tol_class)
    haut = hautus_tests(lin, prof.unstable, (), tol)[0]
    if not haut.holds:
        joined = ", ".join(format_eigenvalue(v) for v in haut.failures)
        raise UncontrollableError(f"uncontrollable unstable mode at lambda={joined}")
    t, dim = controllable_subspace(lin, tol)
    a_c = (t.T @ lin.a @ t)[:dim, :dim]
    b_c = (t.T @ lin.b)[:dim, :]

    if poles is None:
        avoid = np.linalg.eigvals(a_c) if dim else []
        desired = [complex(p) for p in default_poles(dim, system.mode, prof.eta_tilde, avoid)]
    else:
        desired = [complex(p) for p in poles]
        if len(desired) != dim:
            raise ValueError(
                f"expected {dim} poles for the controllable block, got {len(desired)}"
            )
        bad = [p for p in desired if not _stable([p], system.mode)]
        if bad:
            raise ValueError(f"requested poles are not stable for {system.mode} mode: {bad}")

    k_c = place_poles(a_c, b_c, desired, rng=np.random.default_rng(seed), tol=tol)
    k_full = np.hstack([k_c, np.zeros((system.m, system.n - dim))]) @ t.T
    achieved = spectrum(lin.a + lin.b @ k_full)
    if not _stable(achieved, system.mode):
        raise PlacementError("closed-loop spectrum failed the stability validation")
    return FeedbackGain(
        k=k_full,
        target_poles=tuple(desired),
        achieved_poles=tuple(complex(v) for v in achieved),
        mode=system.mode,
    )


def gain_expressions(gain: FeedbackGain, system: SystemSpec) -> list[str]:
    """Render u = u* + K (x - x*) componentwise in the expression language."""
    k = np.asarray(gain.k, dtype=float)
    out = []
    for i in range(k.shape[0]):
        constant = system.u_eq[i] - float(k[i] @ np.asarray(system.x_eq))
        terms = []
        if constant != 0.0:
            terms.append(repr(constant))
        for j in range(k.shape[1]):
            if k[i, j] != 0.0:
                terms.append(f"{float(k[i, j])!r}*x{j + 1}")
        out.append(" + ".join(terms) if terms else "0")
    return out
