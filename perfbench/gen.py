"""Seeded system generator with a known linearization.

Every generated system is written as

    f = [x*] + A (x - x*) + B (u - u*) + h.o.t.

where the bracketed constant appears in discrete mode only and every
higher-order term (cubes, squares, ``sin(.)*(.)`` products) vanishes together
with its gradient at the equilibrium.  The generator therefore knows the
exact Jacobians ``A`` and ``B`` and the equilibrium without calling stabkit,
which is what lets the oracle check stabkit's answers independently.

Only numpy is used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONTINUOUS = "continuous"
DISCRETE = "discrete"

# The README's planar example, verbatim, and the same system translated to
# x* = (1, 0).  Their linearizations are identical.
PLANAR_CUBIC = """# planar system with a cubic drift term
mode continuous
states 2
controls 1
eq x = 0 0
eq u = 0
f1 = x1^3 + x2
f2 = u1
"""
PLANAR_TRANSLATED = """# planar_cubic translated to x* = (1, 0)
mode continuous
states 2
controls 1
eq x = 1 0
eq u = 0
f1 = (x1 - 1)^3 + x2
f2 = u1
"""
PLANAR_A = np.array([[0.0, 1.0], [0.0, 0.0]])
PLANAR_B = np.array([[0.0], [1.0]])


@dataclass(frozen=True)
class GenSystem:
    """A generated system: its text and the facts the oracle checks against."""

    name: str
    mode: str
    a: np.ndarray
    b: np.ndarray
    x_eq: tuple[float, ...]
    u_eq: tuple[float, ...]
    text: str
    # By construction the verdict is positive (rule R1 / D1 holds with margin).
    expect_positive: bool

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]


def _num(v: float) -> str:
    return repr(float(v))


def _shifted(var: str, c: float) -> str:
    """``var - c`` as an expression, bare when c is zero."""
    if c == 0.0:
        return var
    sign = "-" if c > 0 else "+"
    return f"({var} {sign} {_num(abs(c))})"


def _join(terms: list[tuple[float, str | None]]) -> str:
    out = ""
    for coef, body in terms:
        if coef == 0.0:
            continue
        mag = _num(abs(coef))
        if body is None:
            piece = mag
        else:
            piece = body if abs(coef) == 1.0 else f"{mag}*{body}"
        if not out:
            out = piece if coef > 0 else f"-{piece}"
        else:
            out += f" + {piece}" if coef > 0 else f" - {piece}"
    return out or "0"


def system_text(name: str, mode: str, a: np.ndarray, b: np.ndarray,
                x_eq, u_eq, hot: list[list[tuple[float, str]]]) -> str:
    """Render ``[x*] + A(x - x*) + B(u - u*) + hot`` in the stabkit file format."""
    n, m = b.shape
    xs = [_shifted(f"x{j + 1}", x_eq[j]) for j in range(n)]
    us = [_shifted(f"u{k + 1}", u_eq[k]) for k in range(m)]
    lines = [
        f"# {name}",
        f"mode {mode}",
        f"states {n}",
        f"controls {m}",
        "eq x = " + " ".join(_num(v) for v in x_eq),
        "eq u = " + " ".join(_num(v) for v in u_eq),
    ]
    for i in range(n):
        terms: list[tuple[float, str | None]] = []
        if mode == DISCRETE and x_eq[i] != 0.0:
            terms.append((x_eq[i], None))
        terms += [(a[i, j], xs[j]) for j in range(n)]
        terms += [(b[i, k], us[k]) for k in range(m)]
        terms += hot[i]
        lines.append(f"f{i + 1} = {_join(terms)}")
    return "\n".join(lines) + "\n"


def _small_hot(rng: np.random.Generator, n: int, x_eq) -> list[list[tuple[float, str]]]:
    """One term per row, cycling sin product, cube, square; all second order at x*."""
    rows = []
    for i in range(n):
        j = (i + 1) % n
        xi = _shifted(f"x{i + 1}", x_eq[i])
        xj = _shifted(f"x{j + 1}", x_eq[j])
        c = float(np.round(rng.uniform(0.1, 0.5), 3))
        body = (f"sin({xi})*{xj}", f"{xj}^3", f"{xi}^2")[i % 3]
        rows.append([(c if i % 3 != 1 else -c, body)])
    return rows


def _positive_margin(a: np.ndarray, b: np.ndarray, mode: str) -> float:
    """Slack of the R1/D1 premise, cov - eta, computed with numpy alone.

    Returns -inf when the premise does not hold: the pair must be open
    (full row rank), have a real unstable spectrum, and be controllable.
    """
    n = a.shape[0]
    svals = np.linalg.svd(np.hstack([a, b]), compute_uv=False)
    cov = float(svals[-1])
    eig = np.linalg.eigvals(a)
    if mode == CONTINUOUS:
        unstable = eig[eig.real >= -1e-8]
    else:
        unstable = eig[np.abs(eig) >= 1.0 - 1e-8]
    if np.any(np.abs(unstable.imag) > 1e-8):
        return -np.inf
    ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n)])
    if np.linalg.matrix_rank(ctrb) < n:
        return -np.inf
    eta = float(np.max(unstable.real)) if len(unstable) else -np.inf
    return cov - eta if np.isfinite(eta) else cov


def small_system(rng: np.random.Generator, name: str, mode: str, n: int, m: int,
                 zero_x_eq: bool = False) -> GenSystem:
    """Small chain system whose verdict is positive by construction.

    A is upper bidiagonal (a chain x_i <- x_{i+1}, real spectrum on the
    diagonal) and the inputs enter the last m states, which keeps the
    expressions short: the closed-loop simulation evaluates them about a
    quarter of a million times per validation.  The draw is repeated until
    the R1 (continuous) or D1 (discrete) premise holds with a margin of 0.1
    and the pair is controllable.
    """
    lo, hi = (-1.5, 0.5) if mode == CONTINUOUS else (-0.6, 1.3)
    for _ in range(10_000):
        a = np.diag(np.round(rng.uniform(lo, hi, size=n), 3))
        a[np.arange(n - 1), np.arange(1, n)] = np.round(
            rng.uniform(0.5, 1.5, size=n - 1) * rng.choice([-1.0, 1.0], size=n - 1), 3)
        b = np.zeros((n, m))
        rows = np.arange(n - m, n)
        b[rows, rows - (n - m)] = np.round(
            rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m), 3)
        if _positive_margin(a, b, mode) > 0.1:
            break
    else:  # pragma: no cover - the acceptance rate is far above 1e-4
        raise RuntimeError(f"could not draw a positive {mode} system n={n} m={m}")
    if zero_x_eq:
        x_eq = (0.0,) * n
    else:
        x_eq = tuple(float(v) for v in np.round(rng.uniform(-1.0, 1.0, size=n), 3))
    u_eq = tuple(float(v) for v in np.round(rng.uniform(-1.0, 1.0, size=m), 3))
    text = system_text(name, mode, a, b, x_eq, u_eq, _small_hot(rng, n, x_eq))
    return GenSystem(name, mode, a, b, x_eq, u_eq, text, True)


def large_system(rng: np.random.Generator, name: str, mode: str, n: int) -> GenSystem:
    """The Baseline generator: dense random A, one sin(x_i)*x_{i+1} per row, u_{i mod 3 + 1}.

    The equilibrium is the origin; the verdict is not predicted.
    """
    m = 3
    a = rng.standard_normal((n, n))
    b = np.zeros((n, m))
    b[np.arange(n), np.arange(n) % m] = 1.0
    hot = [[(1.0, f"sin(x{i + 1})*x{(i + 1) % n + 1}")] for i in range(n)]
    text = system_text(name, mode, a, b, (0.0,) * n, (0.0,) * m, hot)
    return GenSystem(name, mode, a, b, (0.0,) * n, (0.0,) * m, text, False)


def planar_systems() -> list[GenSystem]:
    """README planar_cubic and its copy translated to x* = (1, 0)."""
    return [
        GenSystem("planar_cubic", CONTINUOUS, PLANAR_A, PLANAR_B, (0.0, 0.0), (0.0,),
                  PLANAR_CUBIC, True),
        GenSystem("planar_translated", CONTINUOUS, PLANAR_A, PLANAR_B, (1.0, 0.0), (0.0,),
                  PLANAR_TRANSLATED, True),
    ]
