"""System definitions: file format, validation, linearization, structure.

A system is dx/dt = f(x, u) in continuous mode or x+ = f(x, u) in discrete
mode, with f given componentwise in the expression language and a designated
equilibrium (fixed point in discrete mode) that the right-hand side must
actually satisfy to 1e-9.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import expr as ex
from .linalg import MAX_DIM, MAX_STORED_FLOATS, numerical_rank

CONTINUOUS = "continuous"
DISCRETE = "discrete"
EQUILIBRIUM_TOL = 1e-9


class SystemFormatError(ValueError):
    """Malformed system file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SystemValidationError(ValueError):
    """System violates a structural invariant."""


@dataclass(frozen=True)
class SystemSpec:
    """Validated system description.

    Construction checks dimensions, variable indices and the equilibrium
    residual, so downstream code can assume a well-posed system.
    """

    n: int
    m: int
    mode: str
    components: tuple[ex.Expr, ...]
    x_eq: tuple[float, ...]
    u_eq: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "x_eq", tuple(float(v) for v in self.x_eq))
        object.__setattr__(self, "u_eq", tuple(float(v) for v in self.u_eq))
        if self.mode not in (CONTINUOUS, DISCRETE):
            raise SystemValidationError(f"mode must be continuous or discrete, got {self.mode!r}")
        if self.n < 1 or self.m < 1:
            raise SystemValidationError("need at least one state and one control")
        if self.n > MAX_DIM:
            raise SystemValidationError(
                f"state dimension {self.n} exceeds the supported cap of {MAX_DIM}"
            )
        if len(self.components) != self.n:
            raise SystemValidationError(
                f"expected {self.n} components, got {len(self.components)}"
            )
        if len(self.x_eq) != self.n or len(self.u_eq) != self.m:
            raise SystemValidationError("equilibrium dimensions do not match the system")
        for i, (max_x, max_u) in enumerate(self.plan.max_indices, start=1):
            if max_x > self.n:
                raise SystemValidationError(
                    f"component f{i} references x{max_x} but the system has n={self.n}"
                )
            if max_u > self.m:
                raise SystemValidationError(
                    f"component f{i} references u{max_u} but the system has m={self.m}"
                )
        try:
            values = evaluate(self, self.x_eq, self.u_eq)
        except ex.EvalError as err:
            raise SystemValidationError(f"evaluation failed at the equilibrium: {err}") from err
        # an overflowing or non-finite residual fails the test below, not with a warning
        with np.errstate(all="ignore"):
            residual = values - np.asarray(self.x_eq) if self.mode == DISCRETE else values
            norm = float(np.linalg.norm(residual))
        if not norm <= EQUILIBRIUM_TOL:
            raise SystemValidationError(
                f"equilibrium residual {norm:.3e} exceeds {EQUILIBRIUM_TOL:.0e}"
            )
        # a non-finite x* or u* can still leave a zero residual (f1 = u1, x* = nan)
        if not np.isfinite(self.x_eq + self.u_eq).all():
            raise SystemValidationError("equilibrium values must be finite")

    @cached_property
    def plan(self) -> ex.TermPlan:
        """The components' term plan, which the field and the Jacobian read."""
        return ex.term_plan(self.components, self.n, self.m)

    @cached_property
    def _linearization(self) -> Linearization:
        return jacobian(self, self.x_eq, self.u_eq)


def evaluate(system: SystemSpec, x: Sequence[float], u: Sequence[float]) -> np.ndarray:
    """Exact scalar evaluation of f at one point."""
    return np.array([ex.eval_expr(comp, x, u) for comp in system.components])


def system_from_strings(
    mode: str,
    components: Sequence[str],
    x_eq: Sequence[float] | None = None,
    u_eq: Sequence[float] | None = None,
    m: int | None = None,
) -> SystemSpec:
    """Build a system from component strings; dimensions are inferred."""
    parsed = tuple(ex.parse_expr(text) for text in components)
    n = len(parsed)
    if m is None:
        m = max((ex.max_indices(c)[1] for c in parsed), default=0) or 1
    if x_eq is None:
        x_eq = (0.0,) * n
    if u_eq is None:
        u_eq = (0.0,) * m
    return SystemSpec(n, m, mode, parsed, tuple(x_eq), tuple(u_eq))


# --- file format ----------------------------------------------------------
#
#   # comment
#   mode continuous
#   states 2
#   controls 1
#   eq x = 0 0
#   eq u = 0
#   f1 = x1^3 + x2
#   f2 = u1


def parse_system(text: str) -> SystemSpec:
    mode: str | None = None
    n: int | None = None
    m: int | None = None
    x_eq: tuple[float, ...] | None = None
    u_eq: tuple[float, ...] | None = None
    component_lines: dict[int, tuple[str, int]] = {}
    seen: set[str] = set()  # each directive may appear once: a repeat is no override

    def claim(directive: str, lineno: int) -> None:
        if directive in seen:
            raise SystemFormatError(f"duplicate {directive}", lineno)
        seen.add(directive)

    def parse_floats(payload: str, lineno: int) -> tuple[float, ...]:
        try:
            return tuple(float(tok) for tok in payload.split())
        except ValueError:
            raise SystemFormatError(f"expected numbers, got {payload!r}", lineno) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # a key ends at whitespace or '=', as the expression grammar ignores whitespace
        key = re.match(r"[^\s=]+|=", line).group()
        rest = line[len(key):].strip()
        if key in ("mode", "states", "controls"):
            claim(f"{key} line", lineno)
        if key == "mode":
            if rest not in (CONTINUOUS, DISCRETE):
                raise SystemFormatError(f"mode must be continuous or discrete, got {rest!r}", lineno)
            mode = rest
        elif key == "states":
            try:
                n = int(rest)
            except ValueError:
                raise SystemFormatError(f"states expects an integer, got {rest!r}", lineno) from None
        elif key == "controls":
            try:
                m = int(rest)
            except ValueError:
                raise SystemFormatError(f"controls expects an integer, got {rest!r}", lineno) from None
        elif key == "eq":
            which, eq, payload = rest.partition("=")
            which = which.strip()
            if not eq or which not in ("x", "u"):
                raise SystemFormatError("expected 'eq x = ...' or 'eq u = ...'", lineno)
            claim(f"eq {which} line", lineno)
            values = parse_floats(payload, lineno)
            if which == "x":
                x_eq = values
            else:
                u_eq = values
        elif key.startswith("f") and key[1:].isdigit():
            name, eq, payload = line.partition("=")
            if not eq:
                raise SystemFormatError(f"expected '{key} = <expression>'", lineno)
            index = int(key[1:])
            claim(f"component f{index}", lineno)
            component_lines[index] = (payload.strip(), lineno)
        else:
            raise SystemFormatError(f"unrecognized directive {key!r}", lineno)

    for field in ("mode", "states", "controls", "eq x", "eq u"):
        if f"{field} line" not in seen:
            raise SystemFormatError(f"missing {field} line", len(text.splitlines()) or 1)
    assert mode is not None and n is not None and m is not None
    assert x_eq is not None and u_eq is not None

    # the first gap lies at or below len(component_lines) + 1, so a huge
    # states count costs no more than the lines the file holds
    missing = [i for i in range(1, min(n, len(component_lines) + 1) + 1)
               if i not in component_lines]
    if missing:
        raise SystemFormatError(f"missing component f{missing[0]}", len(text.splitlines()) or 1)
    extra = [i for i in component_lines if i < 1 or i > n]
    if extra:
        raise SystemFormatError(
            f"component f{extra[0]} is out of range for states {n}", component_lines[extra[0]][1]
        )

    components = []
    for i in range(1, n + 1):
        payload, lineno = component_lines[i]
        try:
            components.append(ex.parse_expr(payload))
        except ex.ParseError as err:
            raise SystemFormatError(f"in f{i}: {err}", lineno) from err
    return SystemSpec(n, m, mode, tuple(components), x_eq, u_eq)


def load_system(path: str | Path) -> SystemSpec:
    return parse_system(Path(path).read_text())


# --- linearization --------------------------------------------------------


@dataclass(frozen=True)
class Linearization:
    """Jacobians of f with respect to state (a) and control (b)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @cached_property
    def _controllability(self) -> dict:
        """Kept by ``hautus``: the rank of [A - lam I | B] under the key (lam with
        imag >= 0, tol), and the Kalman matrix's SVD under the key "kalman"."""
        return {}

    @property
    def augmented(self) -> np.ndarray:
        """The stacked matrix [A | B] whose smallest singular value matters."""
        return np.hstack([self.a, self.b])


def jacobian(system: SystemSpec, x: Sequence[float] | None = None,
             u: Sequence[float] | None = None) -> Linearization:
    """Exact Jacobians at a point (default: the equilibrium), via forward mode.

    The system's term plan reads each affine term's coefficient and walks
    each other term once with the rows of the identity as seeds; the rows
    equal one walk of each whole tree bit for bit.  The equilibrium
    linearization is computed once per spec instance and kept.
    """
    if x is None and u is None:
        return system._linearization
    x = tuple(system.x_eq if x is None else x)
    u = tuple(system.u_eq if u is None else u)
    n, m = system.n, system.m
    if len(x) != n or len(u) != m:
        raise ValueError(f"expected a point with n={n} states and m={m} controls, "
                         f"got {len(x)} and {len(u)}")
    with np.errstate(all="ignore"):  # overflow to inf/nan is silent, as with Python floats
        rows = ex.eval_gradients(system.plan, x, u)
    return Linearization(rows[:, :n].copy(), rows[:, n:].copy())


# --- structural analysis --------------------------------------------------

_ZERO = (math.inf, -math.inf)  # the zero polynomial has no terms


def degree_range(e: ex.Expr, kinds: tuple[type, ...]) -> tuple[float, float] | None:
    """Lowest and highest degree of e's terms in the variables of the given node kinds.

    None when e is not a polynomial in those variables; every other node is a
    constant.  A literal 0, and any product with one, is the zero polynomial
    and reads (inf, -inf).
    """
    kind = type(e)
    if kind is ex.BinOp:
        left = degree_range(e.lhs, kinds)
        right = degree_range(e.rhs, kinds)
        if left is None or right is None:
            return None
        if e.op in "+-":
            return min(left[0], right[0]), max(left[1], right[1])
        if e.op == "*":
            return _ZERO if _ZERO in (left, right) else (left[0] + right[0], left[1] + right[1])
        return left if right == (0, 0) else None
    if kind is ex.Const:
        return (0, 0) if e.value else _ZERO
    if kind is ex.Neg:
        return degree_range(e.arg, kinds)
    if kind is ex.Pow:
        base = degree_range(e.base, kinds)
        p = e.exponent
        if p == 0 or base == (0, 0):
            return 0, 0
        if base == _ZERO:
            return _ZERO
        if base is None or p < 0 or not float(p).is_integer():
            return None
        return base[0] * p, base[1] * p
    if kind is ex.Call:
        return (0, 0) if degree_range(e.arg, kinds) in ((0, 0), _ZERO) else None
    return (1, 1) if kind in kinds else (0, 0)


def is_affine_system(system: SystemSpec) -> bool:
    """True when every component is jointly affine in states and controls."""
    kinds = (ex.StateVar, ex.ControlVar)
    return all((deg := degree_range(comp, kinds)) is not None and deg[1] <= 1
               for comp in system.components)


def span_dimension_estimate(system: SystemSpec, radius: float, seed: int = 0) -> int:
    """Numerical dimension of the span of f's values near the equilibrium.

    x is drawn at max(64, 4n) points of the ball of the given radius around
    x* and u from a standard normal around u*; the result is the numerical
    rank of the stack of f(x, u) on its own scale, the same for f and c f.
    For f = g0 + sum gi ui and almost every draw of u, these values span
    what g0, ..., gm span at the drawn points: Brockett's condition read on
    f itself.  Deterministic for a fixed seed.
    """
    n, m = system.n, system.m
    samples = max(64, 4 * n)
    if not radius > 0:
        raise ValueError("radius must be positive")
    if samples * (n + m) > MAX_STORED_FLOATS:
        raise ValueError(
            f"the span estimate's {samples} points x {n + m} values "
            f"exceed the limit of {MAX_STORED_FLOATS} stored numbers")
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((samples, n))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random((samples, 1)) ** (1.0 / n)
    points = np.asarray(system.x_eq) + directions / norms * radii
    inputs = np.asarray(system.u_eq) + rng.standard_normal((samples, m))
    with np.errstate(all="ignore"):
        values = ex.eval_field(system.plan, points, inputs)
    if not np.all(np.isfinite(values)):
        raise ValueError("field evaluation produced non-finite values in the sample ball")
    return numerical_rank(values)
