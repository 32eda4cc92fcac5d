"""Independent checks of stabkit's outputs.

Nothing here imports stabkit: the facts come from the generator (exact
Jacobians, equilibrium, whether the verdict must be positive) and the
checks use numpy and json only.  A check returns a list of problems and
never raises; the caller counts a non-empty list as a failed operation.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .gen import CONTINUOUS, GenSystem

JACOBIAN_RTOL = 1e-9
REPORT_KEYS = frozenset({
    "tool", "system", "linearization", "openness", "spectral", "hautus",
    "structure", "verdict", "gain", "validation",
})
DECISIONS = frozenset({
    "EXP_STABILIZABLE_CONT_FEEDBACK", "ASY_STABILIZABLE_CONT_FEEDBACK",
    "NOT_SMOOTHLY_EXP_STABILIZABLE", "NOT_SMOOTHLY_ASY_STABILIZABLE", "INCONCLUSIVE",
})
POSITIVE = frozenset({"EXP_STABILIZABLE_CONT_FEEDBACK", "ASY_STABILIZABLE_CONT_FEEDBACK"})


def linearization(g: GenSystem, a, b) -> list[str]:
    """stabkit's [A | B] must equal the generator's to 1e-9 relative."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != g.a.shape or b.shape != g.b.shape:
        return [f"jacobian shapes {a.shape}, {b.shape} != {g.a.shape}, {g.b.shape}"]
    want = np.hstack([g.a, g.b])
    err = float(np.max(np.abs(np.hstack([a, b]) - want)))
    scale = max(1.0, float(np.max(np.abs(want))))
    if not err <= JACOBIAN_RTOL * scale:
        return [f"jacobian off by {err:.3g} (scale {scale:.3g})"]
    return []


def gain(g: GenSystem, k) -> list[str]:
    """eig(A + B K) must be stable for the mode, with A and B from the generator."""
    k = np.asarray(k, dtype=float)
    if k.shape != (g.m, g.n):
        return [f"gain shape {k.shape} != {(g.m, g.n)}"]
    eig = np.linalg.eigvals(g.a + g.b @ k)
    if g.mode == CONTINUOUS:
        worst = float(np.max(eig.real))
        if not worst < 0.0:
            return [f"closed loop not Hurwitz: max Re = {worst:.6g}"]
    else:
        worst = float(np.max(np.abs(eig)))
        if not worst < 1.0:
            return [f"closed loop not Schur: max |lambda| = {worst:.6g}"]
    return []


def report(g: GenSystem, text: str, want_gain: bool, want_validation: bool) -> list[str]:
    """The JSON report must parse, carry the schema's keys and agree with the generator."""
    try:
        doc = json.loads(text)
    except ValueError as err:
        return [f"report is not JSON: {err}"]
    if not isinstance(doc, dict) or set(doc) != REPORT_KEYS:
        return [f"report keys {sorted(doc) if isinstance(doc, dict) else type(doc)}"]
    problems = []
    lin = doc["linearization"] or {}
    problems += linearization(g, lin.get("a", []), lin.get("b", []))
    decision = (doc["verdict"] or {}).get("decision")
    if decision not in DECISIONS:
        problems.append(f"unknown decision {decision!r}")
    elif g.expect_positive and decision not in POSITIVE:
        problems.append(f"decision {decision} is not positive")
    if want_gain:
        if not isinstance(doc["gain"], dict):
            problems.append("report has no gain")
        else:
            problems += gain(g, doc["gain"].get("k", []))
    if want_validation and not isinstance(doc["validation"], dict):
        problems.append("report has no validation")
    return problems


def text_report(text: str) -> list[str]:
    """The text report carries the system header, a verdict line and the validation."""
    ok = text.startswith("system: ") and "\nverdict: " in text and "\nvalidation: " in text
    return [] if ok else ["text report lacks its system, verdict or validation lines"]


def validation(passed: bool, min_alpha: float, failures: int) -> list[str]:
    """Every h.o.t. is second order, so the check must pass at delta = 0.05."""
    if passed:
        return []
    return [f"validation failed: {failures} samples, min_alpha={min_alpha:.6g}"]


def covering(kappa: float, earlier: float | None) -> list[str]:
    """Finite, non-negative and identical when the same call is repeated."""
    if not (isinstance(kappa, float) and math.isfinite(kappa) and kappa >= 0.0):
        return [f"covering modulus {kappa!r} is not a finite non-negative float"]
    if earlier is not None and kappa != earlier:
        return [f"covering modulus {kappa!r} differs from the earlier {earlier!r}"]
    return []


def cli(returncode: int, stderr: str) -> list[str]:
    if returncode == 0:
        return []
    return [f"exit code {returncode}: {stderr.strip().splitlines()[-1:] or ''}"]
