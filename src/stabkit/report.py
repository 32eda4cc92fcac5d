"""Report assembly: one document, rendered as JSON and as text.

``_document`` reads an analysis once and keeps raw values: complex
eigenvalues, and infinite or undefined floats, which text prints as ``inf``,
``-inf`` or ``n/a`` (other numbers to 12 significant digits).  JSON keeps
full precision; ``_plain``, its one boundary, writes a complex number as
{"re", "im"} and, since JSON has no IEEE infinities, an infinite or undefined
sentinel (regularity bound of a rank-deficient system, spectral bound of an
empty unstable set, infinite perturbation margin) as null; the boolean flags
alongside them keep decoding unambiguous.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from importlib import resources

import numpy as np

from .hautus import format_eigenvalue as _cfmt
from .sim import StabilityCheck
from .synthesis import FeedbackGain, gain_expressions
from .verdict import Analysis

TOOL_NAME = "stabkit"


def _document(
    analysis: Analysis,
    gain: FeedbackGain | None = None,
    validation: StabilityCheck | None = None,
    seed: int = 0,
) -> dict:
    from . import __version__
    from . import expr as ex

    system = analysis.system
    prof = analysis.profile
    verdict = analysis.verdict

    gain_doc = None
    if gain is not None:
        gain_doc = {
            "k": np.asarray(gain.k, dtype=float).tolist(),
            "target_poles": gain.target_poles,
            "achieved_poles": gain.achieved_poles,
            "mode": gain.mode,
            "expressions": gain_expressions(gain, system),
        }

    # OpennessReport's and StabilityCheck's fields are in the schema's key order
    return {
        "tool": {"name": TOOL_NAME, "version": __version__, "seed": seed},
        "system": {
            "mode": system.mode,
            "states": system.n,
            "controls": system.m,
            "equilibrium_x": system.x_eq,
            "equilibrium_u": system.u_eq,
            "components": [ex.unparse(c) for c in system.components],
        },
        "linearization": {
            "a": np.asarray(analysis.linearization.a).tolist(),
            "b": np.asarray(analysis.linearization.b).tolist(),
        },
        "openness": asdict(analysis.openness),
        "spectral": {
            "eigenvalues": prof.eigenvalues,
            "unstable": prof.unstable,
            "unstable_real_only": prof.unstable_real_only,
            "eta": prof.eta,
            "eta_tilde": prof.eta_tilde,
            "boundary_warnings": prof.boundary_warnings,
        },
        "hautus": {
            "asymptotic_holds": analysis.hautus.holds,
            "failures": analysis.hautus.failures,
            "full_spectrum_controllable": verdict.flags.linearized_controllable,
            "kalman_rank": analysis.kalman_rank,
        },
        "structure": {
            "control_affine": analysis.affine.is_control_affine,
            "driftless": analysis.affine.driftless,
            "span_dim": analysis.affine.span_dim,
            "input_rank": analysis.affine.input_rank,
        },
        "verdict": {
            "decision": verdict.decision,
            "fired_rules": [
                {
                    "rule": r.rule,
                    "citation": r.citation,
                    "decision": r.decision,
                    "evidence": {key: float(v) for key, v in r.evidence.items()},
                }
                for r in verdict.fired_rules
            ],
            "flags": {
                "linearized_controllable": verdict.flags.linearized_controllable,
                "small_time_locally_controllable": verdict.flags.small_time_locally_controllable,
            },
            "warnings": verdict.warnings,
            "notes": verdict.notes,
            "perturbation_margin": analysis.perturbation_margin,
        },
        "gain": gain_doc,
        "validation": None if validation is None else asdict(validation),
    }


def _plain(value):
    """The JSON form of a document value: a complex number becomes {"re", "im"},
    a non-finite float null, and a tuple a list."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def build_report(
    analysis: Analysis,
    gain: FeedbackGain | None = None,
    validation: StabilityCheck | None = None,
    seed: int = 0,
) -> dict:
    return _plain(_document(analysis, gain, validation, seed))


def report_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _fmt(v: float) -> str:
    return "n/a" if math.isnan(v) else f"{v:.12g}"


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def report_text(
    analysis: Analysis,
    gain: FeedbackGain | None = None,
    validation: StabilityCheck | None = None,
) -> str:
    doc = _document(analysis, gain, validation)
    system = doc["system"]
    rep = doc["openness"]
    prof = doc["spectral"]
    hautus = doc["hautus"]
    affine = doc["structure"]
    verdict = doc["verdict"]
    lines = [
        f"system: {system['mode']} | states {system['states']} | controls {system['controls']}"
    ]
    lines.append("equilibrium x*: " + " ".join(map(_fmt, system["equilibrium_x"])))
    lines.append("equilibrium u*: " + " ".join(map(_fmt, system["equilibrium_u"])))
    for i, text in enumerate(system["components"], start=1):
        lines.append(f"f{i} = {text}")
    for name, matrix in (("A", doc["linearization"]["a"]), ("B", doc["linearization"]["b"])):
        lines.append(f"{name} =")
        lines.extend("  " + "  ".join(map(_fmt, row)) for row in matrix)
    lines.append(
        f"openness: cov_bound={_fmt(rep['cov_bound'])} reg_bound={_fmt(rep['reg_bound'])} "
        f"lip_bound={_fmt(rep['lip_bound'])} "
        f"jacobian_rank={rep['jacobian_rank']}/{system['states']} "
        f"linearly_open={_yes(rep['linearly_open'])}"
    )
    lines.append("eigenvalues: " + (" ".join(map(_cfmt, prof["eigenvalues"])) or "-"))
    lines.append("unstable: " + (" ".join(map(_cfmt, prof["unstable"])) or "(empty)"))
    lines.append(
        f"spectral: eta={_fmt(prof['eta'])} eta_tilde={_fmt(prof['eta_tilde'])} "
        f"unstable_real_only={_yes(prof['unstable_real_only'])}"
    )
    if prof["boundary_warnings"]:
        lines.append("boundary eigenvalues: " + " ".join(map(_cfmt, prof["boundary_warnings"])))
    lines.append(
        f"hautus: asymptotic_holds={_yes(hautus['asymptotic_holds'])} "
        f"kalman_rank={hautus['kalman_rank']} "
        f"full_spectrum_controllable={_yes(hautus['full_spectrum_controllable'])}"
    )
    if hautus["failures"]:
        lines.append("hautus failures: " + " ".join(map(_cfmt, hautus["failures"])))
    if affine["control_affine"]:
        lines.append(
            f"structure: control-affine (driftless={_yes(affine['driftless'])}, "
            f"span_dim={affine['span_dim']}, input_rank={affine['input_rank']})"
        )
    else:
        lines.append("structure: not control-affine")
    lines.append(f"verdict: {verdict['decision']}")
    for r in verdict["fired_rules"]:
        evidence = ", ".join(f"{key}={_fmt(v)}" for key, v in r["evidence"].items())
        lines.append(f"  {r['rule']} [{r['decision']}] ({evidence})")
        lines.append(f"    {r['citation']}")
    small_time = verdict["flags"]["small_time_locally_controllable"]
    lines.append(
        f"flags: linearized_controllable={_yes(verdict['flags']['linearized_controllable'])} "
        f"small_time_locally_controllable={'unknown' if small_time is None else _yes(small_time)}"
    )
    lines.append(f"perturbation_margin: {_fmt(verdict['perturbation_margin'])}")
    lines.extend(f"warning: {w}" for w in verdict["warnings"])
    lines.extend(f"note: {note}" for note in verdict["notes"])
    gain_doc = doc["gain"]
    if gain_doc is not None:
        lines.append("K =")
        lines.extend("  " + "  ".join(map(_fmt, row)) for row in gain_doc["k"])
        lines.append("target poles: " + (" ".join(map(_cfmt, gain_doc["target_poles"])) or "-"))
        lines.append("achieved poles: " + " ".join(map(_cfmt, gain_doc["achieved_poles"])))
        for i, text in enumerate(gain_doc["expressions"], start=1):
            lines.append(f"u{i} = {text}")
    check = doc["validation"]
    if check is not None:
        lines.append(
            f"validation: passed={_yes(check['passed'])} delta={_fmt(check['delta'])} "
            f"samples={check['samples']} min_alpha={_fmt(check['min_alpha'])}"
        )
        w = check["worst"]
        if w is not None:
            lines.append(
                f"  worst fit: alpha_hat={_fmt(w['alpha_hat'])} m_hat={_fmt(w['m_hat'])} "
                f"residual={_fmt(w['residual'])} certified={_yes(w['certified'])}"
            )
        for x in check["failures"]:
            lines.append("  failure at x0: " + " ".join(map(_fmt, x)))
    return "\n".join(lines) + "\n"


def load_schema() -> dict:
    text = resources.files("stabkit").joinpath("schema/report.schema.json").read_text()
    return json.loads(text)
