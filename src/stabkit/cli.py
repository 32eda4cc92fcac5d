"""Command-line interface.

Subcommands: analyze, synthesize, covering, simulate.  Exit codes: 0 on
success (an INCONCLUSIVE verdict is still a successful analysis), 2 on
input or validation errors, 3 when the synthesis precondition fails.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .expr import EvalError, is_c1_everywhere, parse_expr
from .hautus import TOL_CLASS
from .openness import CoveringGrid, empirical_covering_modulus
from .report import build_report, report_json, report_text
from .sim import (
    DEFAULT_DT,
    DEFAULT_HORIZON,
    DEFAULT_SAMPLES,
    DEFAULT_STEPS,
    estimate_decay,
    integrate_closed_loop,
    iterate_closed_loop,
    make_feedback,
    trajectory_csv,
    verify_local_stability,
)
from .synthesis import FeedbackGain, PlacementError, UncontrollableError, synthesize
from .system import CONTINUOUS, load_system
from .verdict import POSITIVE_DECISIONS, AnalysisConfig, analyze


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_tolerance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol-rank", type=_finite_float, default=None,
                     help="rank cutoff for singular values (default: adaptive)")
    sub.add_argument("--tol-class", type=_finite_float, default=TOL_CLASS,
                     help="spectral classification tolerance")
    sub.add_argument("--margin", type=_finite_float, default=AnalysisConfig.margin,
                     help="extra margin demanded by the sufficiency tests")
    sub.add_argument("--span-radius", type=_finite_float, default=AnalysisConfig.span_radius,
                     help="sampling radius for the affine span estimate")
    sub.add_argument("--seed", type=int, default=AnalysisConfig.seed,
                     help="seed for seeded numerics")


def _config_from(args: argparse.Namespace) -> AnalysisConfig:
    return AnalysisConfig(
        tol_rank=args.tol_rank,
        tol_class=args.tol_class,
        margin=args.margin,
        span_radius=args.span_radius,
        assume_bounded_perturbation=getattr(args, "assume_bounded_perturbation", False),
        seed=args.seed,
    )


def _parse_list(text: str, kind: type, noun: str) -> list:
    try:
        values = [kind(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"could not parse {noun} list {text!r}") from None
    if not all(cmath.isfinite(v) for v in values):
        raise ValueError(f"{noun} list {text!r} must hold finite numbers")
    return values


def _write_report(args: argparse.Namespace, analysis, gain=None, validation=None) -> None:
    if args.json:
        sys.stdout.write(report_json(build_report(analysis, gain, validation, seed=args.seed)))
    else:
        sys.stdout.write(report_text(analysis, gain, validation))


def cmd_analyze(args: argparse.Namespace) -> int:
    system = load_system(args.path)
    _write_report(args, analyze(system, _config_from(args)))
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    system = load_system(args.path)
    cfg = _config_from(args)
    analysis = analyze(system, cfg)
    positive = analysis.verdict.decision in POSITIVE_DECISIONS
    # a failed Hautus test goes on to synthesize, which raises UncontrollableError
    if not (positive or args.force or not analysis.hautus.holds):
        sys.stderr.write(
            f"error: verdict is {analysis.verdict.decision}; "
            "pass --force to synthesize from the linearization anyway\n"
        )
        return 3
    poles = _parse_list(args.poles, complex, "pole") if args.poles else None
    gain = synthesize(system, poles=poles, seed=args.seed, tol=cfg.tol_rank,
                      tol_class=cfg.tol_class)
    validation = None
    if args.validate:
        validation = verify_local_stability(
            system, gain, delta=args.delta, samples=args.samples,
            horizon=args.horizon, dt=args.dt, steps=args.steps,
        )
    _write_report(args, analysis, gain, validation)
    return 0


def cmd_covering(args: argparse.Namespace) -> int:
    system = load_system(args.path)
    radii = _parse_list(args.radius, float, "number")
    if not radii:
        raise ValueError("--radius expects at least one value")
    grid = CoveringGrid(
        directions=args.directions,
        radial_levels=args.levels,
        axis_points=args.axis_points,
    )
    # every radius is searched before the table starts, so a rejected one prints no rows
    kappas = [empirical_covering_modulus(system, radius=r, grid=grid) for r in radii]
    sys.stdout.write(f"{'r':>14} {'kappa':>16} {'kappa/r':>16}\n")
    for r, kappa in zip(radii, kappas):
        sys.stdout.write(f"{r:>14.9g} {kappa:>16.9g} {kappa / r:>16.9g}\n")
    # open at a linear rate means kappa stays bounded away from zero as r shrinks
    smallest, largest = (kappas[radii.index(pick(radii))] for pick in (min, max))
    if len(kappas) >= 2 and (smallest <= 0.0 or largest / smallest > 2.0):
        sys.stdout.write(
            "suspect: kappa decreased by more than 2x across the sweep; "
            "openness at a linear rate is doubtful at these scales\n"
        )
    return 0


def _load_gain_file(path: str, system) -> FeedbackGain:
    # integers are read as floats, so one past the float range reads inf, not OverflowError
    doc = json.loads(Path(path).read_text(), parse_int=float)
    payload = doc.get("gain") if isinstance(doc, dict) and "gain" in doc else doc
    if not isinstance(payload, dict) or "k" not in payload:
        raise ValueError(f"{path} does not contain a gain matrix under 'k'")
    # a report writes a non-finite entry as null, and JSON true is no number either
    k = np.asarray(payload["k"], dtype=object)
    if not all(type(v) is float and math.isfinite(v) for v in k.flat):
        raise ValueError(f"{path}: the gain matrix under 'k' must hold finite numbers only")
    k = k.astype(float)
    if k.shape != (system.m, system.n):
        raise ValueError(
            f"gain shape {k.shape} does not match the system ({system.m}, {system.n})"
        )
    return FeedbackGain(k=k, target_poles=(), achieved_poles=(), mode=system.mode)


def cmd_simulate(args: argparse.Namespace) -> int:
    system = load_system(args.path)
    x0 = _parse_list(args.x0, float, "number")
    if len(x0) != system.n:
        raise ValueError(f"--x0 needs {system.n} values, got {len(x0)}")
    with np.errstate(over="ignore"):  # a distance past the largest float reads inf
        if not np.linalg.norm(np.subtract(x0, system.x_eq), axis=-1):  # as the decay fit measures
            raise ValueError("--x0 lies on the equilibrium x* (its distance rounds to 0)")
    if args.gain:
        feedback, smooth = _load_gain_file(args.gain, system), True
    else:
        parts = [parse_expr(p.strip()) for p in args.feedback.split(";") if p.strip()]
        feedback, smooth = make_feedback(system, parts), all(is_c1_everywhere(e) for e in parts)
    if system.mode == CONTINUOUS:
        traj = integrate_closed_loop(system, feedback, x0, horizon=args.horizon, dt=args.dt)
    else:
        traj = iterate_closed_loop(system, feedback, x0, steps=args.steps)
    csv = trajectory_csv(traj)
    if args.out:
        Path(args.out).write_text(csv)
        summary_stream = sys.stdout
    else:
        sys.stdout.write(csv)
        summary_stream = sys.stderr
    with np.errstate(over="ignore"):
        final_norm = float(np.linalg.norm(traj.states[-1] - traj.x_eq))
    summary_stream.write(
        f"samples={len(traj.times)} final_norm={final_norm:.12g} "
        f"diverged={'yes' if traj.diverged else 'no'}\n"
    )
    if not traj.diverged:
        fit = estimate_decay(traj)
        summary_stream.write(
            f"alpha_hat={fit.alpha_hat:.12g} m_hat={fit.m_hat:.12g} "
            f"residual={fit.residual:.12g} certified={'yes' if fit.certified else 'no'}\n"
        )
    if not smooth:
        summary_stream.write(
            "note: feedback is not recognized as continuously differentiable\n"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabkit",
        description="Stabilizability analysis and feedback synthesis "
                    "for smooth control systems",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a system file")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--json", action="store_true", help="emit the JSON report")
    p_analyze.add_argument("--assume-bounded-perturbation", action="store_true",
                           help="assert the perturbation is bounded (informational note)")
    _add_tolerance_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_synth = sub.add_parser("synthesize", help="synthesize a stabilizing gain")
    p_synth.add_argument("path")
    p_synth.add_argument("--json", action="store_true", help="emit the JSON report")
    p_synth.add_argument("--poles", default=None,
                         help="comma-separated desired poles for the controllable block")
    p_synth.add_argument("--force", action="store_true",
                         help="synthesize even when the verdict is not positive "
                              "(the Hautus test must still hold)")
    p_synth.add_argument("--validate", action="store_true",
                         help="run the local stability verification on the result")
    p_synth.add_argument("--delta", type=_finite_float, default=0.05,
                         help="shell radius for --validate")
    p_synth.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                         help="sample count for --validate")
    p_synth.add_argument("--horizon", type=_finite_float, default=DEFAULT_HORIZON,
                         help="integration horizon for --validate (continuous)")
    p_synth.add_argument("--dt", type=_finite_float, default=DEFAULT_DT,
                         help="sampling step of the decay fit for --validate (continuous)")
    p_synth.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                         help="iteration count for --validate (discrete)")
    _add_tolerance_flags(p_synth)
    p_synth.set_defaults(func=cmd_synthesize)

    p_cov = sub.add_parser("covering", help="empirical covering-rate sweep")
    p_cov.add_argument("path")
    p_cov.add_argument("--radius", required=True,
                       help="comma-separated ball radii")
    p_cov.add_argument("--directions", type=int, default=CoveringGrid.directions,
                       help="target directions per shell (a 1-state system always "
                            "uses the two signs)")
    p_cov.add_argument("--levels", type=int, default=CoveringGrid.radial_levels,
                       help="radial shells per target ball")
    p_cov.add_argument("--axis-points", type=int, default=CoveringGrid.axis_points,
                       help="coarse grid points per axis")
    p_cov.set_defaults(func=cmd_covering)

    p_sim = sub.add_parser("simulate", help="simulate a closed loop and emit CSV")
    p_sim.add_argument("path")
    source = p_sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--gain", default=None,
                        help="JSON file with a gain matrix (a report or a bare {'k': ...})")
    source.add_argument("--feedback", default=None,
                        help="semicolon-separated feedback expressions in x1..xn")
    p_sim.add_argument("--x0", required=True, help="comma-separated initial state")
    p_sim.add_argument("--horizon", type=_finite_float, default=DEFAULT_HORIZON,
                       help="integration horizon (continuous)")
    p_sim.add_argument("--dt", type=_finite_float, default=DEFAULT_DT,
                       help="grid of output samples; the step size is adaptive")
    p_sim.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                       help="iteration count (discrete)")
    p_sim.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UncontrollableError as err:
        sys.stderr.write(f"error: {err}\n")
        return 3
    except (PlacementError, EvalError, FileNotFoundError, IsADirectoryError,
            PermissionError, ValueError) as err:
        # ParseError, SystemFormatError, SystemValidationError and
        # json.JSONDecodeError are ValueErrors
        sys.stderr.write(f"error: {err}\n")
        return 2
    except RecursionError:
        # every expression walk recurses once per nesting level
        sys.stderr.write("error: an expression is nested too deeply to evaluate "
                         f"(Python's recursion limit is {sys.getrecursionlimit()})\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
