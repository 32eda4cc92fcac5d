"""Stabilizability verdicts from openness bounds and spectral data.

The rules are one ordered table of (rule, decision, premise, evidence) rows.
Every row whose premise holds fires and is recorded with its evidence; the
decision is that of the first row that fired, or INCONCLUSIVE when none did.
Positive rows precede negative ones, and specific-case rows precede the
general margin rows, so a nilpotent-type system is decided by the rule that
matches its structure.

The three sufficiency rows serve both time modes: D3, D1 and D2 are R2, R1
and R3 with the spectrum classified against the unit circle, D3 asking the
whole spectrum (not only its unstable part) to sit at zero.  The driftless
rule R7 and the necessity rules R4-R6 require continuous time, so discrete
mode has no negative route.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from . import expr as ex
from .hautus import (
    HautusResult,
    SpectralProfile,
    TOL_CLASS,
    controllable_subspace,
    format_eigenvalue,
    hautus_tests,
    spectral_profile,
)
from .linalg import numerical_rank
from .openness import OpennessReport, openness_report
from .system import (
    CONTINUOUS,
    DISCRETE,
    Linearization,
    SystemSpec,
    degree_range,
    is_affine_system,
    jacobian,
    span_dimension_estimate,
)

EXP_STABILIZABLE_CONT_FEEDBACK = "EXP_STABILIZABLE_CONT_FEEDBACK"
ASY_STABILIZABLE_CONT_FEEDBACK = "ASY_STABILIZABLE_CONT_FEEDBACK"
NOT_SMOOTHLY_EXP_STABILIZABLE = "NOT_SMOOTHLY_EXP_STABILIZABLE"
NOT_SMOOTHLY_ASY_STABILIZABLE = "NOT_SMOOTHLY_ASY_STABILIZABLE"
INCONCLUSIVE = "INCONCLUSIVE"

POSITIVE_DECISIONS = (EXP_STABILIZABLE_CONT_FEEDBACK, ASY_STABILIZABLE_CONT_FEEDBACK)

RULE_CITATIONS = {
    "R1": "covering bound exceeds the real unstable spectral bound; "
          "exponential stabilization by continuous feedback",
    "R2": "unstable spectrum reduces to zero and the joint Jacobian has full "
          "row rank; exponential stabilization by continuous feedback",
    "R3": "real spectrum with covering bound above the spectral radius; "
          "exponential stabilization with small-time local controllability",
    "R4": "full row rank of the joint Jacobian is necessary for smooth "
          "exponential stabilization; the rank is deficient",
    "R5": "with strictly unstable spectrum, linear openness is necessary even "
          "for smooth asymptotic stabilization; the rank is deficient",
    "R6": "the control-affine fields span a proper subspace near the "
          "equilibrium, which smooth stabilizing feedback cannot overcome",
    "R7": "driftless system with independent input fields: stabilizable "
          "exactly when the number of controls matches the state dimension",
    "D1": "covering bound exceeds the real unstable spectral bound "
          "(unit-circle classification); stabilization by continuous feedback",
    "D2": "real spectrum with covering bound above the spectral radius; "
          "stabilization by continuous feedback",
    "D3": "nilpotent-type spectrum at zero with full-rank joint Jacobian; "
          "stabilization by continuous feedback",
}


@dataclass(frozen=True)
class FiredRule:
    rule: str
    citation: str
    decision: str
    evidence: dict


@dataclass(frozen=True)
class VerdictFlags:
    linearized_controllable: bool
    small_time_locally_controllable: bool | None


@dataclass(frozen=True)
class Verdict:
    decision: str
    fired_rules: tuple[FiredRule, ...]
    flags: VerdictFlags
    warnings: tuple[str, ...]
    notes: tuple[str, ...]


@dataclass(frozen=True)
class AnalysisConfig:
    tol_rank: float | None = None
    tol_class: float = TOL_CLASS
    margin: float = 0.0
    span_radius: float = 0.1
    assume_bounded_perturbation: bool = False
    seed: int = 0

    def __post_init__(self):
        # a negative cutoff would count every singular value as nonzero and
        # read a rank-0 Jacobian as full rank; `not x >= 0` also rejects NaN
        if self.tol_rank is not None and not self.tol_rank >= 0:
            raise ValueError("tol_rank must be non-negative")
        if not self.tol_class >= 0:
            raise ValueError("tol_class must be non-negative")
        # a negative margin lets R1-R3 fire below the spectral bound; NaN silences them
        if not 0 <= self.margin < math.inf:
            raise ValueError("margin must be non-negative and finite")
        # checked here, not where the span estimate draws: a system that is open
        # or not control-affine never draws, and would accept and report any value
        if not 0 < self.span_radius < math.inf:
            raise ValueError("span_radius must be positive and finite")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class AffineStructure:
    """Control-affine shape of the right-hand side, when it has one."""

    is_control_affine: bool
    span_dim: int | None
    driftless: bool
    input_rank: int | None


@dataclass(frozen=True)
class Analysis:
    system: SystemSpec
    linearization: Linearization
    openness: OpennessReport
    profile: SpectralProfile
    hautus: HautusResult
    kalman_rank: int
    affine: AffineStructure
    verdict: Verdict
    perturbation_margin: float  # Lipschitz perturbation size the sufficiency margin absorbs


def _affine_structure(system: SystemSpec, lin: Linearization, rep: OpennessReport,
                      cfg: AnalysisConfig) -> AffineStructure:
    # f = g0(x) + sum gi(x) ui exactly when no term has control degree above 1,
    # and g0 = 0 when every term has at least one; column i of B is gi(x*)
    degrees = [degree_range(c, (ex.ControlVar,)) for c in system.components]
    if any(d is None or d[1] > 1 for d in degrees):
        return AffineStructure(False, None, False, None)
    driftless = all(d[0] >= 1 for d in degrees)
    input_rank = numerical_rank(lin.b, cfg.tol_rank)
    # an onto [A | B] makes f open at (x*, u*) (Lyusternik-Graves), so its
    # values near there span R^n; only a rank-deficient one is sampled
    span_dim = (system.n if rep.linearly_open
                else span_dimension_estimate(system, cfg.span_radius, cfg.seed))
    return AffineStructure(True, span_dim, driftless, input_rank)


def _rules(
    system: SystemSpec,
    cfg: AnalysisConfig,
    rep: OpennessReport,
    prof: SpectralProfile,
    affine: AffineStructure,
) -> tuple[list[FiredRule], list[str]]:
    """The fired rules in table order, and the margin warnings when none fired."""
    n, m = system.n, system.m
    cov = rep.cov_bound
    tol = cfg.tol_class
    margin = cfg.margin
    continuous = system.mode == CONTINUOUS
    if continuous:
        zero_rule, margin_rule, wide_rule = "R2", "R1", "R3"
        positive = EXP_STABILIZABLE_CONT_FEEDBACK
        zero_set, zero_key = prof.unstable, "max_unstable_modulus"
    else:
        zero_rule, margin_rule, wide_rule = "D3", "D1", "D2"
        positive = ASY_STABILIZABLE_CONT_FEEDBACK
        zero_set, zero_key = prof.eigenvalues, "max_eigen_modulus"
    is_open = rep.linearly_open
    open_real = is_open and prof.unstable_real_only
    real_spectrum = all(abs(v.imag) <= tol for v in prof.eigenvalues)
    strictly_unstable = bool(prof.unstable) and all(v.real > tol for v in prof.unstable)
    r7_applicable = continuous and affine.driftless and affine.input_rank == m
    witness = 0.5 * (prof.eta + cov) if math.isfinite(prof.eta) else 0.5 * cov
    rank = {"jacobian_rank": rep.jacobian_rank, "n": n}
    inputs = {"m": m, "n": n, "input_rank": affine.input_rank}
    # a margin row fires iff its guard holds and its slack cov - (bound + margin)
    # is positive, which for doubles is cov > bound + margin (cov - bound - margin
    # is not: 1 - 0.7 - 0.3 > 0 while 0.7 + 0.3 == 1); when no row fires, each
    # row whose guard holds warns
    margin_rows = ((margin_rule, open_real, "eta", prof.eta, "sufficiency"),
                   (wide_rule, real_spectrum, "eta_tilde", prof.eta_tilde, "spectrum-wide"))
    fires = {rule: guard and cov - (bound + margin) > 0
             for rule, guard, _, bound, _ in margin_rows}

    # (rule, decision, premise, evidence); every positive row precedes every
    # negative one, so the first row that fires decides
    table = (
        (zero_rule, positive, is_open and all(abs(v) <= tol for v in zero_set),
         {"cov": cov, zero_key: max((abs(v) for v in zero_set), default=0.0)}),
        (margin_rule, positive, fires[margin_rule],
         {"cov": cov, "eta": prof.eta, "margin": margin, "kappa_witness": witness}),
        (wide_rule, positive, fires[wide_rule], {"cov": cov, "eta_tilde": prof.eta_tilde}),
        ("R7", EXP_STABILIZABLE_CONT_FEEDBACK, r7_applicable and m == n, inputs),
        ("R4", NOT_SMOOTHLY_EXP_STABILIZABLE, continuous and not is_open, rank),
        ("R5", NOT_SMOOTHLY_ASY_STABILIZABLE, continuous and not is_open and strictly_unstable,
         {**rank, "min_unstable_real": min((v.real for v in prof.unstable), default=math.inf)}),
        ("R6", (NOT_SMOOTHLY_ASY_STABILIZABLE if strictly_unstable
                else NOT_SMOOTHLY_EXP_STABILIZABLE),
         continuous and affine.span_dim is not None and affine.span_dim < n,
         {"span_dim": affine.span_dim, "n": n}),
        ("R7", NOT_SMOOTHLY_EXP_STABILIZABLE, r7_applicable and m < n, inputs),
    )
    fired = [FiredRule(rule, RULE_CITATIONS[rule], decision, evidence)
             for rule, decision, premise, evidence in table if premise]

    warnings: list[str] = []
    if not fired:
        if is_open and not prof.unstable_real_only:
            warnings.append(
                "unstable spectrum contains nonreal eigenvalues; "
                "the sufficiency margin test does not apply"
            )
        warnings += [
            f"{subject} margin failed: cov={cov:.12g} <= "
            f"{name}={bound:.12g} + margin={margin:.12g}"
            for rule, guard, name, bound, subject in margin_rows
            if guard and not fires[rule]
        ]
    return fired, warnings


def analyze(system: SystemSpec, config: AnalysisConfig | None = None) -> Analysis:
    """Run the full pipeline: linearize, bound, classify, test, decide."""
    cfg = config or AnalysisConfig()
    lin = jacobian(system)
    rep = openness_report(lin, tol=cfg.tol_rank)
    prof = spectral_profile(lin.a, system.mode, tol_class=cfg.tol_class)
    haut, full = hautus_tests(lin, prof.unstable, prof.eigenvalues, tol=cfg.tol_rank)
    kalman = controllable_subspace(lin, tol=cfg.tol_rank)[1]
    affine = _affine_structure(system, lin, rep, cfg)

    fired, warnings = _rules(system, cfg, rep, prof, affine)
    decision = fired[0].decision if fired else INCONCLUSIVE

    notes: list[str] = []
    if not haut.holds:
        joined = ", ".join(format_eigenvalue(v) for v in haut.failures)
        warnings.append(
            f"Hautus rank test fails at lambda={joined}; linearization not stabilizable"
        )
    perturbation_margin = rep.cov_bound - prof.eta
    if abs(perturbation_margin) < 1e-8:
        warnings.append(
            "covering bound within 1e-08 of the spectral bound; "
            "the margin comparison is tolerance-sensitive"
        )

    small_time = True if any(r.rule == "R3" for r in fired) else None
    if small_time and cfg.assume_bounded_perturbation and is_affine_system(system):
        notes.append(
            "with the asserted bounded perturbation, this linear system with real "
            "spectrum and covering bound above the spectral radius is globally "
            "controllable in any fixed time"
        )
    if system.mode == DISCRETE and decision == INCONCLUSIVE:
        notes.append(
            "no necessity criteria are available in discrete mode; "
            "the sufficiency tests were inconclusive"
        )

    flags = VerdictFlags(linearized_controllable=full, small_time_locally_controllable=small_time)
    verdict = Verdict(
        decision=decision,
        fired_rules=tuple(fired),
        flags=flags,
        warnings=tuple(warnings),
        notes=tuple(notes),
    )
    return Analysis(
        system=system,
        linearization=lin,
        openness=rep,
        profile=prof,
        hautus=haut,
        kalman_rank=kalman,
        affine=affine,
        verdict=verdict,
        perturbation_margin=perturbation_margin,
    )
