"""Decision-engine tests: rule firing order, evidence payloads, warnings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen, workloads
from stabkit import verdict
from stabkit.hautus import spectral_profile
from stabkit.openness import OpennessReport
from stabkit.system import load_system, parse_system, span_dimension_estimate, system_from_strings
from stabkit.verdict import (
    ASY_STABILIZABLE_CONT_FEEDBACK,
    EXP_STABILIZABLE_CONT_FEEDBACK,
    INCONCLUSIVE,
    NOT_SMOOTHLY_ASY_STABILIZABLE,
    NOT_SMOOTHLY_EXP_STABILIZABLE,
    POSITIVE_DECISIONS,
    RULE_CITATIONS,
    AffineStructure,
    AnalysisConfig,
    analyze,
)

# frozen pipeline outputs for the bundled three-state example
THREE_STATE_COV = 0.6144698681796382
THREE_STATE_ETA = 0.31622776601683794
THREE_STATE_WITNESS = 0.46534881709823805
THREE_STATE_MARGIN = 0.2982421021628003

DISCRETE_COV = 1.8027756377319946  # sqrt(3.25)


def _rules(analysis):
    return [r.rule for r in analysis.verdict.fired_rules]


def _rule(analysis, name):
    for r in analysis.verdict.fired_rules:
        if r.rule == name:
            return r
    raise AssertionError(f"rule {name} did not fire")


# --- continuous sufficiency ---------------------------------------------

def test_three_state_positive_margin(examples_dir):
    a = analyze(load_system(examples_dir / "three_state_mixed.stab"))
    assert a.verdict.decision == EXP_STABILIZABLE_CONT_FEEDBACK
    assert _rules(a) == ["R1", "R3"]
    r1 = _rule(a, "R1")
    assert r1.evidence["cov"] == pytest.approx(THREE_STATE_COV, abs=1e-12)
    assert r1.evidence["eta"] == pytest.approx(THREE_STATE_ETA, abs=1e-12)
    assert r1.evidence["kappa_witness"] == pytest.approx(THREE_STATE_WITNESS, abs=1e-12)
    assert a.perturbation_margin == pytest.approx(THREE_STATE_MARGIN, abs=1e-12)
    assert a.verdict.warnings == ()
    assert a.verdict.notes == ()


def test_planar_nilpotent_rule_order(examples_dir):
    a = analyze(load_system(examples_dir / "planar_cubic.stab"))
    assert a.verdict.decision == EXP_STABILIZABLE_CONT_FEEDBACK
    assert _rules(a) == ["R2", "R1", "R3"]
    assert _rule(a, "R1").evidence["kappa_witness"] == pytest.approx(0.5)
    assert a.perturbation_margin == pytest.approx(1.0)


def test_stable_spectrum_fires_with_infinite_margin():
    a = analyze(system_from_strings("continuous", ["u1 - x1"], m=1))
    assert a.verdict.decision == EXP_STABILIZABLE_CONT_FEEDBACK
    r1 = _rule(a, "R1")
    assert r1.evidence["eta"] == -math.inf
    assert r1.evidence["kappa_witness"] == pytest.approx(0.5 * math.sqrt(2.0))
    assert a.perturbation_margin == math.inf


def test_driftless_square_positive():
    a = analyze(system_from_strings("continuous", ["u1", "u2"], m=2))
    assert a.verdict.decision == EXP_STABILIZABLE_CONT_FEEDBACK
    r7 = _rule(a, "R7")
    assert r7.decision == EXP_STABILIZABLE_CONT_FEEDBACK
    assert r7.evidence == {"m": 2, "n": 2, "input_rank": 2}


# --- continuous necessity -----------------------------------------------

def test_rank_deficient_jacobian_blocks_exponential():
    a = analyze(system_from_strings("continuous", ["x1^2 + u1 - u1", "x2 + u1"], m=1))
    assert a.verdict.decision == NOT_SMOOTHLY_EXP_STABILIZABLE
    assert _rules(a) == ["R4"]
    assert _rule(a, "R4").evidence == {"jacobian_rank": 1, "n": 2}


def test_strict_instability_upgrades_to_asymptotic_negative():
    sys = system_from_strings(
        "continuous", ["0.1*x1 + u1 - u1", "x2 + u1 - u1"], m=1
    )
    a = analyze(sys, AnalysisConfig(tol_rank=0.5))
    assert a.verdict.decision == NOT_SMOOTHLY_EXP_STABILIZABLE
    # the cutoff reads [A | B] as rank 1, but f's values, ranked on their own
    # scale, span R^2, so R6 does not fire
    assert _rules(a) == ["R4", "R5"]
    assert a.affine.span_dim == 2
    r5 = _rule(a, "R5")
    assert r5.decision == NOT_SMOOTHLY_ASY_STABILIZABLE
    assert r5.evidence["min_unstable_real"] == pytest.approx(0.1)
    # f2 = 1e-12 x2 spans nothing at the default cutoff: R6 fires, and with every
    # eigenvalue strictly unstable (tol_class 0) it reads asymptotic
    sys = system_from_strings("continuous", ["x1 + u1 - u1", "1e-12*x2 + u1 - u1"], m=1)
    a = analyze(sys, AnalysisConfig(tol_class=0.0))
    assert _rules(a) == ["R4", "R5", "R6"]
    assert a.affine.span_dim == 1
    assert _rule(a, "R6").decision == NOT_SMOOTHLY_ASY_STABILIZABLE


def _count_estimates(monkeypatch):
    calls = []
    estimate = verdict.span_dimension_estimate

    def counted(system, *args, **kwargs):
        calls.append(system)
        return estimate(system, *args, **kwargs)

    monkeypatch.setattr(verdict, "span_dimension_estimate", counted)
    return calls


def test_collinear_input_fields_fire_span_rule(monkeypatch):
    calls = _count_estimates(monkeypatch)
    a = analyze(system_from_strings("continuous", ["u1", "2*u1"], m=1))
    # [A | B] has rank 1 < 2, so f's values are sampled, once
    assert calls == [a.system]
    assert a.verdict.decision == NOT_SMOOTHLY_EXP_STABILIZABLE
    assert _rules(a) == ["R4", "R6", "R7"]
    assert _rule(a, "R6").decision == NOT_SMOOTHLY_EXP_STABILIZABLE
    assert _rule(a, "R6").evidence == {"span_dim": 1, "n": 2}
    assert a.affine.driftless
    assert a.affine.input_rank == 1


def test_driftless_underactuated_negative():
    a = analyze(system_from_strings("continuous", ["u1", "x1*u1"], m=1))
    assert a.verdict.decision == NOT_SMOOTHLY_EXP_STABILIZABLE
    assert _rules(a) == ["R4", "R7"]
    r7 = _rule(a, "R7")
    assert r7.decision == NOT_SMOOTHLY_EXP_STABILIZABLE
    assert r7.evidence == {"m": 1, "n": 2, "input_rank": 1}


# --- inconclusive and warnings ------------------------------------------

def test_unstable_drift_inconclusive_with_diagnostics(examples_dir):
    a = analyze(load_system(examples_dir / "unstable_drift.stab"))
    assert a.verdict.decision == INCONCLUSIVE
    assert a.verdict.fired_rules == ()
    assert a.verdict.warnings == (
        "sufficiency margin failed: cov=1 <= eta=1 + margin=0",
        "spectrum-wide margin failed: cov=1 <= eta_tilde=1 + margin=0",
        "Hautus rank test fails at lambda=1; linearization not stabilizable",
        "covering bound within 1e-08 of the spectral bound; "
        "the margin comparison is tolerance-sensitive",
    )
    assert not a.verdict.flags.linearized_controllable
    assert a.verdict.flags.small_time_locally_controllable is None


def test_margin_override_suppresses_sufficiency(examples_dir):
    sys = load_system(examples_dir / "three_state_mixed.stab")
    v = analyze(sys, AnalysisConfig(margin=0.5)).verdict
    assert v.decision == INCONCLUSIVE
    assert v.fired_rules == ()
    assert v.warnings[0].startswith("sufficiency margin failed: cov=0.61446986818")


# 0.7 + 0.3 == 1.0 and 1.7 + 0.3 == 2.0 in float64, while 1.0 - 0.7 - 0.3 and
# 2.0 - 1.7 - 0.3 are 5.6e-17: a slack written cov - eta - margin would fire here
@pytest.mark.parametrize("mode, cov, lam", [("continuous", 1.0, 0.7), ("discrete", 2.0, 1.7)])
def test_margin_rows_at_the_knife_edge_neither_fire_nor_stay_silent(mode, cov, lam):
    system = system_from_strings(mode, [f"{lam}*x1 + u1"], m=1)
    prof = spectral_profile(np.array([[lam]]), mode)
    assert (prof.eta, prof.eta_tilde) == (lam, lam)
    rep = OpennessReport(cov, 1.0 / cov, cov, 1, True)
    fired, warnings = verdict._rules(system, AnalysisConfig(margin=0.3), rep, prof,
                                     AffineStructure(False, None, False, None))
    assert fired == []
    assert warnings == [
        f"sufficiency margin failed: cov={cov:g} <= eta={lam} + margin=0.3",
        f"spectrum-wide margin failed: cov={cov:g} <= eta_tilde={lam} + margin=0.3",
    ]


@given(cov=st.floats(allow_nan=False, allow_infinity=False),
       bound=st.floats(allow_nan=False, allow_infinity=False) | st.just(-math.inf),
       margin=st.floats(allow_nan=False, allow_infinity=False))
def test_a_positive_slack_is_the_margin_premise(cov, bound, margin):
    # a - b > 0 iff a > b for doubles, b = -inf (no unstable eigenvalue) included
    assert (cov - (bound + margin) > 0) == (cov > bound + margin)


@pytest.mark.parametrize("margin", [-5.0, -1e-300, math.nan, math.inf])
def test_margin_must_be_non_negative_and_finite(margin):
    # margin -5 would let R1 and R3 call the unstabilizable unstable_drift stabilizable,
    # and a NaN margin would make every margin row and margin warning false
    with pytest.raises(ValueError, match="^margin must be non-negative and finite$"):
        AnalysisConfig(margin=margin)


def test_margin_sweep_is_monotone(examples_dir):
    sys = load_system(examples_dir / "three_state_mixed.stab")
    seen_inconclusive = False
    for margin in (0.0, 0.1, 0.25, 0.3, 0.5, 1.0):
        decision = analyze(sys, AnalysisConfig(margin=margin)).verdict.decision
        assert decision in (EXP_STABILIZABLE_CONT_FEEDBACK, INCONCLUSIVE)
        if seen_inconclusive:
            assert decision == INCONCLUSIVE
        seen_inconclusive = decision == INCONCLUSIVE


def test_damping_shift_preserves_positive_verdict():
    base = ["x1^3 + x3", "x1 + x3", "0.1*x1 + x2^2 + u1"]
    last_eta = math.inf
    last_margin = -math.inf
    for eps in (0.0, 0.05, 0.1, 0.2):
        shifted = [f"{f} - {eps}*x{i + 1}" for i, f in enumerate(base)]
        a = analyze(system_from_strings("continuous", shifted, m=1))
        assert a.verdict.decision in POSITIVE_DECISIONS
        assert a.profile.eta < last_eta
        assert a.perturbation_margin > last_margin
        last_eta = a.profile.eta
        last_margin = a.perturbation_margin


def test_bounded_perturbation_note_is_opt_in():
    sys = system_from_strings("continuous", ["x2 + u1 - u1", "u1"], m=1)
    plain = analyze(sys).verdict
    assert plain.notes == ()
    noted = analyze(sys, AnalysisConfig(assume_bounded_perturbation=True)).verdict
    assert len(noted.notes) == 1
    assert "globally controllable in any fixed time" in noted.notes[0]


# --- discrete mode ------------------------------------------------------

def test_discrete_quadratic_positive(examples_dir):
    a = analyze(load_system(examples_dir / "discrete_quadratic.stab"))
    assert a.verdict.decision == ASY_STABILIZABLE_CONT_FEEDBACK
    assert _rules(a) == ["D1", "D2"]
    d1 = _rule(a, "D1")
    assert d1.evidence["cov"] == pytest.approx(DISCRETE_COV, abs=1e-9)
    assert d1.evidence["eta"] == pytest.approx(1.5)
    assert a.perturbation_margin == pytest.approx(DISCRETE_COV - 1.5, abs=1e-9)


def test_discrete_nilpotent_rule_order():
    a = analyze(system_from_strings("discrete", ["u1"], m=1))
    assert a.verdict.decision == ASY_STABILIZABLE_CONT_FEEDBACK
    assert _rules(a) == ["D3", "D1", "D2"]
    assert _rule(a, "D3").evidence["max_eigen_modulus"] == 0.0


def test_discrete_has_no_necessity_route():
    a = analyze(system_from_strings("discrete", ["2*x1 + u1 - u1"], m=1))
    assert a.verdict.decision == INCONCLUSIVE
    assert a.verdict.fired_rules == ()
    assert a.verdict.notes == (
        "no necessity criteria are available in discrete mode; "
        "the sufficiency tests were inconclusive",
    )
    assert any("Hautus rank test fails at lambda=2" in w for w in a.verdict.warnings)


DISCRETE_NOTE = (
    "no necessity criteria are available in discrete mode; "
    "the sufficiency tests were inconclusive"
)
NONREAL_WARNING = (
    "unstable spectrum contains nonreal eigenvalues; "
    "the sufficiency margin test does not apply"
)


@pytest.mark.parametrize(
    "mode, components, margin, warnings, notes",
    [
        ("continuous", ["x1 + x2", "-x1 + x2 + u1"], 0.0, (NONREAL_WARNING,), ()),
        ("discrete", ["x1 + x2", "-x1 + x2 + u1"], 0.0, (NONREAL_WARNING,), (DISCRETE_NOTE,)),
        ("discrete", ["2*x1 + u1"], 5.0, (
            "sufficiency margin failed: cov=2.2360679775 <= eta=2 + margin=5",
            "spectrum-wide margin failed: cov=2.2360679775 <= eta_tilde=2 + margin=5",
        ), (DISCRETE_NOTE,)),
        ("discrete", ["x2", "0"], 0.0, (
            "spectrum-wide margin failed: cov=0 <= eta_tilde=0 + margin=0",
        ), (DISCRETE_NOTE,)),
    ],
)
def test_margin_warnings_in_both_modes(mode, components, margin, warnings, notes):
    a = analyze(system_from_strings(mode, components, m=1), AnalysisConfig(margin=margin))
    assert a.verdict.decision == INCONCLUSIVE
    assert a.verdict.fired_rules == ()
    assert a.verdict.warnings == warnings
    assert a.verdict.notes == notes

# --- bookkeeping --------------------------------------------------------

def test_rule_table_is_complete():
    assert set(RULE_CITATIONS) == {
        "R1", "R2", "R3", "R4", "R5", "R6", "R7", "D1", "D2", "D3",
    }
    assert all(isinstance(text, str) and text for text in RULE_CITATIONS.values())


def test_fired_rules_carry_their_citation(examples_dir):
    a = analyze(load_system(examples_dir / "planar_cubic.stab"))
    for fired in a.verdict.fired_rules:
        assert fired.citation == RULE_CITATIONS[fired.rule]


def test_spectrum_rule_implies_controllability_flags(examples_dir):
    for name in ("planar_cubic.stab", "three_state_mixed.stab"):
        a = analyze(load_system(examples_dir / name))
        assert "R3" in _rules(a)
        assert a.verdict.flags.small_time_locally_controllable is True
        assert a.verdict.flags.linearized_controllable


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mode=st.sampled_from([gen.CONTINUOUS, gen.DISCRETE]), n=st.integers(1, 6),
       m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       tol_rank=st.sampled_from([None, 0.5, 1.5]))
def test_an_open_linearization_spans_every_direction(mode, n, m, seed, tol_rank):
    # Lyusternik-Graves: an onto [A | B] makes f open at (x*, u*), so R6 cannot fire;
    # a large rank cutoff makes some draws not open, and those are sampled
    spec = parse_system(gen.small_system(np.random.default_rng(seed), "chain", mode, n,
                                         min(m, n)).text)
    a = analyze(spec, AnalysisConfig(tol_rank=tol_rank))
    if a.openness.linearly_open:
        assert a.affine.span_dim == n
        assert "R6" not in _rules(a)
    else:
        assert a.affine.span_dim == span_dimension_estimate(spec, 0.1)


def test_analyze_compiles_no_field(monkeypatch, examples_dir):
    calls = _count_estimates(monkeypatch)
    specs = [load_system(path) for path in sorted(examples_dir.glob("*.stab"))]
    specs += [parse_system(g.text) for g in workloads.large_systems(0, smoke=False)]
    assert len(specs) == 6 + 24
    spans = [(analyze(spec).affine.span_dim, spec.n) for spec in specs]
    # every system but cubic_input (u1^3) is control-affine, and each of those has an
    # onto [A | B], so its span_dim is n and f is never sampled
    assert [span for span, _ in spans].count(None) == 1
    assert all(span in (None, n) for span, n in spans)
    assert calls == []
