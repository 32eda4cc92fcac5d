"""Properties over the benchmark's generator, which knows A, B and the verdict exactly,
and of the verdict's rule table over generated and small integer systems."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen, oracle
from stabkit.hautus import controllable_subspace
from stabkit.synthesis import PlacementError, UncontrollableError, synthesize
from stabkit.system import Linearization, jacobian, parse_system, system_from_strings
from stabkit.verdict import INCONCLUSIVE, POSITIVE_DECISIONS, AnalysisConfig, analyze

MODES = st.sampled_from([gen.CONTINUOUS, gen.DISCRETE])
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def chain_systems(draw):
    """Chains with n <= 10 and a translated equilibrium; R1/D1 holds by construction."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, min(n, 3)))
    mode = draw(MODES)
    return gen.small_system(np.random.default_rng(draw(SEEDS)), f"chain_{n}{m}", mode, n, m)


@st.composite
def dense_systems(draw):
    """The Baseline draws: dense random A up to the n = 50 cap, verdict not predicted."""
    n = draw(st.sampled_from([10, 30, 50]))
    mode = draw(MODES)
    return gen.large_system(np.random.default_rng(draw(SEEDS)), f"large_{n}", mode, n)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(g=st.one_of(chain_systems(), dense_systems()))
def test_generated_systems_linearize_and_decide_as_built(g):
    spec = parse_system(g.text)
    lin = jacobian(spec)
    assert oracle.linearization(g, lin.a, lin.b) == []
    if g.expect_positive:
        assert analyze(spec).verdict.decision in POSITIVE_DECISIONS


@settings(derandomize=True, max_examples=40, deadline=None)
@given(g=st.one_of(chain_systems(), dense_systems()))
def test_one_kalman_svd_gives_the_reported_rank_and_the_placed_block(g):
    spec = parse_system(g.text)
    lin = jacobian(spec)
    # a fresh linearization takes its own SVD, which must agree with the one analyze kept
    t, dim = controllable_subspace(Linearization(lin.a, lin.b))
    assert dim == analyze(spec).kalman_rank
    assert np.abs(t.T @ t - np.eye(spec.n)).max() <= 1e-12
    try:
        gain = synthesize(spec)
    except (PlacementError, UncontrollableError):  # n >= 30 placement fails (ROADMAP item 3)
        return
    assert len(gain.target_poles) == dim


@st.composite
def integer_systems(draw):
    """Small systems with integer coefficients; some driftless, some with a nonlinear term.

    A linear part scaled by 0.1 falls below the 0.5 rank cutoff, which fires R4 and R5.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    mode = draw(MODES)
    xs = [f"x{j + 1}" for j in range(n)]
    us = [f"u{k + 1}" for k in range(m)]
    driftless = draw(st.booleans())
    scale = draw(st.sampled_from([1, 0.1]))
    components = []
    for _ in range(n):
        if driftless:
            fields = draw(st.lists(st.sampled_from(["0", "1", "-1", "2", *xs]), min_size=m,
                                   max_size=m))
            terms = [f"{g}*{u}" for g, u in zip(fields, us)]
        else:
            terms = [f"{scale * draw(st.sampled_from([1, -1, 2, -2, 0]))}*{v}" for v in xs]
            terms += [f"{scale * draw(st.sampled_from([1, -1, 0]))}*{u}" for u in us]
            terms += draw(st.sampled_from(
                [[], [f"{xs[0]}^2"], [f"{xs[-1]}^3"], [f"{xs[0]}*{us[-1]}"], [f"{us[0]}^3"]]))
        components.append(" + ".join(terms))
    config = AnalysisConfig(tol_rank=draw(st.sampled_from([0.5, None])),
                            margin=draw(st.sampled_from([0.0, 0.3])))
    return system_from_strings(mode, components, m=m), config


MARGIN_WARNINGS = ("unstable spectrum contains nonreal", "sufficiency margin failed",
                   "spectrum-wide margin failed")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=st.one_of(chain_systems().map(lambda g: (parse_system(g.text), None)),
                      integer_systems()))
def test_verdict_is_the_first_fired_row(case):
    spec, config = case
    verdict = analyze(spec, config).verdict
    fired = verdict.fired_rules
    assert verdict.decision == (fired[0].decision if fired else INCONCLUSIVE)
    positive = [r.decision in POSITIVE_DECISIONS for r in fired]
    assert positive == sorted(positive, reverse=True)
    prefix = "R" if spec.mode == gen.CONTINUOUS else "D"
    assert all(r.rule.startswith(prefix) for r in fired)
    if fired:
        assert not any(w.startswith(MARGIN_WARNINGS) for w in verdict.warnings)
    r3 = any(r.rule == "R3" for r in fired)
    assert (verdict.flags.small_time_locally_controllable is True) == r3
