"""Properties over the benchmark's generator, which knows A, B and the verdict exactly."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen, oracle
from stabkit.system import jacobian, parse_system
from stabkit.verdict import POSITIVE_DECISIONS, analyze

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
