"""Acceptance gate: the ten shipping criteria, one test and one line each.

Each test records a single "criterion NN: PASS - ..." line once every
assertion in it has passed; conftest prints the collected lines in an
"acceptance gate" section after the run (failures get a FAIL line from the
report hook).  Tolerances here are contractual; do not loosen them.
"""

import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from test_expr import FD_REL_TOL, FD_STEP, _random_expr
from test_hautus import _random_pair
from test_synthesis import _random_placement_case

from stabkit import expr as ex
from stabkit.hautus import controllable_subspace, hautus_tests
from stabkit.linalg import spectrum
from stabkit.openness import empirical_covering_modulus, openness_report
from stabkit.sim import estimate_decay, integrate_closed_loop, iterate_closed_loop
from stabkit.synthesis import place_poles, pole_match_error, synthesize
from stabkit.system import Linearization, load_system, system_from_strings
from stabkit.verdict import POSITIVE_DECISIONS, analyze


def _announce(num: int, detail: str) -> None:
    ACCEPTANCE_LINES.append(f"criterion {num:02d}: PASS - {detail}")


def test_criterion_01_three_state_regression(examples_dir):
    start = time.perf_counter()
    a = analyze(load_system(examples_dir / "three_state_mixed.stab"))
    elapsed = time.perf_counter() - start
    assert a.openness.cov_bound == pytest.approx(0.6144, abs=5e-4)
    assert a.profile.eta == pytest.approx(0.3162, abs=5e-4)
    assert a.openness.jacobian_rank == 3
    assert a.verdict.decision == "EXP_STABILIZABLE_CONT_FEEDBACK"
    assert "R1" in [r.rule for r in a.verdict.fired_rules]
    assert elapsed < 1.0
    _announce(1, f"cov={a.openness.cov_bound:.6g} eta={a.profile.eta:.6g} "
                 f"rank=3/3 in {elapsed * 1000:.0f}ms")


def test_criterion_02_planar_pipeline(examples_dir):
    start = time.perf_counter()
    plant = load_system(examples_dir / "planar_cubic.stab")
    a = analyze(plant)
    assert a.verdict.decision in POSITIVE_DECISIONS
    assert "R2" in [r.rule for r in a.verdict.fired_rules]
    k = np.array([[-1.0, -1.0]])
    closed = a.linearization.a + a.linearization.b @ k
    want = [complex(-0.5, math.sqrt(3.0) / 2.0), complex(-0.5, -math.sqrt(3.0) / 2.0)]
    pole_err = pole_match_error(np.linalg.eigvals(closed), want)
    assert pole_err <= 1e-8
    traj = integrate_closed_loop(plant, ["-x1 - x2"], [0.1, 0.0], horizon=10.0, dt=2e-3)
    assert not traj.diverged
    final = float(np.linalg.norm(traj.states[-1]))
    assert final <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _announce(2, f"pole_err={pole_err:.2e} ||x(10)||={final:.2e} in {elapsed:.2f}s")


def test_criterion_03_uncontrollable_gate(run_cli, examples_dir):
    a = analyze(load_system(examples_dir / "unstable_drift.stab"))
    assert a.openness.jacobian_rank == 2
    assert a.openness.linearly_open
    assert not a.hautus.holds
    assert any(abs(v - 1.0) <= 1e-9 for v in a.hautus.failures)
    assert a.verdict.decision == "INCONCLUSIVE"
    assert any("Hautus rank test fails at lambda=1" in w for w in a.verdict.warnings)
    code, _, err = run_cli("synthesize", examples_dir / "unstable_drift.stab")
    assert code == 3
    assert "uncontrollable unstable mode" in err
    _announce(3, "rank=2 but Hautus fails at lambda=1; synthesize exits 3")


def test_criterion_04_cubic_covering_separation(examples_dir):
    cubic = load_system(examples_dir / "cubic_input.stab")
    ident = load_system(examples_dir / "identity_input.stab")
    radii = (0.1, 0.05, 0.025)
    ratios = []
    factors = []
    for r in radii:
        kappa = empirical_covering_modulus(cubic, radius=r)
        factors.append(kappa / r**2)
        assert 1.0 / 1.5 <= factors[-1] <= 1.5
        ratios.append(kappa / r)
    assert ratios[0] > ratios[1] > ratios[2]
    floors = [empirical_covering_modulus(ident, radius=r) for r in radii]
    assert all(kappa >= 0.9 for kappa in floors)
    _announce(4, f"cubic kappa/r^2 in [{min(factors):.4f}, {max(factors):.4f}]; "
                 f"identity min={min(floors):.4f}")


def test_criterion_05_covering_regularity_reciprocity():
    rng = np.random.default_rng(31)
    checked = 0
    worst = 0.0
    while checked < 100:
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        lin = Linearization(rng.normal(size=(n, n)), rng.normal(size=(n, m)))
        rep = openness_report(lin)
        if rep.cov_bound == 0.0:
            continue
        worst = max(worst, abs(rep.cov_bound * rep.reg_bound - 1.0))
        checked += 1
    assert worst <= 1e-12
    _announce(5, f"|cov*reg - 1| <= {worst:.2e} over 100 linearizations")


def test_criterion_06_placement_accuracy():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        a, b, desired = _random_placement_case(rng)
        k = place_poles(a, b, desired, rng=rng)
        worst = max(worst, pole_match_error(np.linalg.eigvals(a + b @ k), desired))
    assert worst <= 1e-6
    gain = synthesize(system_from_strings("continuous", ["x2", "u1", "-2*x3"], m=1))
    drift = min(abs(p - (-2.0)) for p in gain.achieved_poles)
    assert drift <= 1e-8
    _announce(6, f"max pole error {worst:.2e}; uncontrollable mode kept to {drift:.2e}")


def test_criterion_07_jacobians_match_finite_differences():
    rng = np.random.default_rng(47)
    checked = 0
    worst = 0.0
    while checked < 100:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        comps = [_random_expr(rng, n, m, depth=3) for _ in range(n)]
        x = rng.uniform(-0.5, 0.5, n)
        u = rng.uniform(-0.5, 0.5, m)
        ok = True
        for comp in comps:
            for idx, is_state in [(i, True) for i in range(n)] + [(j, False) for j in range(m)]:
                tx = np.zeros(n)
                tu = np.zeros(m)
                xp, xm, up, um = x.copy(), x.copy(), u.copy(), u.copy()
                if is_state:
                    tx[idx] = 1.0
                    xp[idx] += FD_STEP
                    xm[idx] -= FD_STEP
                else:
                    tu[idx] = 1.0
                    up[idx] += FD_STEP
                    um[idx] -= FD_STEP
                try:
                    _, ad = ex.eval_tangent(comp, x, u, tx, tu)
                    fd = (ex.eval_expr(comp, xp, up) - ex.eval_expr(comp, xm, um)) / (2 * FD_STEP)
                except ex.EvalError:
                    ok = False
                    break
                gap = abs(ad - fd) / max(1.0, abs(ad))
                assert gap <= FD_REL_TOL, ex.unparse(comp)
                worst = max(worst, gap)
            if not ok:
                break
        if ok:
            checked += 1
    _announce(7, f"worst relative AD-vs-FD gap {worst:.2e} over 100 systems")


def test_criterion_08_discrete_pipeline(examples_dir):
    plant = load_system(examples_dir / "discrete_quadratic.stab")
    a = analyze(plant)
    assert a.openness.cov_bound == pytest.approx(math.sqrt(3.25), abs=1e-9)
    assert a.profile.eta == pytest.approx(1.5, abs=1e-12)
    assert a.openness.cov_bound > a.profile.eta
    assert a.verdict.decision in POSITIVE_DECISIONS
    assert "D1" in [r.rule for r in a.verdict.fired_rules]
    gain = synthesize(plant)
    assert gain.k[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert abs(gain.achieved_poles[0] - 0.5) <= 1e-12
    traj = iterate_closed_loop(plant, gain, [0.1], steps=60)
    fit = estimate_decay(traj)
    assert fit.certified
    assert fit.alpha_hat >= 0.5
    _announce(8, f"cov={a.openness.cov_bound:.9f} pole=0.5 alpha_hat={fit.alpha_hat:.4f}")


def test_criterion_09_hautus_kalman_equivalence():
    rng = np.random.default_rng(29)
    for trial in range(200):
        a, b, controllable = _random_pair(rng, controllable=trial % 2 == 0)
        n = a.shape[0]
        lin = Linearization(a, b)
        # the Kalman rank that analyze reports, against the pencil ranks
        kalman_full = controllable_subspace(lin)[1] == n
        assert kalman_full == controllable
        assert hautus_tests(lin, (), spectrum(a))[1] == kalman_full
    _announce(9, "full-spectrum Hautus == full Kalman rank on 200 pairs")


def test_criterion_10_deterministic_reports(run_cli, examples_dir):
    first = run_cli("analyze", examples_dir / "three_state_mixed.stab", "--json", "--seed", "3")
    second = run_cli("analyze", examples_dir / "three_state_mixed.stab", "--json", "--seed", "3")
    assert first[0] == 0
    assert first == second
    synth_a = run_cli("synthesize", examples_dir / "planar_cubic.stab", "--json", "--seed", "5")
    synth_b = run_cli("synthesize", examples_dir / "planar_cubic.stab", "--json", "--seed", "5")
    assert synth_a[0] == 0
    assert synth_a == synth_b
    _announce(10, "repeat runs are byte-identical for analyze and synthesize")
