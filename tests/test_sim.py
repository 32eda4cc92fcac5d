"""Closed-loop simulation tests: integrator accuracy, decay fits, checks."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from stabkit import sim
from stabkit.synthesis import synthesize
from stabkit.system import load_system, system_from_strings

LN2 = 0.6931471805599453


def _double_integrator():
    return system_from_strings("continuous", ["x2", "u1"], m=1)


# --- integrator accuracy ------------------------------------------------

def test_rk4_matches_matrix_exponential():
    traj = sim.integrate_closed_loop(
        _double_integrator(), ["-x1 - x2"], [1.0, 0.0], horizon=10.0, dt=1e-3
    )
    acl = np.array([[0.0, 1.0], [-1.0, -1.0]])
    x0 = np.array([1.0, 0.0])
    for idx in (1000, 5000, 10000):
        exact = scipy.linalg.expm(acl * traj.times[idx]) @ x0
        assert np.linalg.norm(traj.states[idx] - exact) <= 1e-6


def test_pure_exponential_rate():
    sys = system_from_strings("continuous", ["u1"], m=1)
    traj = sim.integrate_closed_loop(sys, ["-2*x1"], [0.5], horizon=5.0, dt=1e-3)
    fit = sim.estimate_decay(traj)
    assert fit.certified
    assert fit.alpha_hat == pytest.approx(2.0, abs=1e-6)
    assert fit.m_hat == pytest.approx(1.0, abs=1e-9)
    assert fit.residual <= 1e-9


def test_discrete_halving_rate():
    sys = system_from_strings("discrete", ["0.5*x1 + u1"], m=1)
    traj = sim.iterate_closed_loop(sys, ["0"], [1.0], steps=40)
    fit = sim.estimate_decay(traj)
    assert fit.alpha_hat == pytest.approx(LN2, abs=1e-9)
    assert fit.m_hat == pytest.approx(1.0, abs=1e-9)


def test_synthesized_gain_accepted_directly(examples_dir):
    sys = load_system(examples_dir / "planar_cubic.stab")
    gain = synthesize(sys)
    traj = sim.integrate_closed_loop(sys, gain, [0.1, 0.0], horizon=10.0, dt=1e-2)
    assert not traj.diverged
    assert traj.feedback_used == "-1.5*x1 + -2.5*x2"
    assert np.linalg.norm(traj.states[-1]) <= 1e-3


# --- divergence handling ------------------------------------------------

def test_divergence_truncates_and_flags():
    sys = system_from_strings("continuous", ["x1 + u1"], m=1)
    traj = sim.integrate_closed_loop(sys, ["0"], [0.1], horizon=20.0, dt=1e-2)
    assert traj.diverged
    assert traj.times[-1] < 20.0
    assert np.linalg.norm(traj.states[-1]) > sim.DIVERGENCE_NORM
    assert traj.times[-1] == pytest.approx(math.log(sim.DIVERGENCE_NORM / 0.1), abs=0.1)
    with pytest.raises(ValueError, match="divergent"):
        sim.estimate_decay(traj)


def test_equilibrium_start_has_nothing_to_fit():
    sys = system_from_strings("continuous", ["u1"], m=1)
    traj = sim.integrate_closed_loop(sys, ["-x1"], [0.0], horizon=1.0, dt=1e-2)
    assert not traj.diverged
    assert np.all(traj.states == 0.0)
    with pytest.raises(ValueError, match="equilibrium"):
        sim.estimate_decay(traj)


# --- stability certification --------------------------------------------

def test_verify_planar_cubic(examples_dir):
    sys = load_system(examples_dir / "planar_cubic.stab")
    check = sim.verify_local_stability(
        sys, ["-1.5*x1 - 2.5*x2"], delta=0.05, samples=12, horizon=6.0, dt=1e-2
    )
    assert check.passed
    assert check.failures == ()
    assert check.min_alpha >= 0.1
    assert check.worst is not None and check.worst.certified
    assert check.worst_x0 is not None


def test_verify_shrinking_radius_still_passes(examples_dir):
    sys = load_system(examples_dir / "planar_cubic.stab")
    for delta in (0.05, 0.025):
        check = sim.verify_local_stability(
            sys, ["-1.5*x1 - 2.5*x2"], delta=delta, samples=12, horizon=6.0, dt=1e-2
        )
        assert check.passed, f"delta={delta}"


def test_verify_reports_failures():
    sys = system_from_strings("continuous", ["x1 + u1"], m=1)
    check = sim.verify_local_stability(
        sys, ["0"], delta=0.1, samples=6, horizon=20.0, dt=1e-2
    )
    assert not check.passed
    assert check.min_alpha == -math.inf
    assert len(check.failures) == 6


def test_translated_equilibrium_validates_like_the_original(examples_dir):
    # planar_cubic moved to x* = (1, 0): decay is measured to x*, not to 0
    base = load_system(examples_dir / "planar_cubic.stab")
    moved = system_from_strings("continuous", ["(x1 - 1)^3 + x2", "u1"], x_eq=[1.0, 0.0])
    kwargs = dict(delta=0.05, samples=12, horizon=6.0, dt=1e-2)
    ref = sim.verify_local_stability(base, synthesize(base), **kwargs)
    check = sim.verify_local_stability(moved, synthesize(moved), **kwargs)
    assert ref.passed and check.passed
    assert check.min_alpha == pytest.approx(ref.min_alpha, abs=1e-6)
    traj = sim.integrate_closed_loop(moved, synthesize(moved), [1.1, 0.0], horizon=6.0, dt=1e-2)
    ref_traj = sim.integrate_closed_loop(base, synthesize(base), [0.1, 0.0], horizon=6.0, dt=1e-2)
    assert list(traj.x_eq) == [1.0, 0.0]
    assert sim.estimate_decay(traj).alpha_hat == pytest.approx(
        sim.estimate_decay(ref_traj).alpha_hat, abs=1e-6)


def _translated(mode: str, c: tuple[float, float, float]):
    """planar_cubic (continuous) or discrete_quadratic, moved to x* = c[:n], u* = c[2]."""
    x1, x2, u1 = (f"(x1 - ({c[0]!r}))", f"(x2 - ({c[1]!r}))", f"(u1 - ({c[2]!r}))")
    if mode == "continuous":
        return system_from_strings(mode, [f"{x1}^3 + {x2}", u1], x_eq=c[:2], u_eq=c[2:])
    return system_from_strings(
        mode, [f"({c[0]!r}) + 1.5*{x1} + {u1} + {x1}^2"], x_eq=c[:1], u_eq=c[2:])


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@settings(derandomize=True, max_examples=6, deadline=None)
@given(c=st.tuples(*[st.floats(-5.0, 5.0)] * 3))
def test_translation_shifts_trajectories_and_validation(mode, c):
    base, moved = _translated(mode, (0.0, 0.0, 0.0)), _translated(mode, c)
    shift = np.asarray(moved.x_eq)
    results = []
    for system in (base, moved):
        gain = synthesize(system)
        x0 = np.asarray(system.x_eq) + 0.1
        if mode == "continuous":
            traj = sim.integrate_closed_loop(system, gain, x0, horizon=1.0, dt=1e-2)
        else:
            traj = sim.iterate_closed_loop(system, gain, x0, steps=15)
        check = sim.verify_local_stability(
            system, gain, delta=0.05, samples=6, horizon=2.0, dt=1e-2, steps=15)
        results.append((traj, check))
    (ref_traj, ref), (traj, check) = results
    assert np.array_equal(traj.times, ref_traj.times)
    np.testing.assert_allclose(traj.states - shift, ref_traj.states, rtol=0, atol=1e-9)
    assert check.passed == ref.passed
    assert check.min_alpha == pytest.approx(ref.min_alpha, abs=1e-6)


def test_verify_is_deterministic(examples_dir):
    sys = load_system(examples_dir / "planar_cubic.stab")
    kwargs = dict(delta=0.05, samples=9, horizon=4.0, dt=1e-2)
    a = sim.verify_local_stability(sys, ["-1.5*x1 - 2.5*x2"], **kwargs)
    b = sim.verify_local_stability(sys, ["-1.5*x1 - 2.5*x2"], **kwargs)
    assert a.min_alpha == b.min_alpha
    assert a.worst_x0 == b.worst_x0


@pytest.mark.parametrize("dim", range(2, 51))
def test_halton_matches_scipy(dim):
    sampler = qmc.Halton(d=dim, scramble=False)
    sampler.fast_forward(1)
    assert np.array_equal(sim._halton(100, dim), sampler.random(100))


# --- feedback normalization ---------------------------------------------

def test_make_feedback_validation():
    sys = _double_integrator()
    with pytest.raises(ValueError, match="expected 1 feedback components"):
        sim.make_feedback(sys, ["-x1", "-x2"])
    with pytest.raises(ValueError, match="references a control"):
        sim.make_feedback(sys, ["-x1 + u1"])
    with pytest.raises(ValueError, match="references x3"):
        sim.make_feedback(sys, ["-x3"])


def test_make_feedback_smoothness_flag():
    sys = system_from_strings("continuous", ["u1"], m=1)
    assert sim.make_feedback(sys, ["-2*x1"]).smooth
    assert not sim.make_feedback(sys, ["x1^0.5"]).smooth
    fb = sim.make_feedback(sys, lambda states: -states)
    assert fb.smooth and fb.description == "custom callable"
    assert sim.make_feedback(sys, fb) is fb


def test_mode_and_argument_guards():
    cont = system_from_strings("continuous", ["u1"], m=1)
    disc = system_from_strings("discrete", ["u1"], m=1)
    with pytest.raises(ValueError, match="continuous-mode"):
        sim.integrate_closed_loop(disc, ["0"], [0.1])
    with pytest.raises(ValueError, match="discrete-mode"):
        sim.iterate_closed_loop(cont, ["0"], [0.1])
    with pytest.raises(ValueError, match="positive"):
        sim.integrate_closed_loop(cont, ["0"], [0.1], dt=0.0)
    with pytest.raises(ValueError, match="positive"):
        sim.iterate_closed_loop(disc, ["0"], [0.1], steps=0)
    with pytest.raises(ValueError, match="delta"):
        sim.verify_local_stability(cont, ["0"], delta=0.0)
    with pytest.raises(ValueError, match="transient_skip"):
        traj = sim.integrate_closed_loop(cont, ["-x1"], [0.1], horizon=1.0, dt=0.1)
        sim.estimate_decay(traj, transient_skip=1.0)
    for skip in (-0.1, 1.0, float("nan")):
        with pytest.raises(ValueError, match="transient_skip"):
            sim.verify_local_stability(cont, ["-x1"], delta=0.1, transient_skip=skip)


def test_nan_and_nonpositive_grids_are_rejected():
    cont = system_from_strings("continuous", ["u1"], m=1)
    nan = float("nan")
    with pytest.raises(ValueError, match="delta"):
        sim.verify_local_stability(cont, ["0"], delta=nan)
    for grid in (dict(horizon=nan), dict(dt=nan), dict(dt=0.0), dict(horizon=-1.0)):
        with pytest.raises(ValueError, match="positive"):
            sim.verify_local_stability(cont, ["0"], delta=0.1, **grid)
        with pytest.raises(ValueError, match="positive"):
            sim.integrate_closed_loop(cont, ["0"], [0.1], **grid)
    disc = system_from_strings("discrete", ["u1"], m=1)
    for steps in (0, -3, nan):
        with pytest.raises(ValueError, match="steps must be positive"):
            sim.verify_local_stability(disc, ["0"], delta=0.1, steps=steps)
        with pytest.raises(ValueError, match="steps must be positive"):
            sim.iterate_closed_loop(disc, ["0"], [0.1], steps=steps)


# --- CSV rendering ------------------------------------------------------

def test_trajectory_csv_round_trips():
    sys = _double_integrator()
    traj = sim.integrate_closed_loop(sys, ["-x1 - x2"], [0.3, -0.1], horizon=0.05, dt=1e-2)
    text = sim.trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1,x2"
    assert len(lines) == len(traj.times) + 1
    for line, t, row in zip(lines[1:], traj.times, traj.states):
        parsed = [float(v) for v in line.split(",")]
        assert parsed[0] == t
        assert parsed[1:] == list(row)
