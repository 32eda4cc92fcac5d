"""Closed-loop simulation tests: integrator accuracy, decay fits, checks."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.stats import qmc

from stabkit import sim
from stabkit.expr import eval_field
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


@pytest.mark.parametrize("name, feedback, horizon, dt", [
    ("planar_cubic", ["-x1-2*x2"], 20.0, 1e-3),
    ("three_state_mixed", None, 10.0, 1e-2),
])
def test_grid_states_match_a_tight_dop853_solve(examples_dir, name, feedback, horizon, dt):
    # both runs end with ||x - x*|| above 1e-10; far below that the absolute
    # part of the error test (STEP_ERROR_FLOOR) governs instead
    system = load_system(examples_dir / f"{name}.stab")
    gain = feedback or synthesize(system)
    x_eq = np.asarray(system.x_eq)
    starts = list(sim._initial_states(system, 0.05, 3)) + [x_eq + 0.1 * np.eye(system.n)[0]]
    for x0 in starts:
        traj = sim.integrate_closed_loop(system, gain, x0, horizon=horizon, dt=dt)
        assert not traj.diverged and len(traj.times) == round(horizon / dt) + 1
        ref = _dop853_states(system, gain, x0, traj.times)
        gap = np.linalg.norm(traj.states - ref, axis=1)
        assert np.all(gap <= 1e-6 * np.linalg.norm(ref - x_eq, axis=1))


def test_default_planar_trajectory_takes_few_field_calls(examples_dir):
    system = load_system(examples_dir / "planar_cubic.stab")
    fb = sim.make_feedback(system, ["-x1-2*x2"])
    calls = []

    def counted(states):
        calls.append(len(states))
        return fb(states)

    traj = sim.integrate_closed_loop(system, counted, [0.1, 0.0])
    assert len(traj.times) == 20001 and not traj.diverged
    # one field call per feedback call
    assert len(calls) <= 2000


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


def test_finite_time_blow_up_ends_on_the_last_finite_grid_sample(examples_dir):
    # with u = 0, x1' = x1^3 + 0.5 from x1 = 0.1 blows up at t = 1.7196
    sys = load_system(examples_dir / "planar_cubic.stab")
    traj = sim.integrate_closed_loop(sys, ["0"], [0.1, 0.5], horizon=20.0, dt=1e-2)
    assert traj.diverged
    assert np.isfinite(traj.states).all()
    assert traj.times[-1] == pytest.approx(1.71)
    assert traj.states[-1] == pytest.approx([7.2207699, 0.5], rel=1e-5)


def test_equilibrium_start_has_nothing_to_fit():
    sys = system_from_strings("continuous", ["u1"], m=1)
    traj = sim.integrate_closed_loop(sys, ["-x1"], [0.0], horizon=1.0, dt=1e-2)
    assert not traj.diverged
    assert np.all(traj.states == 0.0)
    with pytest.raises(ValueError, match="equilibrium"):
        sim.estimate_decay(traj)


# --- bounded storage ----------------------------------------------------

def test_cli_default_grids_fit_the_storage_cap():
    cont = system_from_strings("continuous", ["u1"], m=1)
    disc = system_from_strings("discrete", ["u1"], m=1)
    n, samples = 50, 100  # the largest supported system, the --samples default
    grid = dict(horizon=sim.DEFAULT_HORIZON, dt=sim.DEFAULT_DT, steps=sim.DEFAULT_STEPS)
    # simulate stores one run's states and validation one norm per run; the
    # discrete grid would fit even with every run's states
    assert len(sim._time_grid(cont, floats_per_sample=n, **grid)) == 20001
    assert len(sim._time_grid(cont, floats_per_sample=samples, **grid)) == 20001
    assert len(sim._time_grid(disc, floats_per_sample=samples * n, **grid)) == 201


def test_discrete_validation_stores_one_norm_per_sample():
    # n = 50 states of 100 runs over 1 701 iterates would exceed the cap; the norms fit
    n, steps = 50, 1700
    system = system_from_strings(
        "discrete", [f"0.99*x{i}" + (" + u1" if i == 1 else "") for i in range(1, n + 1)], m=1)
    check = sim.verify_local_stability(system, ["0"], delta=0.1, samples=100, steps=steps)
    assert check.passed
    assert check.min_alpha == pytest.approx(-math.log(0.99), rel=1e-9)


def test_oversized_time_grids_are_rejected():
    cont = system_from_strings("continuous", ["u1"], m=1)
    disc = system_from_strings("discrete", ["u1"], m=1)
    for grid in (dict(horizon=1e12), dict(dt=1e-300), dict(horizon=1e300, dt=1e-300)):
        with pytest.raises(ValueError, match="exceeds the limit"):
            sim.integrate_closed_loop(cont, ["-x1"], [0.1], **grid)
        with pytest.raises(ValueError, match="exceeds the limit"):
            sim.verify_local_stability(cont, ["-x1"], delta=0.1, **grid)
    with pytest.raises(ValueError, match="exceeds the limit"):
        sim.iterate_closed_loop(disc, ["0"], [0.1], steps=10**12)
    with pytest.raises(ValueError, match="exceeds the limit"):
        sim.verify_local_stability(disc, ["0"], delta=0.1, steps=10**12)
    for system in (cont, disc):
        with pytest.raises(ValueError, match="exceeds the limit"):
            sim.verify_local_stability(system, ["0"], delta=0.1, samples=10**9)


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


def _dop853_states(system, gain, x0, times):
    """States of the closed loop on ``times`` from a tight DOP853 solve."""
    fb = sim.make_feedback(system, gain)

    def rhs(_, x):
        return eval_field(system.components, x[None, :], fb(x[None, :]))[0]

    sol = solve_ivp(rhs, (times[0], times[-1]), x0, method="DOP853",
                    t_eval=times, rtol=1e-13, atol=1e-20)
    assert sol.success
    return sol.y.T


def _dop853_reference(system, gain, delta, samples, horizon, dt):
    """Validation redone on DOP853 states from the same starts."""
    x0s = sim._initial_states(system, delta, samples)
    times = sim._time_grid(system, horizon, dt, None, samples)
    alphas = []
    for x0 in x0s:
        states = _dop853_states(system, gain, x0, times)
        norms = np.linalg.norm(states - np.asarray(system.x_eq), axis=1)
        alphas.append(sim._fit_decay(times, norms, 0.1).alpha_hat)
    return alphas


@pytest.mark.parametrize("system", [
    "planar_cubic",
    "three_state_mixed",
    ("continuous", ["(x1 - 1)^3 + x2", "u1"], [1.0, 0.0]),
], ids=["planar_cubic", "three_state_mixed", "planar_translated"])
def test_adaptive_validation_matches_the_fixed_step_reference(examples_dir, system):
    if isinstance(system, str):
        system = load_system(examples_dir / f"{system}.stab")
    else:
        mode, components, x_eq = system
        system = system_from_strings(mode, components, x_eq=x_eq)
    gain = synthesize(system)
    grid = dict(delta=0.05, samples=12, horizon=6.0, dt=1e-2)
    check = sim.verify_local_stability(system, gain, **grid)
    reference = _dop853_reference(system, gain, **grid)
    assert check.passed
    assert check.min_alpha == pytest.approx(min(reference), abs=1e-3)


@pytest.mark.parametrize("component, feedback, bad_x0", [
    ("x1^0.5 + u1", "-2*x1", -0.05),  # the negative start turns NaN at once
    ("x1^2 + u1", "0", 0.1),  # the positive start blows up at t = 10
])
def test_failing_rows_end_as_failures_in_bounded_work(component, feedback, bad_x0):
    calls = []
    system = system_from_strings("continuous", [component], m=1)
    fb = sim.make_feedback(system, [feedback])

    def counted(states):
        calls.append(len(states))
        return fb(states)

    check = sim.verify_local_stability(system, counted, delta=0.1, samples=4)
    assert not check.passed
    assert check.min_alpha == -math.inf
    assert (bad_x0,) in check.failures
    # the fixed-step runner would take 11 calls per step for 20 000 steps
    assert len(calls) <= 5000


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


@pytest.mark.parametrize("text, reason", [
    ("1/0", "division by zero"),
    ("0^-1", "zero base raised to a negative power"),
    ("10^400", "overflow in power"),
    ("x1/0", "division by zero"),
])
def test_make_feedback_rejects_a_law_undefined_at_the_equilibrium(text, reason):
    with pytest.raises(ValueError, match=rf"feedback component 1 is undefined at x\*: {reason}"):
        sim.make_feedback(_double_integrator(), [text])


def test_make_feedback_checks_the_law_at_the_systems_equilibrium():
    with pytest.raises(ValueError, match=r"feedback component 1 is not finite at x\*: inf"):
        sim.make_feedback(_double_integrator(), ["1e308*10"])
    shifted = system_from_strings("continuous", ["x1 - 1 + u1"], x_eq=[1.0])
    with pytest.raises(ValueError, match=r"undefined at x\*"):
        sim.make_feedback(shifted, ["1/(x1 - 1)"])
    # singular away from x* only: the batch walk gives inf there instead of raising
    fb = sim.make_feedback(shifted, ["1/x1"])
    with np.errstate(divide="ignore"):
        assert fb(np.array([[2.0], [0.0]])).tolist() == [[0.5], [math.inf]]


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
