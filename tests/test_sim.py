"""Closed-loop simulation tests: integrator accuracy, decay fits, checks."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.special import ndtri
from scipy.stats import qmc

from stabkit import sim
from stabkit.expr import eval_field
from stabkit.linalg import MAX_DIM
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
    with pytest.raises(ValueError,
                       match="^cannot fit a decay envelope on a divergent trajectory$"):
        sim.estimate_decay(traj)


def test_each_runner_refuses_the_other_mode():
    cont = system_from_strings("continuous", ["x1 + u1"], m=1)
    disc = system_from_strings("discrete", ["0.5*x1 + u1"], m=1)
    with pytest.raises(ValueError,
                       match="^integrate_closed_loop requires a continuous-mode system$"):
        sim.integrate_closed_loop(disc, ["-0.5*x1"], [1.0])
    with pytest.raises(ValueError, match="^iterate_closed_loop requires a discrete-mode system$"):
        sim.iterate_closed_loop(cont, ["-2*x1"], [1.0])


def test_finite_time_blow_up_ends_on_the_last_finite_grid_sample(examples_dir):
    # with u = 0, x1' = x1^3 + 0.5 from x1 = 0.1 blows up at t = 1.7196
    sys = load_system(examples_dir / "planar_cubic.stab")
    traj = sim.integrate_closed_loop(sys, ["0"], [0.1, 0.5], horizon=20.0, dt=1e-2)
    assert traj.diverged
    assert np.isfinite(traj.states).all()
    assert traj.times[-1] == pytest.approx(1.71)
    assert traj.states[-1] == pytest.approx([7.2207699, 0.5], rel=1e-5)


def test_fit_stops_at_the_first_exact_zero():
    times = np.arange(10.0)
    norms = 0.5 ** times
    clean = sim._fit_decays(times[:6], norms[None, :6], np.arange(1), 0.1)[0]
    # round-off after a zero must not reach the fit or the envelope
    norms[6:] = [0.0, 1e-30, 0.0, 0.0]
    with np.errstate(all="raise"):
        fit = sim._fit_decays(times, norms[None], np.arange(1), 0.1)[0]
    assert fit == clean
    assert fit.alpha_hat == pytest.approx(LN2, abs=1e-12) and fit.certified


def test_deadbeat_map_decays_faster_than_any_exponential():
    sys = system_from_strings("discrete", ["0.5*x1 + u1"], m=1)
    traj = sim.iterate_closed_loop(sys, ["-0.5*x1"], [1.0], steps=40)
    assert np.all(traj.states[1:] == 0.0)
    fit = sim.estimate_decay(traj)
    assert fit == sim.DecayFit(m_hat=1.0, alpha_hat=math.inf, residual=0.0, certified=True)
    check = sim.verify_local_stability(sys, ["-0.5*x1"], delta=0.05, samples=6, steps=40)
    assert check.passed and check.min_alpha == math.inf and check.worst is None


def test_equilibrium_start_has_nothing_to_fit():
    sys = system_from_strings("continuous", ["u1"], m=1)
    traj = sim.integrate_closed_loop(sys, ["-x1"], [0.0], horizon=1.0, dt=1e-2)
    assert not traj.diverged
    assert np.all(traj.states == 0.0)
    with pytest.raises(ValueError, match="equilibrium"):
        sim.estimate_decay(traj)


def test_a_start_on_the_equilibrium_is_rejected_before_integrating():
    def never_called(states):
        raise AssertionError("the closed loop was evaluated")

    # 1 + 1e-17 rounds to 1; the square of 1e-320 underflows to 0
    for shift, delta in ((1.0, 1e-17), (0.0, 1e-320)):
        sys = system_from_strings("continuous", [f"(x1 - {shift})^3 + x2 - {shift}", "u1"],
                                  x_eq=[shift, shift])
        with pytest.raises(ValueError, match=f"delta={delta} puts a start on x\\*"):
            sim.verify_local_stability(sys, never_called, delta=delta)


# --- the batched decay fit ----------------------------------------------

def _lstsq_fit_decay(times, norms, transient_skip):
    """One row's fit as ``sim`` made it before the batched fit: one lstsq per row."""
    start_norm = norms[0]
    if start_norm == 0.0:
        raise ValueError("trajectory starts at the equilibrium; nothing to fit")
    zeros = np.flatnonzero(norms == 0.0)
    if zeros.size:
        if zeros[0] == 1:
            return sim.DecayFit(m_hat=1.0, alpha_hat=math.inf, residual=0.0, certified=True)
        times, norms = times[:zeros[0]], norms[:zeros[0]]
    start = int(math.floor(transient_skip * len(norms)))
    start = min(start, len(norms) - 2)
    logs = np.log(np.maximum(norms, 1e-300))
    design = np.column_stack([times[start:], np.ones(len(times) - start)])
    coef, *_ = np.linalg.lstsq(design, logs[start:], rcond=None)
    slope = float(coef[0])
    alpha = -slope
    residual = float(np.sqrt(np.mean((design @ coef - logs[start:]) ** 2)))
    with np.errstate(over="ignore"):
        envelope = norms * np.exp(alpha * times)
    m_hat = float(np.max(envelope) / start_norm)
    certified = alpha > sim.ALPHA_FLOOR and math.isfinite(m_hat)
    return sim.DecayFit(m_hat=m_hat, alpha_hat=alpha, residual=residual, certified=certified)


@st.composite
def _decay_batches(draw):
    """Norms of noisy decays and growths on one grid, some rows cut by an exact zero.

    Norms stay within [1e-8, 1e8], where the reference's 1e-300 floor does
    not act.  Rows left out of the fit hold NaN and negative garbage, as a
    diverged row's unwritten samples may.
    """
    length = draw(st.integers(2, 60))
    times = np.arange(length) * draw(st.sampled_from([0.01, 0.1, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 8))
    rates = rng.uniform(-5.0, 5.0, count) / max(times[-1], 1.0)
    noise = rng.uniform(0.0, 0.5, count)[:, None] * rng.standard_normal((count, length))
    norms = rng.uniform(1e-2, 1.0, count)[:, None] * np.exp(noise - np.outer(rates, times))
    for row in range(count):
        # first zero at 1 (deadbeat), 2 (a two-sample fit) or later; noise after it
        cut = draw(st.sampled_from([None, None, 1] + list(range(2, length))))
        if cut is not None:
            norms[row, cut:] = rng.choice([0.0, 1e-30, 1.0], length - cut)
            norms[row, cut] = 0.0
    listed = np.flatnonzero(rng.uniform(size=count) < 0.8)
    norms[np.setdiff1d(np.arange(count), listed)] = np.resize([np.nan, -1.0], length)
    return times, norms, listed, draw(st.floats(0.0, 1.0, exclude_max=True))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(batch=_decay_batches(), floats=st.sampled_from([1, 7, 64, sim.DENSE_FLOATS]))
def test_batched_fit_matches_one_lstsq_per_row(batch, floats):
    times, norms, listed, skip = batch
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "DENSE_FLOATS", floats)
        with np.errstate(all="raise"):
            fits = sim._fit_decays(times, norms, listed, skip)
        assert sim._fit_decays(times, norms, listed, skip) == fits
    assert len(fits) == len(listed)
    for row, fit in zip(listed, fits):
        reference = _lstsq_fit_decay(times, norms[row], skip)
        assert fit.certified == reference.certified
        assert fit.m_hat >= 1.0
        for ours, theirs in ((fit.alpha_hat, reference.alpha_hat),
                             (fit.residual, reference.residual)):
            assert ours == theirs or abs(ours - theirs) <= 1e-12 * max(1.0, abs(theirs))


@pytest.mark.parametrize("length", [16, 30, 59])
def test_a_two_sample_window_late_on_a_fine_grid_matches_lstsq(length):
    # the rounded mean time leaves sum tc ~1e-17 against sum tc^2 = 5e-5;
    # uncorrected, that moved alpha_hat by 4e-12 to 2e-11 here
    times = np.arange(length) * 0.01
    norms = 1e-3 * np.exp(-times)
    fit = sim._fit_decays(times, norms[None], np.arange(1), 0.999)[0]
    reference = _lstsq_fit_decay(times, norms, 0.999)
    assert abs(fit.alpha_hat - reference.alpha_hat) <= 1e-12 * abs(reference.alpha_hat)


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


# --- dense output in one buffer -----------------------------------------

def _one_expression_dp54(g, x0s, x_eq, times, observe):
    """``sim._dp54`` with each step's dense output taken whole, by one expression.

    The reference for the chunked in-place runner: its grid states are
    ``y + theta (diff + (1 - theta) (spline + theta (curve + (1 - theta)
    dense)))`` over all grid points of a step at once; ``observe`` maps those
    (k, rows, n) states to the stored values.
    """
    count = len(x0s)
    y = x0s.astype(float)
    first = observe(y[None])[0]
    values = np.empty((count, len(times)) + first.shape[1:])
    values[:, 0] = first
    diverged = np.zeros(count, dtype=bool)
    last = np.full(count, len(times) - 1)
    rows = np.arange(count)
    dist = np.linalg.norm(y - x_eq, axis=1)
    k = np.empty((7,) + y.shape)
    t, end, h = 0.0, times[-1], times[1]
    recorded = 1
    with np.errstate(all="ignore"):
        k[0] = g(y)
        while rows.size and t < end:
            final = h >= end - t
            if final:
                h = end - t
            for s, a in enumerate(sim._DP_A, start=1):
                stage = y + h * sim._weigh(a, k)
                k[s] = g(stage)
            dist_new = np.linalg.norm(stage - x_eq, axis=1)
            scale = sim.STEP_ERROR_TOL * np.maximum(dist, dist_new) + sim.STEP_ERROR_FLOOR
            err = np.linalg.norm(h * sim._weigh(sim._DP_E, k), axis=1) / scale
            bad = ~np.isfinite(err)
            diverged[rows[bad | ~(dist_new <= sim.DIVERGENCE_NORM)]] = True
            if bad.any():
                last[rows[bad]] = recorded - 1
                keep = ~bad
                rows, y, k, stage, dist, dist_new, err = (
                    rows[keep], y[keep], k[:, keep], stage[keep], dist[keep],
                    dist_new[keep], err[keep])
            worst = err[~diverged[rows]].max(initial=0.0)
            factor = 0.9 * worst ** -0.2
            if worst > 1.0:
                h *= max(0.2, factor)
                continue
            t_new = end if final else t + h
            stop = int(np.searchsorted(times, t_new, side="right"))
            if stop > recorded:
                theta = ((times[recorded:stop] - t) / h)[:, None, None]
                diff = stage - y
                spline = h * k[0] - diff
                curve = diff - h * k[6] - spline
                dense = h * sim._weigh(sim._DP_D, k)
                at = y + theta * (diff + (1.0 - theta) * (
                    spline + theta * (curve + (1.0 - theta) * dense)))
                values[rows, recorded:stop] = observe(at).swapaxes(0, 1)
                escaped = diverged[rows]
                if escaped.any():
                    outside = np.linalg.norm(at - x_eq, axis=2) > sim.DIVERGENCE_NORM
                    done = escaped & outside.any(axis=0)
                    last[rows[done]] = recorded + outside[:, done].argmax(axis=0)
                    keep = ~done
                    rows, k, stage, dist_new = rows[keep], k[:, keep], stage[keep], dist_new[keep]
                recorded = stop
            t, y, dist = t_new, stage, dist_new
            k[0] = k[6]
            h *= min(5.0, max(0.2, factor))
    return values, diverged, last


def _assert_same_runs(ours, reference):
    """Same flags and last samples, and every stored value up to them bit for bit."""
    values, diverged, last = ours
    np.testing.assert_array_equal(diverged, reference[1])
    np.testing.assert_array_equal(last, reference[2])
    for row, end in enumerate(last):
        assert (values[row, :end + 1].view(np.int64)
                == reference[0][row, :end + 1].view(np.int64)).all()


def _leaving_batch(n: int):
    """A linear batch about a nonzero x* in which some rows leave and the rest decay.

    Coordinate 1 is the unstable mode x1' = x1 - x1*, the others a stable
    upper-triangular chain it does not feed, so a row started with x1 = x1*
    stays controlled while the others leave the ball at staggered times.
    """
    rng = np.random.default_rng(n)
    a = np.triu(rng.standard_normal((n, n)), 1) - np.diag(rng.uniform(0.5, 2.0, n))
    a[0] = 0.0
    a[0, 0] = 1.0
    x_eq = rng.standard_normal(n)
    x0s = x_eq + 0.1 * rng.standard_normal((6, n))
    x0s[::2, 0] = x_eq[0]
    x0s[1::2, 0] += [1e-3, 3e-2, 2.0]
    return (lambda states: (states - x_eq) @ a.T), x0s, x_eq


@pytest.mark.parametrize("n", [1, 2, 4, 7, 8, 13, 50])
def test_chunked_dense_output_matches_one_expression_bit_for_bit(monkeypatch, n):
    g, x0s, x_eq = _leaving_batch(n)
    times = np.arange(2001) * 1e-2
    # steps of tens of grid points walk chunks of three; once rows leave,
    # the chunks hold more grid points of the remaining rows
    monkeypatch.setattr(sim, "DENSE_FLOATS", 3 * x0s.size)
    norms = sim._dp54(g, x0s, x_eq, times, states=False)
    reference = _one_expression_dp54(g, x0s, x_eq, times,
                                     lambda at: np.linalg.norm(at - x_eq, axis=-1))
    assert reference[1].sum() == 3 and (reference[2] < 2000).sum() == 3
    _assert_same_runs(norms, reference)
    states = sim._dp54(g, x0s, x_eq, times, states=True)
    _assert_same_runs(states, _one_expression_dp54(g, x0s, x_eq, times, lambda at: at))


@pytest.mark.parametrize("floats", [1, 7, 64, sim.DENSE_FLOATS])
def test_a_row_leaving_in_a_later_chunk_ends_on_its_first_sample_outside(monkeypatch, floats):
    # x' = x leaves the ball of radius 1e6 inside a step of tens of grid
    # points; every chunk of that step must be checked, not only its last
    monkeypatch.setattr(sim, "DENSE_FLOATS", floats)
    x_eq = np.zeros(1)
    x0s = np.array([[1.0], [-3.0], [0.5], [0.0]])
    times = np.arange(20001) * 1e-3
    ours = sim._dp54(lambda states: states, x0s, x_eq, times, states=True)
    _assert_same_runs(ours, _one_expression_dp54(
        lambda states: states, x0s, x_eq, times, lambda at: at))
    _assert_same_runs(sim._dp54(lambda states: states, x0s, x_eq, times, states=False),
                      _one_expression_dp54(lambda states: states, x0s, x_eq, times,
                                           lambda at: np.linalg.norm(at - x_eq, axis=-1)))
    values, diverged, last = ours
    assert diverged.tolist() == [True, True, True, False] and last[3] == 20000
    for row in range(3):
        assert abs(values[row, last[row]]) > sim.DIVERGENCE_NORM >= abs(values[row, last[row] - 1])
        assert times[last[row]] == pytest.approx(math.log(1e6 / abs(x0s[row, 0])), abs=1e-3)


def test_validation_memory_is_bounded_by_the_norms_and_the_buffer(examples_dir):
    # at dt = 1e-6 a step covers tens of thousands of grid points; one
    # expression over all of them took ~3.6 MB beyond the stored norms
    system = load_system(examples_dir / "planar_cubic.stab")
    _, g = sim._closed_loop(system, synthesize(system))
    x0s = sim._initial_states(system, 0.05, 1)
    times = sim._time_grid(system, 0.2, 1e-6, None, 1)
    tracemalloc.start()
    try:
        norms, _, _ = sim._run(system, g, x0s, times, states=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the buffer, plus a chunk's theta, 1 - theta and the two squared gaps
    # of the distance kernel, none larger than the buffer
    assert peak <= norms.nbytes + 4 * sim.DENSE_FLOATS * 8


def test_validation_with_its_decay_fit_is_bounded_by_the_norms_and_four_buffers(examples_dir):
    # the fit reads the norms in blocks; one lstsq per row on a (grid points
    # x 2) design matrix took ~7.7 MB beyond the norms and times here
    system = load_system(examples_dir / "planar_cubic.stab")
    gain = synthesize(system)
    horizon, dt = 0.2, 1e-6
    tracemalloc.start()
    try:
        check = sim.verify_local_stability(system, gain, delta=0.05, samples=1,
                                           horizon=horizon, dt=dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check.passed and check.worst.certified
    # with one sample, the times of the grid take as much as its stored norms
    norms_bytes = (round(horizon / dt) + 1) * 8
    assert peak <= 2 * norms_bytes + 4 * sim.DENSE_FLOATS * 8


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


def test_a_diverged_start_leaves_the_slowest_fit_as_worst():
    # x1' = x1^2 - x1 escapes from x1 > 1, so the first start (1.5) diverges
    sys = system_from_strings("continuous", ["x1^2 + u1"], m=1)
    check = sim.verify_local_stability(sys, ["-x1"], delta=1.5, samples=6)
    assert check.failures == ((1.5,),)
    assert check.min_alpha == -math.inf
    alphas = {}
    for x0 in sim._initial_states(sys, 1.5, 6)[1:]:
        traj = sim.integrate_closed_loop(sys, ["-x1"], x0, horizon=20.0, dt=1e-3)
        alphas[tuple(x0)] = sim.estimate_decay(traj).alpha_hat
    assert check.worst_x0 == min(alphas, key=alphas.get) == (0.75,)
    assert check.worst.alpha_hat == pytest.approx(alphas[(0.75,)], rel=1e-8)


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
        alphas.append(sim._fit_decays(times, norms[None], np.arange(1), 0.1)[0].alpha_hat)
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


# the largest count validation draws: _time_grid stores (steps + 1) x samples norms,
# steps >= 1, within MAX_STORED_FLOATS
MAX_HALTON_COUNT = sim.MAX_STORED_FLOATS // 2
# the lowest Halton coordinate at that count, in the MAX_DIM-th prime base (229)
HALTON_FLOOR = 1.0 / (sim._first_primes(MAX_DIM)[-1] * MAX_HALTON_COUNT)


def test_validation_draws_at_most_max_halton_count_starts():
    disc = system_from_strings("discrete", ["u1"], m=1)
    assert len(sim._time_grid(disc, None, None, 1, MAX_HALTON_COUNT)) == 2
    with pytest.raises(ValueError, match="exceeds the limit"):
        sim._time_grid(disc, None, None, 1, MAX_HALTON_COUNT + 1)


@pytest.mark.parametrize("dim", [2, 3, 10, 50])
def test_halton_coordinates_keep_a_gap_of_one_over_p_count_to_both_ends(dim):
    # a coordinate in base b <= p has at most D digits, b^(D - 1) <= count, so it lies
    # in [b^-D, 1 - b^-D], inside [1/(p count), 1 - 1/(p count)]; the accumulated
    # weights round, so the lower end holds to a few ulps.  Every prefix is checked:
    # _halton(c, dim) is the first c rows of _halton(N, dim)
    count = 10**5
    p = sim._first_primes(dim)[-1]
    points = sim._halton(count, dim)
    assert np.array_equal(sim._halton(1000, dim), points[:1000])
    gap = 1.0 / (p * np.arange(1, count + 1))
    assert (np.minimum.accumulate(points.min(axis=1)) >= gap * (1.0 - 4e-16)).all()
    assert (np.maximum.accumulate(points.max(axis=1)) <= 1.0 - gap).all()
    # only base 2 yields 0.5, so with dim >= 2 no row maps to the zero vector
    assert (points[:, 1:] != 0.5).all()


@pytest.mark.parametrize("dim", range(2, 51))
def test_ndtri_matches_scipy_on_the_halton_points(dim):
    for count in (1, 7, 100, 1000):
        p = sim._halton(count, dim)
        assert np.array_equal(sim._ndtri(p), ndtri(p)), count


def test_ndtri_matches_scipy_on_every_branch_and_edge():
    # on [HALTON_FLOOR, 1 - HALTON_FLOOR], where every coordinate validation draws lies,
    # so its x = sqrt(-2 log min(p, 1 - p)) stays below Cephes' x >= 8 tail
    rng = np.random.default_rng(15)
    e2 = math.exp(-2.0)
    floor = HALTON_FLOOR
    edges = [0.5, e2, 1.0 - e2, floor, 1.0 - floor]
    edges += [np.nextafter(v, 0.5) for v in edges]
    p = np.concatenate([
        rng.uniform(e2, 1.0 - e2, 2000),        # central rational
        np.exp(-rng.uniform(2.0, -math.log(floor), 2000)),  # lower tail
        1.0 - np.exp(-rng.uniform(2.0, -math.log(floor), 2000)),  # upper tail
        edges,
    ])
    assert ((floor <= p) & (p <= 1.0 - floor)).all()
    x = np.sqrt(-2.0 * np.log(np.minimum(p, 1.0 - p)))
    assert (x < 2.0).any() and (x > 6.0).any() and x.max() < 8.0
    assert np.array_equal(sim._ndtri(p), ndtri(p))
    assert np.array_equal(sim._ndtri(p.reshape(2, -1)), ndtri(p).reshape(2, -1))


@pytest.mark.parametrize("dim", range(1, 51))
def test_halton_directions_match_the_scipy_formula(dim):
    directions = sim._halton_directions(100, dim)
    if dim == 1:
        expected = np.array([[1.0], [-1.0]] * 50)
    else:
        z = ndtri(sim._halton(100, dim))
        expected = z / np.linalg.norm(z, axis=1, keepdims=True)
    assert np.array_equal(directions, expected)


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
