"""Closed-loop simulation and empirical decay certification.

Each mode has one runner, and trajectories (``integrate_closed_loop``,
``iterate_closed_loop``) and validation share it: continuous systems
integrate with an adaptive Dormand-Prince 5(4) pair and read the dt grid
from its continuous extension (``_dp54``), discrete systems iterate the map
(``_iterate``).  A runner stores only what its caller observes of the grid
states: the states themselves for a trajectory, the distances ||x - x*||
for validation.  Both share the grid check, whose cap MAX_STORED_FLOATS
bounds memory, and the closed-loop field.  Distances are fitted in
log space after a transient skip to certify an exponential envelope
||x(t) - x*|| <= M ||x0 - x*|| exp(-alpha t).  All sampling is
deterministic: initial conditions come from a Halton sequence pushed
through the inverse normal transform, on shells of radius delta, delta/2,
delta/4 around x*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .linalg import MAX_STORED_FLOATS
from .synthesis import FeedbackGain, gain_expressions
from .system import CONTINUOUS, DISCRETE, SystemSpec

DIVERGENCE_NORM = 1e6
DEFAULT_HORIZON = 20.0
DEFAULT_DT = 1e-3
DEFAULT_STEPS = 200
STEP_ERROR_TOL = 1e-8
# absolute part of the adaptive error test, about the round-off of O(1)
# numbers: the relative part alone asks for digits the field cannot deliver
# once ||x - x*|| has decayed that far (u* + K(x - x*) cancels)
STEP_ERROR_FLOOR = 1e-16
ALPHA_FLOOR = 1e-12


@dataclass(frozen=True)
class DecayFit:
    """Fitted envelope ||x(t) - x*|| <= m_hat ||x0 - x*|| exp(-alpha_hat t)."""

    m_hat: float
    alpha_hat: float
    residual: float
    certified: bool


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop states; decay is measured to x_eq (default: the origin)."""

    times: np.ndarray
    states: np.ndarray
    feedback_used: str
    diverged: bool
    x_eq: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if self.x_eq is None:
            x_eq = np.zeros(states.shape[-1])
        else:
            x_eq = np.asarray(self.x_eq, dtype=float)
        for arr in (times, states, x_eq):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "x_eq", x_eq)


@dataclass(frozen=True)
class StabilityCheck:
    passed: bool
    delta: float
    samples: int
    min_alpha: float
    worst: DecayFit | None
    worst_x0: tuple[float, ...] | None
    failures: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class Feedback:
    """Normalized feedback law: a batch state-to-control map plus metadata."""

    fn: Callable[[np.ndarray], np.ndarray]
    description: str
    smooth: bool

    def __call__(self, states: np.ndarray) -> np.ndarray:
        return self.fn(states)


def make_feedback(system: SystemSpec, fb) -> Feedback:
    """Normalize a gain, expression list, or callable into a Feedback."""
    if isinstance(fb, Feedback):
        return fb
    if isinstance(fb, FeedbackGain):
        k = np.asarray(fb.k, dtype=float)
        x_eq = np.asarray(system.x_eq)
        u_eq = np.asarray(system.u_eq)

        def gain_fn(states: np.ndarray) -> np.ndarray:
            return u_eq + (np.asarray(states, dtype=float) - x_eq) @ k.T

        return Feedback(gain_fn, "; ".join(gain_expressions(fb, system)), True)
    if callable(fb):
        return Feedback(fb, "custom callable", True)
    parsed: list[ex.Expr] = []
    for item in fb:
        parsed.append(ex.parse_expr(item) if isinstance(item, str) else item)
    if len(parsed) != system.m:
        raise ValueError(f"expected {system.m} feedback components, got {len(parsed)}")
    for i, e in enumerate(parsed, start=1):
        max_x, max_u = ex.max_indices(e)
        if max_u > 0:
            raise ValueError(f"feedback component {i} references a control variable")
        if max_x > system.n:
            raise ValueError(f"feedback component {i} references x{max_x} but n={system.n}")
        # checked at x* the way SystemSpec checks f, so a singular law fails here
        try:
            value = ex.eval_expr(e, system.x_eq, ())
        except ex.EvalError as err:
            raise ValueError(f"feedback component {i} is undefined at x*: {err}") from err
        if not math.isfinite(value):
            raise ValueError(f"feedback component {i} is not finite at x*: {value}")

    def expr_fn(states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        # the law reads no control, so an empty one carries the batch shape
        return ex.eval_field(parsed, states, states[..., :0])

    smooth = all(ex.is_c1_everywhere(e) for e in parsed)
    return Feedback(expr_fn, "; ".join(ex.unparse(e) for e in parsed), smooth)


def _time_grid(system: SystemSpec, horizon, dt, steps, floats_per_sample: int) -> np.ndarray:
    """The mode's sample times, checked to be positive and to fit MAX_STORED_FLOATS.

    ``floats_per_sample`` is what the caller stores per time: rows x n for
    states, rows for norms.
    """
    if system.mode == CONTINUOUS:
        # written so that NaN fails too
        if not (horizon > 0 and dt > 0):
            raise ValueError("horizon and dt must be positive")
        ratio = horizon / dt
        steps = max(1, int(round(ratio))) if math.isfinite(ratio) else ratio
    elif not steps >= 1:
        raise ValueError("steps must be positive")
    if (steps + 1) * floats_per_sample > MAX_STORED_FLOATS:
        raise ValueError(
            f"the time grid of {steps + 1:.6g} points x {floats_per_sample} values per point "
            f"exceeds the limit of {MAX_STORED_FLOATS} stored numbers; "
            "use a shorter or coarser grid, or fewer samples")
    if system.mode == CONTINUOUS:
        return np.arange(steps + 1) * dt
    return np.arange(steps + 1, dtype=float)


def _closed_loop(system: SystemSpec, feedback):
    """The normalized feedback and the closed-loop field x -> f(x, u(x))."""
    fb = make_feedback(system, feedback)

    def g(states: np.ndarray) -> np.ndarray:
        return ex.eval_field(system.components, states, fb(states))

    return fb, g


# Dormand & Prince (1980) 5(4) pair.  Row s of _DP_A gives stage s + 1 from
# the slopes k[0..s]; the last row is the fifth-order solution, whose slope
# k[6] is the next step's k[0] (first same as last).  _DP_E weighs the
# difference of the fifth- and fourth-order solutions, and _DP_D is
# Shampine's (1986) fourth-order continuous extension in the form of
# Hairer, Norsett and Wanner's DOPRI5.
_DP_A = tuple(np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_DP_E = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
                  -1 / 40))
_DP_D = np.array((-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423))


def _weigh(weights: np.ndarray, k: np.ndarray) -> np.ndarray:
    """sum_j weights[j] k[j], as one matrix-vector product over the slopes."""
    s = len(weights)
    return (weights @ k[:s].reshape(s, -1)).reshape(k.shape[1:])


def _dp54(g, x0s: np.ndarray, x_eq: np.ndarray, times: np.ndarray, observe):
    """The flow of dx/dt = g(x) from every row of x0s, observed on the grid ``times``.

    ``observe`` maps the grid states one step covers, shaped (k, rows, n), to
    the stored values.  One adaptive step size serves the batch; a step is
    accepted when every controlled row's local error is within
    STEP_ERROR_TOL ||x - x*|| plus STEP_ERROR_FLOOR.  A row whose step ends
    outside the ball of radius DIVERGENCE_NORM is marked diverged and leaves
    step control, and ends on its first grid sample outside the ball; a row
    that turns non-finite is marked and ends on its last grid sample.
    Returns the values (rows, samples, ...), the flags and the last samples.
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
            for s, a in enumerate(_DP_A, start=1):
                stage = y + h * _weigh(a, k)
                k[s] = g(stage)
            # the last stage is the fifth-order solution at t + h
            dist_new = np.linalg.norm(stage - x_eq, axis=1)
            scale = STEP_ERROR_TOL * np.maximum(dist, dist_new) + STEP_ERROR_FLOOR
            err = np.linalg.norm(h * _weigh(_DP_E, k), axis=1) / scale
            bad = ~np.isfinite(err)
            diverged[rows[bad | ~(dist_new <= DIVERGENCE_NORM)]] = True
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
                dense = h * _weigh(_DP_D, k)
                at = y + theta * (diff + (1.0 - theta) * (
                    spline + theta * (curve + (1.0 - theta) * dense)))
                values[rows, recorded:stop] = observe(at).swapaxes(0, 1)
                escaped = diverged[rows]
                if escaped.any():
                    outside = np.linalg.norm(at - x_eq, axis=2) > DIVERGENCE_NORM
                    done = escaped & outside.any(axis=0)
                    last[rows[done]] = recorded + outside[:, done].argmax(axis=0)
                    keep = ~done
                    rows, k, stage, dist_new = rows[keep], k[:, keep], stage[keep], dist_new[keep]
                recorded = stop
            t, y, dist = t_new, stage, dist_new
            k[0] = k[6]
            h *= min(5.0, max(0.2, factor))
    return values, diverged, last


def _iterate(g, x0s: np.ndarray, x_eq: np.ndarray, steps: int, observe):
    """The map x+ = g(x) from every row of x0s, observed at iterates 0..steps.

    Same contract as ``_dp54``.  A row is marked diverged and frozen at its
    first iterate outside the ball of radius DIVERGENCE_NORM, or at its first
    non-finite one, whose place its last finite state takes.
    """
    count = len(x0s)
    current = x0s.astype(float)
    first = observe(current[None])[0]
    values = np.empty((count, steps + 1) + first.shape[1:])
    values[:, 0] = first
    alive = np.ones(count, dtype=bool)
    last = np.full(count, steps)
    with np.errstate(all="ignore"):
        for k in range(1, steps + 1):
            advanced = g(current)
            finite = np.isfinite(advanced).all(axis=1)
            advanced = np.where((alive & finite)[:, None], advanced, current)
            norms = np.linalg.norm(advanced - x_eq, axis=1)
            newly_bad = alive & (~finite | (norms > DIVERGENCE_NORM))
            values[:, k] = observe(advanced[None])[0]
            last[newly_bad] = k
            alive &= ~newly_bad
            current = advanced
    return values, ~alive, last


def _run(system: SystemSpec, g, x0s: np.ndarray, times: np.ndarray, observe):
    """The mode's runner from every row of x0s on the grid ``times``."""
    x_eq = np.asarray(system.x_eq, dtype=float)
    if system.mode == CONTINUOUS:
        return _dp54(g, x0s, x_eq, times, observe)
    return _iterate(g, x0s, x_eq, len(times) - 1, observe)


def _trajectory(system: SystemSpec, feedback, x0, horizon, dt, steps) -> Trajectory:
    """One run from x0, cut after its last valid sample."""
    x0s = np.asarray(x0, dtype=float)[None, :]
    times = _time_grid(system, horizon, dt, steps, x0s.shape[1])
    fb, g = _closed_loop(system, feedback)
    states, diverged, last = _run(system, g, x0s, times, lambda at: at)
    end = int(last[0]) + 1
    return Trajectory(times[:end], states[0, :end], fb.description, bool(diverged[0]),
                      system.x_eq)


def integrate_closed_loop(
    system: SystemSpec,
    feedback,
    x0: Sequence[float],
    horizon: float = DEFAULT_HORIZON,
    dt: float = DEFAULT_DT,
) -> Trajectory:
    """dx/dt = f(x, u(x)) from x0 over [0, horizon], sampled every dt.

    The adaptive Dormand-Prince 5(4) runner steps it, and the dt grid is
    read from its continuous extension."""
    if system.mode != CONTINUOUS:
        raise ValueError("integrate_closed_loop requires a continuous-mode system")
    return _trajectory(system, feedback, x0, horizon, dt, None)


def iterate_closed_loop(
    system: SystemSpec,
    feedback,
    x0: Sequence[float],
    steps: int = DEFAULT_STEPS,
) -> Trajectory:
    """Iteration of x+ = f(x, u(x)) from x0 for the given number of steps."""
    if system.mode != DISCRETE:
        raise ValueError("iterate_closed_loop requires a discrete-mode system")
    return _trajectory(system, feedback, x0, None, None, steps)


def _check_transient_skip(transient_skip: float) -> None:
    if not 0.0 <= transient_skip < 1.0:
        raise ValueError("transient_skip must lie in [0, 1)")


def _fit_decay(times: np.ndarray, norms: np.ndarray, transient_skip: float) -> DecayFit:
    start_norm = norms[0]
    if start_norm == 0.0:
        raise ValueError("trajectory starts at the equilibrium; nothing to fit")
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
    certified = alpha > ALPHA_FLOOR and math.isfinite(m_hat)
    return DecayFit(m_hat=m_hat, alpha_hat=alpha, residual=residual, certified=certified)


def estimate_decay(traj: Trajectory, transient_skip: float = 0.1) -> DecayFit:
    """Least-squares exponential envelope of a non-divergent trajectory."""
    if traj.diverged:
        raise ValueError("cannot fit a decay envelope on a divergent trajectory")
    _check_transient_skip(transient_skip)
    norms = np.linalg.norm(traj.states - traj.x_eq, axis=1)
    return _fit_decay(traj.times, norms, transient_skip)


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _halton(count: int, dim: int) -> np.ndarray:
    """Points 1..count of the unscrambled Halton sequence in the first dim prime bases.

    Radical inverse (Halton 1960), accumulated digit by digit in the same
    floating-point order as scipy.stats.qmc.Halton(scramble=False) after
    fast_forward(1), so the points agree with it bit for bit.
    """
    bases = np.array(_first_primes(dim))
    index = np.repeat(np.arange(1, count + 1)[:, None], dim, axis=1)
    weight = np.ones(dim)
    points = np.zeros((count, dim))
    while index.any():
        weight /= bases
        points += weight * (index % bases)
        index //= bases
    return points


def _halton_directions(count: int, dim: int) -> np.ndarray:
    """Unit vectors from Halton points pushed through the inverse normal CDF.

    Not merged with ``openness._covering_directions``: that one is a fixed
    lattice for dim <= 3, so sharing either generator would move
    validation's ``worst_x0`` or the README covering table.
    """
    if dim == 1:
        return np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(count)])
    from scipy.special import ndtri  # only validation pays for this import

    z = ndtri(np.clip(_halton(count, dim), 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return z / norms


def _initial_states(system: SystemSpec, delta: float, samples: int) -> np.ndarray:
    """Validation's starts: shells of radius delta, delta/2, delta/4 around x*."""
    directions = _halton_directions(samples, system.n)
    radii = delta / 2.0 ** (np.arange(samples) % 3)
    return np.asarray(system.x_eq, dtype=float) + directions * radii[:, None]


def verify_local_stability(
    system: SystemSpec,
    feedback,
    delta: float,
    samples: int = 100,
    horizon: float = DEFAULT_HORIZON,
    dt: float = DEFAULT_DT,
    steps: int = DEFAULT_STEPS,
    transient_skip: float = 0.1,
) -> StabilityCheck:
    """Certify decay from deterministic initial conditions near the equilibrium.

    Samples sit on shells of radius delta, delta/2 and delta/4 in Halton
    directions.  Passing requires every trajectory to stay finite and every
    decay fit to certify; the reported min_alpha is the worst fitted rate.
    Trajectories are advanced together (continuous ones with one shared
    adaptive step), so the aggregate is order-independent.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    if samples < 1:
        raise ValueError("need at least one sample")
    _check_transient_skip(transient_skip)
    x_eq = np.asarray(system.x_eq, dtype=float)
    # the grid is checked before the starts are drawn, so a huge samples fails fast
    times = _time_grid(system, horizon, dt, steps, samples)
    x0s = _initial_states(system, delta, samples)
    _, g = _closed_loop(system, feedback)
    norms, diverged, _ = _run(system, g, x0s, times,
                              lambda at: np.linalg.norm(at - x_eq, axis=-1))

    failures: list[tuple[float, ...]] = []
    worst: DecayFit | None = None
    worst_x0: tuple[float, ...] | None = None
    min_alpha = math.inf
    for i in range(samples):
        if diverged[i]:
            failures.append(tuple(x0s[i]))
            min_alpha = -math.inf
            continue
        fit = _fit_decay(times, norms[i], transient_skip)
        if not fit.certified:
            failures.append(tuple(x0s[i]))
        if fit.alpha_hat < min_alpha:
            min_alpha = fit.alpha_hat
            worst = fit
            worst_x0 = tuple(x0s[i])
    passed = not failures
    return StabilityCheck(
        passed=passed,
        delta=delta,
        samples=samples,
        min_alpha=min_alpha,
        worst=worst,
        worst_x0=worst_x0,
        failures=tuple(failures),
    )


def trajectory_csv(traj: Trajectory) -> str:
    """CSV rendering: header t,x1..xn, one row per sample, full precision."""
    n = traj.states.shape[1]
    header = "t," + ",".join(f"x{i}" for i in range(1, n + 1))
    lines = [header]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join(f"{v:.17g}" for v in (t, *row)))
    return "\n".join(lines) + "\n"
