"""Closed-loop simulation and empirical decay certification.

Each mode has one runner, and trajectories (``integrate_closed_loop``,
``iterate_closed_loop``) and validation share it: continuous systems
integrate with an adaptive Dormand-Prince 5(4) pair and read the dt grid
from its continuous extension (``_dp54``), discrete systems iterate the map
(``_iterate``).  A runner stores only what its caller observes of the grid
states: the states themselves for a trajectory, the distances ||x - x*||
for validation.  Both share the grid check, whose cap MAX_STORED_FLOATS
bounds the stored states or norms (the time grid adds one float per grid
point, so one sample can hold twice the cap), and the closed-loop field.
Distances are fitted in log space after a transient skip to certify an
exponential envelope ||x(t) - x*|| <= M ||x0 - x*|| exp(-alpha t).  All
sampling is deterministic: initial conditions come from a Halton sequence pushed
through the inverse normal transform, on shells of radius delta, delta/2,
delta/4 around x*.  The transform is a numpy port of the Cephes ndtri
(Moshier 1989) that scipy ships, with its tail logarithms taken by math.log
as Cephes takes them from the C library, so it matches scipy.special.ndtri
bit for bit on every point validation draws, and validation runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .linalg import MAX_STORED_FLOATS, distances
from .synthesis import FeedbackGain
from .system import CONTINUOUS, DISCRETE, SystemSpec

DIVERGENCE_NORM = 1e6
DEFAULT_HORIZON = 20.0
DEFAULT_DT = 1e-3
DEFAULT_STEPS = 200
DEFAULT_SAMPLES = 100
STEP_ERROR_TOL = 1e-8
# absolute part of the adaptive error test, about the round-off of O(1)
# numbers: the relative part alone asks for digits the field cannot deliver
# once ||x - x*|| has decayed that far (u* + K(x - x*) cancels)
STEP_ERROR_FLOOR = 1e-16
ALPHA_FLOOR = 1e-12
# share of a trajectory's samples the decay fit leaves out as transient
TRANSIENT_SKIP = 0.1
# floats of the one buffer a continuous run evaluates its dense output in, so
# that its working memory does not grow with the grid points a step covers
DENSE_FLOATS = 1 << 15


@dataclass(frozen=True)
class DecayFit:
    """Fitted envelope ||x(t) - x*|| <= m_hat ||x0 - x*|| exp(-alpha_hat t)."""

    m_hat: float
    alpha_hat: float
    residual: float
    certified: bool


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop states; decay is measured to x_eq."""

    times: np.ndarray
    states: np.ndarray
    diverged: bool
    x_eq: np.ndarray

    def __post_init__(self):
        for name in ("times", "states", "x_eq"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class StabilityCheck:
    passed: bool
    delta: float
    samples: int
    min_alpha: float
    worst: DecayFit | None
    worst_x0: tuple[float, ...] | None
    failures: tuple[tuple[float, ...], ...]


def make_feedback(system: SystemSpec, fb) -> Callable[[np.ndarray], np.ndarray]:
    """The batch state-to-control map of a callable, a gain or an expression list."""
    if callable(fb):
        return fb
    if isinstance(fb, FeedbackGain):
        k = np.asarray(fb.k, dtype=float)
        x_eq = np.asarray(system.x_eq)
        u_eq = np.asarray(system.u_eq)

        def gain_fn(states: np.ndarray) -> np.ndarray:
            return u_eq + (np.asarray(states, dtype=float) - x_eq) @ k.T

        return gain_fn
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

    return expr_fn


def _time_grid(system: SystemSpec, horizon, dt, steps, floats_per_sample: int) -> np.ndarray:
    """The mode's sample times, checked to be positive and to fit MAX_STORED_FLOATS.

    ``floats_per_sample`` is what the caller stores per time: rows x n for
    states, rows for norms.  Only those count against the cap; the grid
    returned adds one float per point, up to the cap again at one norm per time.
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
    """The closed-loop field x -> f(x, u(x))."""
    fb = make_feedback(system, feedback)

    def g(states: np.ndarray) -> np.ndarray:
        return ex.eval_field(system.plan, states, fb(states))

    return g


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


def _dp54(g, x0s: np.ndarray, x_eq: np.ndarray, times: np.ndarray, states: bool):
    """The flow of dx/dt = g(x) from every row of x0s, observed on the grid ``times``.

    Stores the grid states if ``states``, else their distances ||x - x*||.  One
    adaptive step size serves the batch; a step is accepted when every
    controlled row's local error is within STEP_ERROR_TOL ||x - x*|| plus
    STEP_ERROR_FLOOR.  A row whose accepted step ends outside the ball of radius
    DIVERGENCE_NORM is marked diverged and leaves step control, and ends on
    its first grid sample outside the ball; a row that turns non-finite is
    marked and ends on its last grid sample.  The continuous extension is
    evaluated in place in one buffer, as many grid points at a time as
    DENSE_FLOATS floats hold (at least one).
    Returns the values (rows, samples, ...), the flags and the last samples.
    """
    count = len(x0s)
    y = x0s.astype(float)
    dist = np.linalg.norm(y - x_eq, axis=1)
    first = y if states else dist
    values = np.empty((count, len(times)) + first.shape[1:])
    values[:, 0] = first
    diverged = np.zeros(count, dtype=bool)
    last = np.full(count, len(times) - 1)
    rows = np.arange(count)
    buffer = np.empty(max(DENSE_FLOATS, y.size))
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
            if bad.any():
                diverged[rows[bad]] = True
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
            # only an accepted step can leave the ball: a rejected trial says nothing
            diverged[rows[dist_new > DIVERGENCE_NORM]] = True
            t_new = end if final else t + h
            stop = int(np.searchsorted(times, t_new, side="right"))
            if stop > recorded:
                diff = stage - y
                spline = h * k[0] - diff
                curve = diff - h * k[6] - spline
                dense = h * _weigh(_DP_D, k)
            while recorded < stop and rows.size:
                span = min(stop - recorded, len(buffer) // y.size)
                theta = ((times[recorded:recorded + span] - t) / h)[:, None, None]
                rest = 1.0 - theta
                at = buffer[:span * y.size].reshape((span,) + y.shape)
                # y + theta (diff + rest (spline + theta (curve + rest dense)))
                np.multiply(rest, dense, out=at)
                np.multiply(np.add(at, curve, out=at), theta, out=at)
                np.multiply(np.add(at, spline, out=at), rest, out=at)
                np.multiply(np.add(at, diff, out=at), theta, out=at)
                at += y
                escaped = diverged[rows]
                if escaped.any() or not states:
                    norms = (distances(np.moveaxis(at, -1, 0), x_eq) if y.shape[1] < 8
                             else np.linalg.norm(at - x_eq, axis=-1))
                values[rows, recorded:recorded + span] = (at if states else norms).swapaxes(0, 1)
                if escaped.any():
                    outside = norms > DIVERGENCE_NORM
                    done = escaped & outside.any(axis=0)
                    last[rows[done]] = recorded + outside[:, done].argmax(axis=0)
                    keep = ~done
                    k = k[:, keep]
                    rows, y, stage, dist_new, diff, spline, curve, dense = (
                        a[keep] for a in (rows, y, stage, dist_new, diff, spline, curve, dense))
                recorded += span
            t, y, dist = t_new, stage, dist_new
            k[0] = k[6]
            h *= min(5.0, max(0.2, factor))
    return values, diverged, last


def _iterate(g, x0s: np.ndarray, x_eq: np.ndarray, steps: int, states: bool):
    """The map x+ = g(x) from every row of x0s, observed at iterates 0..steps.

    Same contract as ``_dp54``.  A row is marked diverged and frozen at its
    first iterate outside the ball of radius DIVERGENCE_NORM, or at its first
    non-finite one, whose place its last finite state takes.
    """
    count = len(x0s)
    current = x0s.astype(float)
    first = current if states else np.linalg.norm(current - x_eq, axis=1)
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
            values[:, k] = advanced if states else norms
            last[newly_bad] = k
            alive &= ~newly_bad
            current = advanced
    return values, ~alive, last


def _run(system: SystemSpec, g, x0s: np.ndarray, times: np.ndarray, states: bool):
    """The mode's runner from every row of x0s on the grid ``times``."""
    x_eq = np.asarray(system.x_eq, dtype=float)
    with np.errstate(over="ignore"):  # a start whose distance overflows reads inf and diverges
        if system.mode == CONTINUOUS:
            return _dp54(g, x0s, x_eq, times, states)
        return _iterate(g, x0s, x_eq, len(times) - 1, states)


def _trajectory(system: SystemSpec, feedback, x0, horizon, dt, steps) -> Trajectory:
    """One run from x0, cut after its last valid sample."""
    x0s = np.asarray(x0, dtype=float)[None, :]
    times = _time_grid(system, horizon, dt, steps, x0s.shape[1])
    states, diverged, last = _run(system, _closed_loop(system, feedback), x0s, times, states=True)
    end = int(last[0]) + 1
    return Trajectory(times[:end], states[0, :end], bool(diverged[0]), system.x_eq)


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


def _fit_decays(times: np.ndarray, norms: np.ndarray, rows: np.ndarray,
                transient_skip: float) -> list[DecayFit]:
    """Least-squares lines through log ||x - x*|| over time, one per listed row of norms.

    Each row is cut at its first exact zero (after one sample: alpha_hat = inf).  Rows
    cut alike share the window from min(floor(transient_skip L), L - 2) to their length
    L and its centred times tc: slope = sum tc log||x - x*|| / sum tc^2.  A second pass
    sums the squared residuals and finds the envelope's peak, at least the t = 0
    sample's, so m_hat >= 1.  Both read the norms in blocks of at most DENSE_FLOATS.
    """
    width = max(1, DENSE_FLOATS // max(1, len(rows)))

    def blocks(picked, begin, end, values=np.log):
        whole = slice(None) if len(picked) == len(norms) else picked  # a view, not a copy
        for c in range(begin, end, width):
            yield c, values(norms[whole, c:min(c + width, end)])

    # norms are >= 0, so a block's first minimum is its first zero if it has one
    lengths = np.full(len(rows), norms.shape[1])
    for c, block in blocks(rows, 0, norms.shape[1], np.asarray):
        hit = (block.min(axis=1) == 0.0) & (lengths == norms.shape[1])
        lengths[hit] = c + block[hit].argmin(axis=1)
    if not lengths.all():
        raise ValueError("trajectory starts at the equilibrium; nothing to fit")
    fits = [DecayFit(m_hat=1.0, alpha_hat=math.inf, residual=0.0, certified=True)] * len(rows)
    for length in sorted(set(lengths[lengths > 1].tolist())):
        group = np.flatnonzero(lengths == length)
        start = min(math.floor(transient_skip * length), length - 2)
        mean_t = times[start:length].mean()
        sty = sy = stt = stc = 0.0
        for c, logs in blocks(rows[group], start, length):
            tc = times[c:c + logs.shape[1]] - mean_t
            sty, sy = sty + logs @ tc, sy + logs.sum(axis=1)
            stt, stc = stt + tc @ tc, stc + tc.sum()
        # sum tc is not exactly 0 once mean_t is rounded: Chan, Golub and LeVeque's correction
        mean_y = sy / (length - start)
        slope = (sty - mean_y * stc) / (stt - stc * stc / (length - start))
        squares, high = 0.0, -np.inf
        for c, logs in blocks(rows[group], 0, length):
            logs -= mean_y[:, None]  # the residuals, from here on
            logs -= np.multiply.outer(slope, times[c:c + logs.shape[1]] - mean_t)
            high = np.maximum(high, logs.max(axis=1))
            logs = logs[:, max(0, start - c):]  # the window, rebound to free the block
            squares = squares + np.einsum("ij,ij->i", logs, logs)
        top = np.log(norms[rows[group], 0])
        with np.errstate(over="ignore"):
            m_hat = np.exp(np.maximum(high + mean_y - slope * mean_t, top) - top)
        for j, b, m, ss in zip(group, slope.tolist(), m_hat.tolist(), squares.tolist()):
            fits[j] = DecayFit(m_hat=m, alpha_hat=-b, residual=math.sqrt(ss / (length - start)),
                               certified=-b > ALPHA_FLOOR and math.isfinite(m))
    return fits


def estimate_decay(traj: Trajectory) -> DecayFit:
    """Least-squares exponential envelope of a non-divergent trajectory."""
    if traj.diverged:
        raise ValueError("cannot fit a decay envelope on a divergent trajectory")
    norms = np.linalg.norm(traj.states - traj.x_eq, axis=1)
    return _fit_decays(traj.times, norms[None], np.arange(1), TRANSIENT_SKIP)[0]


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


# Cephes ndtri (Moshier, Methods and Programs for Mathematical Functions,
# 1989), the inverse normal CDF that scipy.special.ndtri ships.  P0/Q0 serve
# the centre y = min(p, 1 - p) > exp(-2), P1/Q1 the tails at z = 1/x with
# x = sqrt(-2 log y) < 8; Cephes' pair for x >= 8 is left out, as no
# validation start comes near it.  The Q tables omit their leading 1.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242


def _ratio(x: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """x p(x) / q(x) in Cephes' operation order.

    Horner's rule as in its polevl (p) and p1evl (q, monic), then the
    product before the quotient.
    """
    num = np.full_like(x, p[0])
    for c in p[1:]:
        num = num * x + c
    den = x + q[0]
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Cephes' inverse normal CDF, operation for operation, where min(p, 1 - p) > exp(-32)."""
    p = np.asarray(p, dtype=float)
    upper = p > 1.0 - _EXP_MINUS_2
    y = np.where(upper, 1.0 - p, p)
    out = np.empty_like(y)
    central = y > _EXP_MINUS_2
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * _ratio(y2, _NDTRI_P0, _NDTRI_Q0)) * _SQRT_2PI
    tail = ~central
    x = np.array([math.sqrt(-2.0 * math.log(v)) for v in y[tail]])
    value = x - np.array([math.log(v) for v in x]) / x - _ratio(1.0 / x, _NDTRI_P1, _NDTRI_Q1)
    out[tail] = np.where(upper[tail], value, -value)
    return out


def _halton_directions(count: int, dim: int) -> np.ndarray:
    """Unit vectors from Halton points pushed through the inverse normal CDF.

    The inverse normal is ``_ndtri``, a numpy port of Cephes' (Moshier 1989)
    that matches scipy.special.ndtri bit for bit, so validation loads no
    scipy.  Its tail logarithms are the C library's (math.log), not
    numpy's vectorized log, which rounds a few of them differently and would
    move ``worst_x0`` in the last bits.

    A Halton coordinate lies in [1/(p count), 1 - 1/(p count)], p <= 229 the
    dim-th prime, and ``_time_grid`` caps count at 2^22: none comes within
    1e-9 of 0 or 1, or near ``_ndtri``'s x >= 8 tail.  Only base 2 yields
    0.5, the point ``_ndtri`` maps to 0, so no row is zero.

    Not merged with ``openness._covering_directions``: that one is a fixed
    lattice for dim <= 3, so sharing either generator would move
    validation's ``worst_x0`` or the README covering table.
    """
    if dim == 1:
        return np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(count)])
    z = _ndtri(_halton(count, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _initial_states(system: SystemSpec, delta: float, samples: int) -> np.ndarray:
    """Validation's starts: shells of radius delta, delta/2, delta/4 around x*."""
    directions = _halton_directions(samples, system.n)
    radii = delta / 2.0 ** (np.arange(samples) % 3)
    return np.asarray(system.x_eq, dtype=float) + directions * radii[:, None]


def verify_local_stability(
    system: SystemSpec,
    feedback,
    delta: float,
    samples: int = DEFAULT_SAMPLES,
    horizon: float = DEFAULT_HORIZON,
    dt: float = DEFAULT_DT,
    steps: int = DEFAULT_STEPS,
) -> StabilityCheck:
    """Certify decay from deterministic initial conditions near the equilibrium.

    Samples sit on shells of radius delta, delta/2 and delta/4 in Halton
    directions.  Passing requires every trajectory to stay finite and every
    decay fit to certify; the reported min_alpha is the worst fitted rate, or
    -inf when a trajectory diverged, and ``worst`` is the slowest fit either way.
    Trajectories are advanced together (continuous ones with one shared
    adaptive step), so the aggregate is order-independent.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    if samples < 1:
        raise ValueError("need at least one sample")
    # the grid is checked before the starts are drawn, so a huge samples fails fast
    times = _time_grid(system, horizon, dt, steps, samples)
    x0s = _initial_states(system, delta, samples)
    with np.errstate(over="ignore"):
        if not np.linalg.norm(x0s - system.x_eq, axis=1).all():  # the distance the fit divides by
            raise ValueError(f"delta={float(delta)} puts a start on x* (its distance rounds to 0)")
    norms, diverged, _ = _run(system, _closed_loop(system, feedback), x0s, times, states=False)
    fits = iter(_fit_decays(times, norms, np.flatnonzero(~diverged), TRANSIENT_SKIP))

    failures: list[tuple[float, ...]] = []
    worst: DecayFit | None = None
    worst_x0: tuple[float, ...] | None = None
    fitted_min = math.inf
    for i in range(samples):
        if diverged[i]:
            failures.append(tuple(x0s[i]))
            continue
        fit = next(fits)
        if not fit.certified:
            failures.append(tuple(x0s[i]))
        if fit.alpha_hat < fitted_min:
            fitted_min = fit.alpha_hat
            worst = fit
            worst_x0 = tuple(x0s[i])
    passed = not failures
    return StabilityCheck(
        passed=passed,
        delta=delta,
        samples=samples,
        min_alpha=-math.inf if diverged.any() else fitted_min,
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
