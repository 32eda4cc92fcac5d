"""Linear openness bounds and the empirical covering-rate estimator.

At a linearization [A | B] the smallest singular value bounds how fast the
map opens balls around the working point, its reciprocal is the metric
regularity bound, and the largest singular value is a local Lipschitz bound.
The empirical estimator below cross-checks the linear bound directly on the
nonlinear map by measuring how large a ball around f(z) is actually covered
by the image of a radius-r ball around z.  It is a diagnostic, never the
authoritative input to verdicts, and is limited to very small dimensions
because it searches the full joint state-control ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .linalg import MAX_STORED_FLOATS, distances, rank_from_singular_values, singular_values
from .system import SystemSpec, evaluate

MAX_SEARCH_DIM = 3
ATTAIN_REL_TOL = 1e-6  # a target counts as attained within this fraction of the radius
KAPPA_RESOLUTION = 1e-3  # the bisection stops at this fraction of its upper bracket
MIN_RADIUS = 2.0 ** -511 / ATTAIN_REL_TOL  # sqrt of the smallest normal: tolerance^2 is normal
MAX_RADIUS = math.sqrt(1.7976931348623157e308 / 16.0)  # of the largest float: (4r)^2 is finite


@dataclass(frozen=True)
class OpennessReport:
    """Openness bounds of one linearization."""

    cov_bound: float
    reg_bound: float
    lip_bound: float
    jacobian_rank: int
    linearly_open: bool


@dataclass(frozen=True)
class CoveringGrid:
    """Sampling configuration for the empirical covering search."""

    directions: int = 48
    radial_levels: int = 4
    axis_points: int = 15

    def __post_init__(self):
        # an empty target set or a one-point axis would pass the search vacuously
        for name, low in (("directions", 1), ("radial_levels", 1), ("axis_points", 2)):
            if getattr(self, name) < low:
                raise ValueError(f"covering grid needs {name} >= {low}, got {getattr(self, name)}")


def openness_report(lin, tol: float | None = None) -> OpennessReport:
    """All openness bounds of [A | B] from one SVD."""
    stacked = lin.augmented
    svals = singular_values(stacked)
    rank = rank_from_singular_values(svals, stacked.shape, tol)
    open_ = rank == stacked.shape[0]
    cov = float(svals[-1]) if open_ else 0.0
    reg = math.inf if cov == 0.0 else 1.0 / cov
    lip = float(svals[0]) if len(svals) else 0.0
    return OpennessReport(cov, reg, lip, rank, open_)


# --- empirical covering search --------------------------------------------


def _direction_count(dim: int, directions: int) -> int:
    """How many target directions ``_covering_directions`` returns, allocating nothing:
    both signs for dim 1 (``directions`` is not used there), ``directions`` for dim 2."""
    return 2 if dim == 1 else directions


def _covering_directions(dim: int, directions: int) -> np.ndarray:
    """Target directions on a fixed lattice: a regular gon of ``_direction_count``
    corners, read on its first coordinate for dim 1 (cos 0 = 1, cos pi = -1).  The
    search caps n + m at 3 with m >= 1, so dim is never larger.

    Not merged with ``sim._halton_directions``: the covering search needs
    this fixed lattice, and sharing either generator would move the README
    covering table or validation's ``worst_x0``.
    """
    count = _direction_count(dim, directions)
    angles = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(angles), np.sin(angles)][:dim])


def _cube_grid(dim: int, radius: float, axis_points: int) -> np.ndarray:
    """Grid points of the cube [-r, r]^dim, one coordinate column per row."""
    axis = np.linspace(-radius, radius, axis_points)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.array([m.ravel() for m in mesh])


def _cube_to_ball(columns: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Map the cube [-r, r]^dim radially onto the ball of radius r around ``center``.

    Each point keeps its direction and takes its max-norm as Euclidean norm,
    so the cube boundary lands exactly on the sphere and the map is
    one-to-one.  Searching in cube coordinates keeps the domain constraint
    separable: feasibility is a per-coordinate clip, and no move can drag
    the other coordinates along the way a projection onto the sphere would.

    ``columns`` holds one coordinate c_j per row.  The norms are max |c_j|
    and sqrt((c_0^2 + c_1^2) + c_2^2), the order of ``np.max(np.abs(p), axis=1)``
    and ``np.linalg.norm(p, axis=1)`` on rows p.
    """
    inf_norms, two_norms = np.abs(columns[0]), columns[0] * columns[0]
    for column in columns[1:]:
        inf_norms = np.maximum(inf_norms, np.abs(column))
        two_norms = two_norms + column * column
    two_norms = np.sqrt(two_norms)
    ball = columns * (inf_norms / np.where(two_norms > 0.0, two_norms, 1.0))
    ball += center
    return ball


def _scores(components: Sequence[ex.Expr], center: np.ndarray, columns: np.ndarray,
            targets: np.ndarray) -> np.ndarray:
    """Distances to ``targets`` (one per row) of the images of the cube points
    ``columns`` (one coordinate per row), mapped by ``_cube_to_ball``."""
    n = len(components)
    ball = _cube_to_ball(columns, center)
    return distances(ex.eval_components(components, ball[:n].T, ball[n:].T), targets)


def _nearest_images(values: np.ndarray) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Map finite targets, one per row, to the index and distance of the nearest of
    the images ``values`` (one per row, non-finite read as inf): ``np.argmin`` over
    the (targets, samples) ``linalg.distances`` matrix, bit for bit, without the
    matrix (bound pruning; Friedman, Bentley & Finkel, *ACM TOMS* 3(3), 1977).
    The distances to the 64 images next to a target in first-coordinate
    order bound its nearest distance b.  A computed distance <= b has a first
    coordinate within b(1 + 4u) + 2^-537.5 of the target's (u = 2^-53 per rounding
    of gap, square, sum and sqrt; 2^-537.5 covers an underflowed square), so the
    images within b(1 + 2^-48) + 2^-536 hold every tie; the lowest index wins.
    """
    values = np.where(np.isfinite(values).all(axis=1, keepdims=True), values, np.inf)
    order = np.argsort(values[:, 0])
    columns = [values[order, k] for k in range(values.shape[1])]
    keys, samples = columns[0], len(order)
    width = min(64, samples)
    block = MAX_STORED_FLOATS // samples  # a target with an inf bound takes every image

    def nearest(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        seeds, dist = np.empty(len(targets), dtype=np.intp), np.empty(len(targets))
        for first in range(0, len(targets), block):
            part = targets[first:first + block]
            lead = part[:, 0]
            start = np.clip(np.searchsorted(keys, lead) - width // 2, 0, samples - width)
            window = start[:, None] + np.arange(width)
            bound = distances([c[window] for c in columns], part[:, None, :]).min(axis=1)
            reach = bound * (1.0 + 2.0 ** -48) + 2.0 ** -536
            low = np.searchsorted(keys, lead - reach)
            counts = np.searchsorted(keys, lead + reach, side="right") - low
            heads = np.cumsum(counts) - counts
            candidates = np.arange(heads[-1] + counts[-1]) + np.repeat(low - heads, counts)
            near = distances([c[candidates] for c in columns], np.repeat(part.T, counts, 1).T)
            best = np.minimum.reduceat(near, heads)
            ties = np.where(near == np.repeat(best, counts), order[candidates], samples)
            seeds[first:first + block] = np.minimum.reduceat(ties, heads)
            dist[first:first + block] = best
        return seeds, dist

    return nearest


def _hopeless_rows(components: Sequence[ex.Expr], center: np.ndarray, points: np.ndarray,
                   dist: np.ndarray, step: np.ndarray, targets: np.ndarray, radius: float,
                   floor: float, passes_left: int) -> np.ndarray:
    """Which rows have no improving move from their point in the passes they have left.

    A row that keeps its point halves every step each pass, so in pass j it
    faces each coordinate k moved by ``step[k] * 2**-j``, + then -, clipped
    to the cube, until its largest step is at most ``floor`` or
    ``passes_left`` runs out (one count for all rows, from the largest step).
    Every such candidate of every row is scored by ``_scores``, the search's
    own scorer, in blocks of at most ``MAX_STORED_FLOATS`` coordinates.
    """
    dim, rows = points.shape
    top, passes = step.max(), 0
    while passes < passes_left and math.ldexp(top, -passes) > floor:
        passes += 1
    per_row = passes * 2 * dim
    block = max(1, MAX_STORED_FLOATS // dim)
    improves = np.zeros(rows, dtype=bool)
    for first in range(0, rows * per_row, block):
        row, rest = np.divmod(np.arange(first, min(first + block, rows * per_row)), per_row)
        halvings, move = np.divmod(rest, 2 * dim)
        k, minus = np.divmod(move, 2)
        shift = np.ldexp(step[k, row], -halvings)
        column = np.where(minus == 1, points[k, row] - shift, points[k, row] + shift)
        candidate = points[:, row]
        candidate[k, np.arange(row.size)] = np.minimum(np.maximum(column, -radius), radius)
        trial = _scores(components, center, candidate, targets[row])
        improves[row[trial < dist[row]]] = True
    return ~improves


def _refine(components: Sequence[ex.Expr], center: np.ndarray, points: np.ndarray,
            dist: np.ndarray, targets: np.ndarray, radius: float, tol: float,
            initial_step: float) -> bool:
    """Whether a box-constrained coordinate pattern search brings every target within tol.

    Operates in cube coordinates (see _cube_to_ball), one coordinate per row
    of ``points``, around the column ``center``.  Steps are tracked per
    coordinate: a nearly flat coordinate that keeps yielding microscopic gains
    must not pin the step of the others.  Each move starts from the point the
    move before it accepted (coordinates in order, + before -), so the moves
    cannot be batched into one field call; ``_scores`` folds each component's
    walk into the distances.
    A NaN distance fails ``trial < dist`` as inf does: ``dist`` holds no NaN.

    A row within ``tol`` is dropped: distances only shrink, and rows do not
    interact, so the live rows follow the same path as when every row is
    evaluated.  A row with all steps below the floor could move less than
    1e-9 * radius per coordinate in the remaining passes, far short of
    ``tol``, so the first such row outside ``tol`` decides the answer.

    The rows that no move has improved are probed once, at the first pass
    start where they are some but not all of the live rows and one pass
    brought none of them a gain: ``_hopeless_rows`` evaluates in one batch
    every move each of them still faces, down to the floor or the pass
    limit.  The probe is exact.  Such a row keeps its point until it
    improves, and halving a step is exact, so the batch scores the very
    moves the search would make.  A row with no improving move among them
    stays outside ``tol`` until the floor check or the pass limit ends the
    search, which then returns False whatever the other rows do, so the
    search returns False at once.  Otherwise it goes on unchanged.
    """
    points, dist = points.copy(), dist.copy()
    step = np.full(points.shape, initial_step)
    floor = 1e-12 * radius
    stuck = np.ones(dist.size, dtype=bool)  # live rows no move has improved and no probe cleared
    before = 0
    for done in range(400):
        live = dist > tol
        if not live.all():
            points, step, dist, targets = points[:, live], step[:, live], dist[live], targets[live]
            stuck = stuck[live]
        if (step.max(axis=0) <= floor).any():
            return False
        if not dist.size:
            return True
        count = np.count_nonzero(stuck)
        if 0 < count < dist.size and count >= before:
            if _hopeless_rows(components, center, points[:, stuck], dist[stuck], step[:, stuck],
                              targets[stuck], radius, floor, 400 - done).any():
                return False
            stuck[:] = False  # probed: a row that can improve is not probed again
        before = count
        for k in range(len(points)):
            improved = np.zeros(dist.size, dtype=bool)
            for move in (np.add, np.subtract):
                candidate = points.copy()  # with coordinate k moved and clipped to the cube
                candidate[k] = np.minimum(np.maximum(move(points[k], step[k]), -radius), radius)
                trial = _scores(components, center, candidate, targets)
                better = trial < dist
                np.copyto(points[k], candidate[k], where=better)
                np.copyto(dist, trial, where=better)
                improved |= better
            np.multiply(step[k], 0.5, out=step[k], where=~improved)
            stuck &= ~improved
    return bool(np.all(dist <= tol))


# singular points give inf/nan images, which the search reads as unattainable
@np.errstate(all="ignore")
def empirical_covering_modulus(
    system: SystemSpec,
    radius: float = 0.1,
    grid: CoveringGrid | None = None,
) -> float:
    """Measured covering rate of f over the joint (x, u) ball of given radius.

    Returns the largest kappa (up to ``KAPPA_RESOLUTION``) such that
    every sampled target in the ball of radius kappa*r around f(z) is
    attained by f from the joint ball of radius r around z = (x*, u*), to
    within ``ATTAIN_REL_TOL * r``.  Deterministic: the search uses fixed
    grids and a projected pattern search, no randomness.
    """
    grid = grid or CoveringGrid()
    n, m = system.n, system.m
    joint = n + m
    if joint > MAX_SEARCH_DIM:
        raise ValueError(
            f"empirical covering search supports n + m <= {MAX_SEARCH_DIM}, got {joint}"
        )
    if not MIN_RADIUS <= radius <= MAX_RADIUS:
        raise ValueError(f"radius must be positive and within [{MIN_RADIUS!r}, {MAX_RADIUS!r}], "
                         f"got {radius!r}")
    samples = grid.axis_points ** joint
    if samples * joint > MAX_STORED_FLOATS:
        raise ValueError(
            f"covering grid of {grid.axis_points}^{joint} points x {joint} coordinates "
            f"exceeds the limit of {MAX_STORED_FLOATS} stored numbers; use fewer axis points")
    count = _direction_count(n, grid.directions)
    if grid.radial_levels * count * joint > MAX_STORED_FLOATS:
        raise ValueError(
            f"covering target set of {grid.radial_levels} levels x {count} directions x "
            f"{joint} coordinates exceeds the limit of {MAX_STORED_FLOATS} stored numbers; "
            f"use fewer levels or directions")
    x0 = np.asarray(system.x_eq, dtype=float)
    u0 = np.asarray(system.u_eq, dtype=float)
    center = np.concatenate([x0, u0])[:, None]
    f_center = evaluate(system, x0, u0)
    cube = _cube_grid(joint, radius, grid.axis_points)
    ball = _cube_to_ball(cube, center)
    values = ex.eval_field(system.components, ball[:n].T, ball[n:].T)
    finite = np.all(np.isfinite(values), axis=1)
    if not finite.any():
        return 0.0
    spread = float(np.max(np.linalg.norm(values[finite] - f_center, axis=1)))
    if spread == 0.0:
        return 0.0
    nearest = _nearest_images(values)
    directions = _covering_directions(n, grid.directions)
    attain_tol = ATTAIN_REL_TOL * radius
    initial_step = 2.0 * radius / grid.axis_points

    def attained_everywhere(kappa: float) -> bool:
        shell_radii = [kappa * radius * j / grid.radial_levels
                       for j in range(1, grid.radial_levels + 1)]
        targets = np.vstack([f_center + r_k * directions for r_k in shell_radii])
        if not np.isfinite(targets).all():  # at distance inf from every image: unattainable
            return False
        # each search starts at the grid point of the nearest image
        seeds, start_dist = nearest(targets)
        if np.all(start_dist <= attain_tol):
            return True
        return _refine(system.components, center, cube[:, seeds], start_dist, targets,
                       radius, attain_tol, initial_step)

    hi = 1.1 * spread / radius + 1e-9
    if attained_everywhere(hi):
        return float(hi)
    lo = 0.0
    width_target = KAPPA_RESOLUTION * hi
    while hi - lo > width_target:
        mid = 0.5 * (lo + hi)
        if attained_everywhere(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)
