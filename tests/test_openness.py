"""Openness bounds and the empirical covering-rate estimator."""

import contextlib
import functools
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLES
from perfbench import gen, workloads
from stabkit import openness
from stabkit.expr import eval_field, parse_expr
from stabkit.linalg import distances
from stabkit.openness import (
    CoveringGrid,
    empirical_covering_modulus,
    openness_report,
)
from stabkit.system import Linearization, jacobian, load_system, parse_system, system_from_strings

THREE_STATE_COV = 0.6144698681796382
THREE_STATE_REG = 1.6274191002440714
THREE_STATE_LIP = 1.6194211432384584


def test_cov_bound_three_state(examples_dir):
    rep = openness_report(jacobian(load_system(examples_dir / "three_state_mixed.stab")))
    assert rep.cov_bound == pytest.approx(THREE_STATE_COV, abs=1e-12)
    assert rep.reg_bound == pytest.approx(THREE_STATE_REG, abs=1e-12)
    assert rep.lip_bound == pytest.approx(THREE_STATE_LIP, abs=1e-12)


def test_cov_bound_planar(examples_dir):
    lin = jacobian(load_system(examples_dir / "planar_cubic.stab"))
    assert openness_report(lin).cov_bound == pytest.approx(1.0, abs=1e-12)


def test_rank_deficient_floors_to_zero():
    lin = Linearization(np.zeros((2, 2)), np.array([[1.0], [0.0]]))
    rep = openness_report(lin)
    assert rep.cov_bound == 0.0
    assert rep.reg_bound == math.inf
    assert not rep.linearly_open
    assert rep.jacobian_rank == 1


def test_reciprocity_on_random_full_rank():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        lin = Linearization(rng.normal(size=(n, n)), rng.normal(size=(n, m)))
        rep = openness_report(lin)
        if rep.cov_bound == 0.0:
            continue
        assert abs(rep.cov_bound * rep.reg_bound - 1.0) <= 1e-12


def test_openness_report_fields(examples_dir):
    lin = jacobian(load_system(examples_dir / "three_state_mixed.stab"))
    rep = openness_report(lin)
    assert rep.linearly_open
    assert rep.jacobian_rank == 3
    assert rep.cov_bound == pytest.approx(THREE_STATE_COV, abs=1e-12)
    assert rep.reg_bound == pytest.approx(1.0 / rep.cov_bound, abs=1e-12)


def test_empirical_cubic_sweep(examples_dir):
    spec = load_system(examples_dir / "cubic_input.stab")
    ratios = []
    for r in (0.1, 0.05, 0.025):
        kappa = empirical_covering_modulus(spec, radius=r)
        assert max(kappa / r**2, r**2 / kappa) <= 1.5
        ratios.append(kappa / r)
    assert ratios[0] > ratios[1] > ratios[2]


def test_empirical_identity_near_unit_rate(examples_dir):
    spec = load_system(examples_dir / "identity_input.stab")
    for r in (0.1, 0.05, 0.025):
        assert empirical_covering_modulus(spec, radius=r) >= 0.9


def test_empirical_near_linear_planar(examples_dir):
    spec = load_system(examples_dir / "planar_cubic.stab")
    assert empirical_covering_modulus(spec, radius=0.05) >= 0.9


def test_empirical_matches_linear_bound_within_ten_percent():
    spec = system_from_strings(
        "continuous", ["0.3*x1 - 0.2*x2 + 0.5*u1", "0.4*x1 + 0.1*x2"], m=1
    )
    cov = openness_report(jacobian(spec)).cov_bound
    fine = CoveringGrid(axis_points=21, directions=64)
    kappa = empirical_covering_modulus(spec, radius=0.1, grid=fine)
    assert abs(kappa - cov) <= 0.1 * cov


def test_empirical_nonincreasing_under_refinement(examples_dir):
    spec = load_system(examples_dir / "planar_cubic.stab")
    coarse = empirical_covering_modulus(spec, radius=0.05, grid=CoveringGrid(directions=16))
    fine = empirical_covering_modulus(spec, radius=0.05, grid=CoveringGrid(directions=48))
    assert fine <= coarse + 1e-3


def test_empirical_constant_map_is_zero():
    spec = system_from_strings("continuous", ["u1 - u1"], m=1)
    assert empirical_covering_modulus(spec, radius=0.1) == 0.0


def test_empirical_no_finite_grid_image_is_zero():
    # the square root of -(x1^2) is nan off x1 = 0, which 16 axis points miss
    spec = system_from_strings("continuous", ["(-(x1^2))^0.5 + 0*u1"], m=1)
    assert empirical_covering_modulus(spec, grid=CoveringGrid(axis_points=16)) == 0.0


def test_empirical_dimension_cap():
    spec = system_from_strings(
        "continuous", ["u1", "u2"], m=2
    )
    with pytest.raises(ValueError, match="n \\+ m"):
        empirical_covering_modulus(spec, radius=0.1)


def test_empirical_rejects_bad_radius(examples_dir):
    # squared distances underflow at 1e-200 and 1e-160 and overflow at 1e155
    spec = load_system(examples_dir / "identity_input.stab")
    for radius in (0.0, -0.1, math.nan, 1e-200, 1e-160, 1e155):
        with pytest.raises(ValueError, match="radius must be positive and within"):
            empirical_covering_modulus(spec, radius=radius)


def test_identity_rate_holds_at_both_ends_of_the_radius_range(examples_dir):
    spec = load_system(examples_dir / "identity_input.stab")
    assert openness.MIN_RADIUS == pytest.approx(1.49e-148, rel=1e-2)
    assert openness.MAX_RADIUS == pytest.approx(3.35e153, rel=1e-2)
    for radius in (openness.MIN_RADIUS, openness.MAX_RADIUS):
        assert repr(empirical_covering_modulus(spec, radius=radius)) == "0.9990234384082033"


# repr(kappa) of the covering search: it is deterministic, so a change in the
# last bit is a change of behaviour, not noise
KAPPA_PINS = [
    ("planar_cubic", 0.1, None, "0.9990234384082035"),
    ("planar_cubic", 0.05, None, "0.9990234384082035"),
    ("planar_cubic", 0.025, None, "0.9990234384082035"),
    ("planar_cubic", 0.1, (16, 2, 7), "0.9990234384082033"),
    ("cubic_input", 0.1, None, "0.01000097747167969"),
    ("cubic_input", 0.05, None, "0.002500245049804688"),
    ("cubic_input", 0.025, None, "0.0006257333320312502"),
    ("identity_input", 0.1, None, "0.9990234384082033"),
    ("planar_translated", 0.1, None, "0.9990234384082035"),
    ("cli_c21", 0.1, None, "0.5605183258841149"),
    ("cli_c21", 0.1, (16, 2, 7), "0.558794564000918"),
    ("nan_images", 0.2, None, "0.9992009717792183"),
    ("nan_images", 0.1, None, "0.928774226403988"),
    ("huge_images", 0.1, None, "0.0"),
]


def _pinned_system(examples_dir, name):
    if name == "planar_translated":
        return parse_system(gen.planar_systems()[1].text)
    if name == "cli_c21":
        return parse_system(workloads.cold_cli_systems(0, False)[0].text)
    if name == "nan_images":  # the square root is nan on the grid points with x2 < -0.05
        return system_from_strings(
            "continuous", ["u1 + x2 + (x2 + 0.05)^0.5 - 0.05^0.5", "x1"], m=1)
    if name == "huge_images":  # images of 1e308 overflow the bisection bracket to inf targets
        return system_from_strings("continuous", ["x2 + 1e308*u1*10", "x1"], m=1)
    return load_system(examples_dir / f"{name}.stab")


@pytest.mark.parametrize("name, radius, grid, expected", KAPPA_PINS)
def test_empirical_kappa_pinned_bit_for_bit(examples_dir, name, radius, grid, expected):
    spec = _pinned_system(examples_dir, name)
    grid = CoveringGrid(*grid) if grid else None
    assert repr(empirical_covering_modulus(spec, radius=radius, grid=grid)) == expected


def test_seeding_in_row_blocks_keeps_kappa(examples_dir, monkeypatch):
    # a cap of five targets with every image a candidate splits the 32 targets into seven blocks
    spec = load_system(examples_dir / "planar_cubic.stab")
    monkeypatch.setattr(openness, "MAX_STORED_FLOATS", 5 * 7**3)
    kappa = empirical_covering_modulus(spec, radius=0.1, grid=CoveringGrid(16, 2, 7))
    assert repr(kappa) == "0.9990234384082033"


@contextlib.contextmanager
def _recorded_probes():
    """The batch size of every field walk, and each probe's arguments, verdict and
    the batch sizes of its own walks."""
    sizes, probes = [], []
    walk, probe = openness.ex.eval_components, openness._hopeless_rows

    def counted_walk(components, x, u):
        sizes.append(x.shape[0])
        return walk(components, x, u)

    def recorded_probe(*args):
        first = len(sizes)
        hopeless = probe(*args)
        probes.append((args, hopeless, sizes[first:]))
        return hopeless

    with mock.patch.object(openness.ex, "eval_components", counted_walk), \
            mock.patch.object(openness, "_hopeless_rows", recorded_probe):
        yield sizes, probes


def test_hopeless_searches_end_at_the_probe():
    # 2161-2185 walks per call without the probe, 1059-1106 with it
    spec = parse_system(gen.planar_systems()[0].text)
    for radius in (0.1, 0.05, 0.025):
        with _recorded_probes() as (sizes, _):
            assert repr(empirical_covering_modulus(spec, radius=radius)) == "0.9990234384082035"
        assert len(sizes) <= 1200


def test_probe_in_blocks_keeps_kappa(examples_dir, monkeypatch):
    # a cap of 1715 numbers, 571 candidates of 3 coordinates, splits every probe
    spec = load_system(examples_dir / "planar_cubic.stab")
    cap = 5 * 7**3
    monkeypatch.setattr(openness, "MAX_STORED_FLOATS", cap)
    with _recorded_probes() as (_, probes):
        kappa = empirical_covering_modulus(spec, radius=0.1, grid=CoveringGrid(16, 2, 7))
    assert repr(kappa) == "0.9990234384082033"
    assert probes and all(len(blocks) > 1 for _, _, blocks in probes)
    assert max(max(blocks) for _, _, blocks in probes) * 3 <= cap


def test_the_probe_tries_every_step_down_to_the_floor_and_no_further():
    # f = x1 from (x1, u1) = 0 toward the target delta: moving x1 by s gives |s - delta|,
    # a gain only for s < 2 delta, and moving u1 leaves the image at 0
    step, floor = 0.1, 1e-12
    last, passes = step, 1
    while last / 2 > floor:
        last, passes = last / 2, passes + 1
    # the last step above the floor gains at 0.75 * last, the step after it at 0.4 * last
    for delta, passes_left, hopeless in ((0.75 * last, passes, False),
                                         (0.75 * last, passes - 1, True),
                                         (0.4 * last, passes + 1, True)):
        got = openness._hopeless_rows((parse_expr("x1"),), np.zeros((2, 1)), np.zeros((2, 1)),
                                      np.array([delta]), np.full((2, 1), step),
                                      np.array([[delta]]), 1.0, floor, passes_left)
        assert got.tolist() == [hopeless]


def test_distance_matrix_matches_norm_bit_for_bit():
    # the seeding reads the (targets, samples) norm matrix, non-finite as inf, without building it
    rng = np.random.default_rng(11)
    values = rng.standard_normal((300, 2)) * 10.0 ** rng.integers(-8, 8, (300, 1))
    targets = rng.standard_normal((40, 2))
    values[[3, 50, 77], [0, 1, 0]] = [np.inf, np.nan, -np.inf]
    with np.errstate(all="ignore"):  # inf - inf is nan, as in the search
        expected = np.linalg.norm(values[None, :, :] - targets[:, None, :], axis=-1)
        seeds, dist = openness._nearest_images(values)(targets)
    expected = np.where(np.isfinite(expected), expected, np.inf)
    assert seeds.tolist() == np.argmin(expected, axis=1).tolist()
    assert dist.tobytes() == expected.min(axis=1).tobytes()


# image coordinates from a lattice, for duplicate images and exact distance ties
LATTICE = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_nearest_images_follow_the_distance_matrix(data):
    dim = data.draw(st.integers(1, 2))
    samples = data.draw(st.integers(1, 150))
    count = data.draw(st.integers(1, 40))
    # 1e-170 puts squared gaps among the subnormals, 1e160 overflows them to inf
    scale = 10.0 ** data.draw(st.integers(-170, 160))
    point = st.lists(LATTICE, min_size=dim, max_size=dim)
    values = scale * np.array(data.draw(st.lists(point, min_size=samples, max_size=samples)))
    special = st.sampled_from([np.inf, -np.inf, np.nan])
    for row, col, value in data.draw(st.lists(
            st.tuples(st.integers(0, samples - 1), st.integers(0, dim - 1), special), max_size=5)):
        values[row, col] = value
    targets = scale * np.array(data.draw(st.lists(point, min_size=count, max_size=count)))
    # a target scaled by 1e3 lies beyond every image
    targets *= np.array(data.draw(st.lists(st.sampled_from([1.0, 1.0, 1e3]),
                                           min_size=count, max_size=count)))[:, None]
    block = data.draw(st.integers(1, count))  # targets per block
    with np.errstate(all="ignore"):
        matrix = distances(values.T, targets[:, None, :])
        matrix[np.isnan(matrix)] = np.inf
        with mock.patch.object(openness, "MAX_STORED_FLOATS", block * samples):
            seeds, dist = openness._nearest_images(values)(targets)
    expected = np.argmin(matrix, axis=1)
    assert seeds.tolist() == expected.tolist()
    assert dist.tobytes() == matrix[np.arange(count), expected].tobytes()


def test_oversized_covering_grid_rejected_before_allocation(examples_dir, monkeypatch):
    monkeypatch.setattr(openness, "_cube_grid", lambda *args: pytest.fail("grid allocated"))
    spec = load_system(examples_dir / "planar_cubic.stab")
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"grid of 1000\^3 points x 3 coordinates exceeds"):
        empirical_covering_modulus(spec, radius=0.1, grid=CoveringGrid(axis_points=1000))
    assert time.perf_counter() - start < 0.5


def test_oversized_covering_target_set_rejected_before_allocation(examples_dir, monkeypatch):
    monkeypatch.setattr(openness, "_covering_directions",
                        lambda *args: pytest.fail("directions allocated"))
    spec = load_system(examples_dir / "planar_cubic.stab")
    with pytest.raises(ValueError, match=r"target set of 4 levels x 1000000000 directions x 3 "):
        empirical_covering_modulus(spec, radius=0.1, grid=CoveringGrid(directions=10**9))


# repr(kappa) at r = 0.2, 0.1, 0.05, 0.025 on the default grid, then the same four
# radii on CoveringGrid(16, 2, 7): the five examples with n + m <= 3 (seed None)
# and four perfbench systems at seeds 0-2
KAPPA_TABLE = {
    ("cubic_input", None): (
        "0.03996093840820314", "0.01000097747167969", "0.002500245049804688", "0.0006257333320312502",
        "0.03996093840820314", "0.01000097747167969", "0.002500245049804688", "0.0006257333320312502"),
    ("discrete_quadratic", None): (
        "1.6730624385387491", "1.735176616760997", "1.767338611639487", "1.7853630612812526",
        "1.6724213258202494", "1.7354450029226096", "1.7684888598843527", "1.7850680559295484"),
    ("identity_input", None): (
        "0.9990234384082033", "0.9990234384082033", "0.9990234384082033", "0.9990234384082033",
        "0.9990234384082033", "0.9990234384082033", "0.9990234384082033", "0.9990234384082033"),
    ("planar_cubic", None): (
        "0.9990234384082035", "0.9990234384082035", "0.9990234384082035", "0.9990234384082035",
        "0.9990234384082033", "0.9990234384082033", "0.9990234384082033", "0.9990234384082033"),
    ("unstable_drift", None): (
        "0.7838941587099305", "0.8963130884474011", "0.9479650291375903", "0.9722718247565029",
        "0.6638793553415496", "0.33573761448622985", "0.9494842038637723", "0.973790999482685"),
    ("planar_cubic", 0): (
        "0.9990234384082035", "0.9990234384082035", "0.9990234384082035", "0.9990234384082035",
        "0.9990234384082033", "0.9990234384082033", "0.9990234384082033", "0.9990234384082033"),
    ("planar_translated", 0): (
        "0.9990234384082035", "0.9990234384082035", "0.9990234384082035", "0.9990234384082035",
        "0.9990234384082033", "0.9990234384082033", "0.9990234384082033", "0.9990234384082033"),
    ("cli_c21", 0): (
        "0.5597892006285664", "0.5605183258841149", "0.5605449665188583", "0.5600377472647697",
        "0.5588183879238491", "0.558794564000918", "0.559486052616703", "0.5612976519900736"),
    ("cli_d21", 0): (
        "0.8544407307277011", "0.8693887805115293", "0.8740564771959263", "0.8320106396306582",
        "0.8094079661580771", "0.8227857696125456", "0.8259733182254181", "0.8282534874174705"),
    ("planar_cubic", 1): (
        "0.9990234384082035", "0.9990234384082035", "0.9990234384082035", "0.9990234384082035",
        "0.9990234384082033", "0.9990234384082033", "0.9990234384082033", "0.9990234384082033"),
    ("planar_translated", 1): (
        "0.9990234384082035", "0.9990234384082035", "0.9990234384082035", "0.9990234384082035",
        "0.9990234384082033", "0.9990234384082033", "0.9990234384082033", "0.9990234384082033"),
    ("cli_c21", 1): (
        "1.2444665256027398", "0.9387746557884424", "1.245941679642879", "1.2439986711346451",
        "1.2507773318258542", "1.2750099775989334", "1.2861942756480473", "1.291786424672605"),
    ("cli_d21", 1): (
        "1.0841667890241493", "0.48194380401517434", "0.48569246619160344", "1.1770153761979887",
        "1.172013552847505", "1.1693113134737982", "1.1669926054283732", "1.1819550450522942"),
    ("planar_cubic", 2): (
        "0.9990234384082035", "0.9990234384082035", "0.9990234384082035", "0.9990234384082035",
        "0.9990234384082033", "0.9990234384082033", "0.9990234384082033", "0.9990234384082033"),
    ("planar_translated", 2): (
        "0.9990234384082035", "0.9990234384082035", "0.9990234384082035", "0.9990234384082035",
        "0.9990234384082033", "0.9990234384082033", "0.9990234384082033", "0.9990234384082033"),
    ("cli_c21", 2): (
        "0.5186895775498487", "0.5149603326964918", "0.5161573443112218", "0.5284881470269627",
        "0.5283608782955356", "0.5286945043064813", "0.5284235549593286", "0.5287240088936083"),
    ("cli_d21", 2): (
        "1.2509043953542007", "1.2591451385811507", "1.2676080155948672", "1.269668878184619",
        "1.3142030241257725", "1.3182406115155114", "1.3246920337578376", "1.3289929819193866"),
}
TABLE_RUNS = [(grid, radius) for grid in (None, CoveringGrid(16, 2, 7))
              for radius in (0.2, 0.1, 0.05, 0.025)]


@functools.lru_cache(maxsize=None)
def _table_kappas(name, seed):
    if seed is None:
        spec = load_system(EXAMPLES / f"{name}.stab")
    elif name.startswith("cli_"):
        spec = parse_system(next(g.text for g in workloads.cold_cli_systems(seed, False)
                                 if g.name == name))
    else:
        spec = parse_system(next(g.text for g in gen.planar_systems() if g.name == name))
    return tuple(repr(empirical_covering_modulus(spec, radius=radius, grid=grid))
                 for grid, radius in TABLE_RUNS)


@pytest.mark.parametrize("name, seed", list(KAPPA_TABLE))
def test_kappa_table_pinned_bit_for_bit(name, seed):
    # perfbench's planar systems take no seed, so seeds 1 and 2 reuse seed 0's search
    search_seed = seed if seed is None or name.startswith("cli_") else 0
    assert _table_kappas(name, search_seed) == KAPPA_TABLE[name, seed]


# reference for the covering search in row form, one point per row with every
# norm taken along the row: _refine on coordinate columns must follow its path
def _cube_to_ball_rows(points):
    inf_norms = np.max(np.abs(points), axis=1)
    two_norms = np.linalg.norm(points, axis=1)
    safe = np.where(two_norms > 0.0, two_norms, 1.0)
    return points * (inf_norms / safe)[:, None]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_cube_to_ball_follows_the_row_form(data):
    # the map every covering candidate goes through, bit for bit: the all-zero
    # point, a -0.0 point and a cube corner, drawn points on the boundary, and
    # uniform points, whose norms round differently when summed out of order
    dim = data.draw(st.integers(1, 3))
    radius = data.draw(st.floats(openness.MIN_RADIUS, openness.MAX_RADIUS))
    edge = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), min_size=dim, max_size=dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    unit = np.vstack([[0.0] * dim, [-0.0] * dim, [1.0, -1.0, 1.0][:dim],
                      *data.draw(st.lists(edge, max_size=8)), rng.uniform(-1.0, 1.0, (32, dim))])
    points = radius * unit
    center = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    expected = _cube_to_ball_rows(points) + center
    got = openness._cube_to_ball(points.T.copy(), center[:, None]).T
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()


def _row_distances(values, targets):
    dist = np.linalg.norm(values - targets, axis=1)
    return np.where(np.isnan(dist), np.inf, dist)


def _refine_rows(objective, points, dist, targets, radius, tol, initial_step):
    points = points.copy()
    dist = dist.copy()
    dim = points.shape[1]
    step = np.full(points.shape, initial_step)
    floor = 1e-12 * radius
    live = np.arange(len(points))
    for _ in range(400):
        live = live[dist[live] > tol]
        if (step[live].max(axis=1) <= floor).any():
            return False
        if not live.size:
            return True
        live_points, live_dist, live_step = points[live], dist[live], step[live]
        live_targets = targets[live]
        for k in range(dim):
            improved = np.zeros(live.size, dtype=bool)
            for sign in (1.0, -1.0):
                candidate = live_points.copy()
                moved = candidate[:, k] + sign * live_step[:, k]
                candidate[:, k] = np.clip(moved, -radius, radius)
                trial = _row_distances(objective(candidate), live_targets)
                better = trial < live_dist
                live_points[better] = candidate[better]
                live_dist[better] = trial[better]
                improved |= better
            live_step[~improved, k] *= 0.5
        points[live], dist[live], step[live] = live_points, live_dist, live_step
    return bool(np.all(dist <= tol))


# components and n, searched around (x, u) = 0; on x2 = 0 the singular field's
# x1/x2 is inf (or nan at x1 = 0) and its x1/x2 - x1/x2 is nan
REFINE_FIELDS = {
    "planar_cubic": (parse_system(gen.planar_systems()[0].text).components, 2),
    "cubic_input": ((parse_expr("u1^3"),), 1),
    "singular": ((parse_expr("x1/x2"), parse_expr("u1 + (x1/x2 - x1/x2)")), 2),
}


def _draw_refine_case(data):
    """A search to run both ways: components, cube starts (one per row), their
    distances, targets, radius, tol and initial step, and the row-form objective
    with its call counter."""
    components, n = REFINE_FIELDS[data.draw(st.sampled_from(sorted(REFINE_FIELDS)))]
    dim = n + 1
    radius = data.draw(st.floats(1e-3, 0.5))
    rows = data.draw(st.integers(1, 8))
    coordinate = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0))
    cube_points = st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                           min_size=rows, max_size=rows)
    noise = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    noises = st.lists(st.one_of(st.just([0.0] * n), noise), min_size=rows, max_size=rows)
    starts = radius * np.array(data.draw(cube_points))
    ends = radius * np.array(data.draw(cube_points))
    shifts = radius * np.array(data.draw(noises))
    tol = radius * 10.0 ** data.draw(st.floats(-8.0, -1.0))
    initial_step = radius * data.draw(st.floats(1e-3, 0.5))
    calls = {"rows": 0}

    def objective(cube):  # one point per row
        calls["rows"] += 1
        offsets = _cube_to_ball_rows(cube)
        return eval_field(components, offsets[:, :n], offsets[:, n:])

    with np.errstate(all="ignore"):
        # images of ball points, some of them attained, moved by up to a radius
        images = objective(ends)
        targets = np.where(np.isfinite(images), images, 0.0) + shifts
        dist = _row_distances(objective(starts), targets)
    calls["rows"] = 0
    return components, starts, dist, targets, radius, tol, initial_step, objective, calls


def _probed_refine(components, starts, dist, targets, radius, tol, initial_step):
    """``_refine`` from row starts: its answer, its field walks and its probes."""
    with _recorded_probes() as (sizes, probes):
        got = openness._refine(components, np.zeros((starts.shape[1], 1)), starts.T.copy(),
                               dist, targets, radius, tol, initial_step)
    return got, len(sizes), probes


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_column_refine_follows_the_row_form(data):
    components, starts, dist, targets, radius, tol, initial_step, objective, calls = (
        _draw_refine_case(data))
    with np.errstate(all="ignore"):
        expected = _refine_rows(objective, starts, dist, targets, radius, tol, initial_step)
        got, walks, probes = _probed_refine(components, starts, dist, targets, radius, tol,
                                            initial_step)
    assert got == expected
    assert len(probes) <= 1
    search_walks = walks - sum(len(own) for _, _, own in probes)
    if probes and probes[0][1].any():  # the probe ended the search
        assert not got
        assert search_walks < calls["rows"]
    else:
        assert search_walks == calls["rows"]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_a_row_the_probe_calls_hopeless_fails_on_its_own(data):
    # the probe on the drawn rows outside tol, from their starts, and each probe the search ran
    components, starts, dist, targets, radius, tol, initial_step, objective, _ = (
        _draw_refine_case(data))
    live = dist > tol
    points = starts[live].T.copy()
    with np.errstate(all="ignore"):
        _, _, probes = _probed_refine(components, starts, dist, targets, radius, tol,
                                      initial_step)
        # a probed row has kept its start point, its distance and its first step
        cases = [(args[2], args[3], args[5], verdict) for args, verdict, _ in probes]
        if live.any():
            cases.append((points, dist[live], targets[live], openness._hopeless_rows(
                components, np.zeros((len(points), 1)), points, dist[live],
                np.full(points.shape, initial_step), targets[live], radius, 1e-12 * radius,
                400)))
        for probed, row_dist, row_targets, verdict in cases:
            for row in np.flatnonzero(verdict):
                assert not _refine_rows(objective, probed[:, [row]].T, row_dist[[row]],
                                        row_targets[[row]], radius, tol, initial_step)
