"""Openness bounds and the empirical covering-rate estimator."""

import math
import time

import numpy as np
import pytest

from perfbench import gen, workloads
from stabkit import openness
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


def test_empirical_dimension_cap():
    spec = system_from_strings(
        "continuous", ["u1", "u2"], m=2
    )
    with pytest.raises(ValueError, match="n \\+ m"):
        empirical_covering_modulus(spec, radius=0.1)


def test_empirical_rejects_bad_radius(examples_dir):
    spec = load_system(examples_dir / "identity_input.stab")
    with pytest.raises(ValueError, match="radius"):
        empirical_covering_modulus(spec, radius=0.0)


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
]


def _pinned_system(examples_dir, name):
    if name == "planar_translated":
        return parse_system(gen.planar_systems()[1].text)
    if name == "cli_c21":
        return parse_system(workloads.cold_cli_systems(0, False)[0].text)
    return load_system(examples_dir / f"{name}.stab")


@pytest.mark.parametrize("name, radius, grid, expected", KAPPA_PINS)
def test_empirical_kappa_pinned_bit_for_bit(examples_dir, name, radius, grid, expected):
    spec = _pinned_system(examples_dir, name)
    grid = CoveringGrid(*grid) if grid else None
    assert repr(empirical_covering_modulus(spec, radius=radius, grid=grid)) == expected


def test_seeding_in_row_blocks_keeps_kappa(examples_dir, monkeypatch):
    # a cap of five rows of the (targets, samples) matrix splits the 32 targets into seven blocks
    spec = load_system(examples_dir / "planar_cubic.stab")
    monkeypatch.setattr(openness, "MAX_STORED_FLOATS", 5 * 7**3)
    kappa = empirical_covering_modulus(spec, radius=0.1, grid=CoveringGrid(16, 2, 7))
    assert repr(kappa) == "0.9990234384082033"


def test_distance_matrix_matches_norm_bit_for_bit():
    rng = np.random.default_rng(11)
    values = rng.standard_normal((300, 2)) * 10.0 ** rng.integers(-8, 8, (300, 1))
    targets = rng.standard_normal((40, 2))
    values[[3, 50, 77], [0, 1, 0]] = [np.inf, np.nan, -np.inf]
    targets[[5, 9], [1, 0]] = [np.nan, np.inf]
    with np.errstate(all="ignore"):  # inf - inf is nan, as in the search
        expected = np.linalg.norm(values[None, :, :] - targets[:, None, :], axis=-1)
        matrix = openness._distances(np.ascontiguousarray(values.T), targets[:, None, :])
        rows = openness._distances(values[:40].T, targets)
    expected = np.where(np.isfinite(expected), expected, np.inf)
    assert matrix.tobytes() == expected.tobytes()
    assert rows.tobytes() == expected[np.arange(40), np.arange(40)].tobytes()


def test_oversized_covering_grid_rejected_before_allocation(examples_dir, monkeypatch):
    monkeypatch.setattr(openness, "_cube_grid", lambda *args: pytest.fail("grid allocated"))
    spec = load_system(examples_dir / "planar_cubic.stab")
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"grid of 1000\^3 points x 3 coordinates exceeds"):
        empirical_covering_modulus(spec, radius=0.1, grid=CoveringGrid(axis_points=1000))
    assert time.perf_counter() - start < 0.5
