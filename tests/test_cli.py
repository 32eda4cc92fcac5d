"""End-to-end CLI tests: exit codes, report contracts, determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stabkit
from stabkit import openness
from stabkit.cli import main
from stabkit.hautus import format_eigenvalue
from stabkit.report import load_schema

SQRT_TENTH = 0.31622776601683794
THREE_STATE_COV = 0.6144698681796382


# --- analyze ------------------------------------------------------------

def test_analyze_text_output(run_cli, examples_dir):
    code, out, err = run_cli("analyze", examples_dir / "planar_cubic.stab")
    assert code == 0
    assert err == ""
    assert "system: continuous | states 2 | controls 1" in out
    assert "verdict: EXP_STABILIZABLE_CONT_FEEDBACK" in out
    assert "R2 [EXP_STABILIZABLE_CONT_FEEDBACK]" in out
    assert "linearly_open=yes" in out
    assert "flags: linearized_controllable=yes small_time_locally_controllable=yes" in out


def test_analyze_json_matches_schema(run_cli, examples_dir):
    code, out, _ = run_cli("analyze", examples_dir / "three_state_mixed.stab", "--json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["tool"]["name"] == "stabkit"
    assert doc["system"]["states"] == 3
    assert doc["openness"]["cov_bound"] == pytest.approx(THREE_STATE_COV, abs=1e-12)
    assert doc["spectral"]["eta"] == pytest.approx(SQRT_TENTH, abs=1e-12)
    assert doc["verdict"]["decision"] == "EXP_STABILIZABLE_CONT_FEEDBACK"
    assert [r["rule"] for r in doc["verdict"]["fired_rules"]] == ["R1", "R3"]
    assert doc["gain"] is None
    assert doc["validation"] is None


def test_analyze_json_is_byte_identical(run_cli, examples_dir):
    first = run_cli("analyze", examples_dir / "three_state_mixed.stab", "--json")
    second = run_cli("analyze", examples_dir / "three_state_mixed.stab", "--json")
    assert first == second
    assert first[0] == 0


def test_text_and_json_numbers_agree(run_cli, examples_dir):
    _, text, _ = run_cli("analyze", examples_dir / "three_state_mixed.stab")
    _, raw, _ = run_cli("analyze", examples_dir / "three_state_mixed.stab", "--json")
    doc = json.loads(raw)
    assert f"cov_bound={doc['openness']['cov_bound']:.12g}" in text
    assert f"eta={doc['spectral']['eta']:.12g}" in text
    assert f"eta_tilde={doc['spectral']['eta_tilde']:.12g}" in text
    assert f"perturbation_margin: {doc['verdict']['perturbation_margin']:.12g}" in text
    # the gain and validation blocks, from a passing and a diverging validation
    for argv, diverges in ((["synthesize", "--validate"], False), (DIVERGING_VALIDATION, True)):
        _, text, _ = run_cli(argv[0], examples_dir / "planar_cubic.stab", *argv[1:])
        _, raw, _ = run_cli(argv[0], examples_dir / "planar_cubic.stab", *argv[1:], "--json")
        lines = text.splitlines()
        gain, check = json.loads(raw)["gain"], json.loads(raw)["validation"]
        assert bool(check["failures"]) == diverges
        k_at = lines.index("K =")
        assert lines[k_at + 1:k_at + 1 + len(gain["k"])] == [
            "  " + "  ".join(f"{v:.12g}" for v in row) for row in gain["k"]]
        for key, label in (("target_poles", "target"), ("achieved_poles", "achieved")):
            poles = " ".join(format_eigenvalue(complex(p["re"], p["im"])) for p in gain[key])
            assert f"{label} poles: {poles}" in lines
        assert [line for line in lines if re.match(r"u\d+ = ", line)] == [
            f"u{i} = {e}" for i, e in enumerate(gain["expressions"], start=1)]
        w = check["worst"]
        assert (f"  worst fit: alpha_hat={w['alpha_hat']:.12g} m_hat={w['m_hat']:.12g} "
                f"residual={w['residual']:.12g} certified={'yes' if w['certified'] else 'no'}"
                ) in lines
        assert [line for line in lines if line.startswith("  failure at x0: ")] == [
            "  failure at x0: " + " ".join(f"{v:.12g}" for v in x) for x in check["failures"]]


STABLE_SYSTEM = ("mode continuous\nstates 2\ncontrols 1\neq x = 0 0\neq u = 0\n"
                 "f1 = -x1 + u1\nf2 = -2*x2 + x1^2\n")
DIVERGING_VALIDATION = ["synthesize", "--validate", "--delta", "3", "--samples", "12",
                        "--horizon", "2", "--dt", "0.01"]


@pytest.mark.parametrize("source, argv, text_parts, json_paths", [
    ("cubic_input.stab", ["analyze"], ["reg_bound=inf "], [("openness", "reg_bound")]),
    (STABLE_SYSTEM, ["analyze"],
     ["spectral: eta=-inf ", "perturbation_margin: inf\n",
      "R1 [EXP_STABILIZABLE_CONT_FEEDBACK] (cov=1.41421356237, eta=-inf, margin=0,"],
     [("spectral", "eta"), ("verdict", "perturbation_margin"),
      ("verdict", "fired_rules", 1, "evidence", "eta")]),
    ("planar_cubic.stab", DIVERGING_VALIDATION, ["passed=no delta=3 samples=12 min_alpha=-inf\n"],
     [("validation", "min_alpha")]),
], ids=["cubic_input", "stable", "diverging"])
def test_nonfinite_numbers_are_inf_in_text_and_null_in_json(
        run_cli, examples_dir, tmp_path, source, argv, text_parts, json_paths):
    path = examples_dir / source
    if "\n" in source:
        path = tmp_path / "stable.stab"
        path.write_text(source)
    code, text, _ = run_cli(argv[0], path, *argv[1:])
    assert code == 0
    for part in text_parts:
        assert part in text
    code, raw, _ = run_cli(argv[0], path, *argv[1:], "--json")
    assert code == 0
    doc = json.loads(raw)
    for keys in json_paths:
        value = doc
        for key in keys:
            value = value[key]
        assert value is None, keys


def test_analyze_flag_plumbing(run_cli, examples_dir):
    code, out, _ = run_cli(
        "analyze", examples_dir / "three_state_mixed.stab", "--margin", "0.5"
    )
    assert code == 0
    assert "verdict: INCONCLUSIVE" in out
    code, raw, _ = run_cli(
        "analyze", examples_dir / "three_state_mixed.stab", "--json", "--seed", "7"
    )
    assert json.loads(raw)["tool"]["seed"] == 7


def test_analyze_inconclusive_with_warnings_still_exits_zero(run_cli, examples_dir):
    code, out, _ = run_cli("analyze", examples_dir / "unstable_drift.stab")
    assert code == 0
    assert "verdict: INCONCLUSIVE" in out
    assert "warning: sufficiency margin failed: cov=1 <= eta=1 + margin=0" in out
    assert "warning: Hautus rank test fails at lambda=1" in out


# --- synthesize ---------------------------------------------------------

def test_synthesize_text_output(run_cli, examples_dir):
    code, out, err = run_cli("synthesize", examples_dir / "planar_cubic.stab")
    assert code == 0
    assert err == ""
    assert "K =" in out
    assert "target poles: -1 -1.5" in out
    assert "u1 = -1.5*x1 + -2.5*x2" in out


def test_synthesize_json_gain_section(run_cli, examples_dir):
    code, raw, _ = run_cli(
        "synthesize", examples_dir / "planar_cubic.stab", "--json", "--poles=-1,-2"
    )
    assert code == 0
    doc = json.loads(raw)
    jsonschema.validate(doc, load_schema())
    gain = doc["gain"]
    assert len(gain["k"]) == 1
    assert gain["k"][0] == pytest.approx([-2.0, -3.0], abs=1e-10)
    assert gain["target_poles"] == [{"re": -1.0, "im": 0.0}, {"re": -2.0, "im": 0.0}]
    assert gain["mode"] == "continuous"
    assert gain["expressions"] == ["-2.0*x1 + -3.0*x2"]
    achieved = sorted(p["re"] for p in gain["achieved_poles"])
    assert achieved == pytest.approx([-2.0, -1.0], abs=1e-8)


def test_synthesize_uncontrollable_exits_three(run_cli, examples_dir):
    code, out, err = run_cli("synthesize", examples_dir / "unstable_drift.stab")
    assert code == 3
    assert out == ""
    assert err == "error: uncontrollable unstable mode at lambda=1\n"


def test_synthesize_inconclusive_needs_force(run_cli, tmp_path):
    path = tmp_path / "spiral.stab"
    path.write_text(
        "mode continuous\nstates 2\ncontrols 1\neq x = 0 0\neq u = 0\n"
        "f1 = x1 - 2*x2 + u1\nf2 = 2*x1 + x2\n"
    )
    code, _, err = run_cli("synthesize", path)
    assert code == 3
    assert "verdict is INCONCLUSIVE" in err and "--force" in err
    code, out, _ = run_cli("synthesize", path, "--force")
    assert code == 0
    assert "K =" in out and "achieved poles:" in out


def test_synthesize_validate_discrete(run_cli, examples_dir):
    code, out, _ = run_cli(
        "synthesize", examples_dir / "discrete_quadratic.stab", "--validate"
    )
    assert code == 0
    assert "validation: passed=yes delta=0.05 samples=100 min_alpha=0.693147180475" in out
    assert "certified=yes" in out


# a perfbench draw whose closed loop lands on x* exactly within the horizon
EXACT_ARRIVAL_SYSTEM = """mode continuous
states 2
controls 2
eq x = -0.371 -0.933
eq u = -0.331 -0.473
f1 = -1.492*(x1 + 0.371) - 0.631*(x2 + 0.933) + 1.938*(u1 + 0.331) + 0.381*sin((x1 + 0.371))*(x2 + 0.933)
f2 = -1.283*(x2 + 0.933) - 0.691*(u2 + 0.473) - 0.274*(x1 + 0.371)^3
"""


def test_validation_of_a_loop_that_reaches_the_equilibrium_exactly(run_cli, tmp_path):
    path = tmp_path / "exact_arrival.stab"
    path.write_text(EXACT_ARRIVAL_SYSTEM)
    code, out, err = run_cli("synthesize", path, "--force", "--validate")
    assert (code, err) == (0, "")
    assert "validation: passed=yes delta=0.05 samples=100 min_alpha=2.47303537842\n" in out
    assert "failure at" not in out


def test_synthesize_pole_errors(run_cli, examples_dir):
    code, _, err = run_cli("synthesize", examples_dir / "planar_cubic.stab", "--poles=abc")
    assert code == 2
    assert "could not parse pole list" in err
    code, _, err = run_cli("synthesize", examples_dir / "planar_cubic.stab", "--poles=-1")
    assert code == 2
    assert "expected 2 poles for the controllable block" in err


@pytest.mark.parametrize("name, poles", [
    ("planar_cubic", "nan,-1"),
    ("planar_cubic", "-1,inf"),
    ("discrete_quadratic", "nan"),
])
def test_synthesize_nonfinite_poles_exit_two(run_cli, examples_dir, name, poles):
    code, out, err = run_cli("synthesize", examples_dir / f"{name}.stab", f"--poles={poles}")
    assert (code, out) == (2, "")
    assert err == f"error: pole list {poles!r} must hold finite numbers\n"


def test_hautus_at_zero_agrees_with_the_openness_rank(run_cli, tmp_path):
    # x1 decays at rate 5e-9 and no input reaches it; [A | B] = diag(-5e-9, 0) | e2
    path = tmp_path / "slow_mode.stab"
    path.write_text(
        "mode continuous\nstates 2\ncontrols 1\neq x = 0 0\neq u = 0\n"
        "f1 = -5e-9*x1\nf2 = u1\n"
    )
    code, out, _ = run_cli("analyze", path)
    assert code == 0
    assert "jacobian_rank=2/2 linearly_open=yes" in out
    assert "hautus failures: -5e-09\n" in out
    code, out, _ = run_cli("analyze", path, "--tol-class", "0")
    assert code == 0
    assert "unstable: 0\n" in out
    assert "asymptotic_holds=yes" in out
    assert "not stabilizable" not in out


# --- covering -----------------------------------------------------------

def test_covering_table_cubic(run_cli, examples_dir):
    code, out, _ = run_cli(
        "covering", examples_dir / "cubic_input.stab", "--radius", "0.1,0.05,0.025"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["r", "kappa", "kappa/r"]
    rows = [[float(v) for v in line.split()] for line in lines[1:4]]
    for (r, kappa, ratio), want_r in zip(rows, (0.1, 0.05, 0.025)):
        assert r == want_r
        assert kappa == pytest.approx(want_r ** 2, rel=0.5)
        assert ratio == pytest.approx(kappa / r, rel=1e-9)
    assert rows[0][2] > rows[1][2] > rows[2][2]
    assert lines[4].startswith("suspect: kappa decreased by more than 2x")


@pytest.mark.parametrize("radius", ["0.025,0.05,0.1", "0.05,0.1,0.025", "0.1,0.05,0.025"])
def test_covering_suspect_line_does_not_depend_on_the_radius_order(run_cli, examples_dir,
                                                                   radius):
    # kappa at r = 0.1 over kappa at r = 0.025 is about 16, whatever order lists them
    code, out, _ = run_cli("covering", examples_dir / "cubic_input.stab", "--radius", radius)
    assert code == 0
    lines = out.strip().splitlines()
    assert [float(line.split()[0]) for line in lines[1:4]] == [float(r) for r in
                                                               radius.split(",")]
    assert lines[4].startswith("suspect: kappa decreased by more than 2x")


def test_covering_rate_shrinking_like_r_is_suspect(run_cli, tmp_path):
    # the complex square z -> z^2 keeps kappa/r near 1 while kappa itself halves with r
    path = tmp_path / "complex_square.stab"
    path.write_text(
        "mode continuous\nstates 2\ncontrols 1\neq x = 0 0\neq u = 0\n"
        "f1 = x1^2 - u1^2\nf2 = 2*x1*u1\n"
    )
    code, out, _ = run_cli("covering", path, "--radius", "0.1,0.05,0.025")
    assert code == 0
    lines = out.strip().splitlines()
    rows = [[float(v) for v in line.split()] for line in lines[1:4]]
    for (r, kappa, ratio), want_r in zip(rows, (0.1, 0.05, 0.025)):
        assert kappa == pytest.approx(want_r, rel=0.01)
        assert ratio == pytest.approx(1.0, rel=0.01)
    assert lines[4].startswith("suspect: kappa decreased by more than 2x")


def test_covering_identity_not_suspect(run_cli, examples_dir):
    code, out, _ = run_cli(
        "covering", examples_dir / "identity_input.stab", "--radius", "0.1,0.05"
    )
    assert code == 0
    assert "suspect" not in out
    rows = [[float(v) for v in line.split()] for line in out.strip().splitlines()[1:]]
    assert all(kappa >= 0.9 for _, kappa, _ in rows)


def test_covering_input_errors(run_cli, examples_dir):
    code, _, err = run_cli(
        "covering", examples_dir / "three_state_mixed.stab", "--radius", "0.1"
    )
    assert code == 2
    assert "n + m <= 3" in err
    code, _, err = run_cli(
        "covering", examples_dir / "cubic_input.stab", "--radius", "0.1,abc"
    )
    assert code == 2
    assert "could not parse number list" in err


# --- simulate -----------------------------------------------------------

def test_simulate_stdout_csv_and_summary(run_cli, examples_dir):
    code, out, err = run_cli(
        "simulate", examples_dir / "planar_cubic.stab",
        "--feedback=-x1 - x2", "--x0", "0.1,0", "--horizon", "10",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 10002
    assert "samples=10001 final_norm=0.000587002942714 diverged=no" in err
    assert "alpha_hat=0.50017737079" in err
    assert "certified=yes" in err


def test_simulate_out_file(run_cli, examples_dir, tmp_path):
    target = tmp_path / "traj.csv"
    code, out, err = run_cli(
        "simulate", examples_dir / "planar_cubic.stab",
        "--feedback=-x1 - x2", "--x0", "0.1,0", "--horizon", "1", "--out", target,
    )
    assert code == 0
    assert err == ""
    assert target.read_text().startswith("t,x1,x2\n")
    assert "final_norm=" in out and "diverged=no" in out


def test_simulate_accepts_synthesized_report(run_cli, examples_dir, tmp_path):
    _, raw, _ = run_cli("synthesize", examples_dir / "planar_cubic.stab", "--json")
    report_path = tmp_path / "report.json"
    report_path.write_text(raw)
    code, out, err = run_cli(
        "simulate", examples_dir / "planar_cubic.stab",
        "--gain", report_path, "--x0", "0.1,0", "--horizon", "5",
    )
    assert code == 0
    final = [float(v) for v in out.strip().splitlines()[-1].split(",")[1:]]
    assert math.hypot(*final) < 1e-2
    assert "diverged=no" in err


def test_simulate_accepts_bare_gain_file(run_cli, examples_dir, tmp_path):
    gain_path = tmp_path / "gain.json"
    gain_path.write_text(json.dumps({"k": [[-1.5, -2.5]]}))
    code, _, err = run_cli(
        "simulate", examples_dir / "planar_cubic.stab",
        "--gain", gain_path, "--x0", "0.05,0", "--horizon", "1",
    )
    assert code == 0
    assert "diverged=no" in err


def test_simulate_gain_shape_mismatch(run_cli, examples_dir, tmp_path):
    gain_path = tmp_path / "bad.json"
    gain_path.write_text(json.dumps({"k": [[-1.5]]}))
    code, _, err = run_cli(
        "simulate", examples_dir / "planar_cubic.stab",
        "--gain", gain_path, "--x0", "0.1,0",
    )
    assert code == 2
    assert "does not match the system" in err


# a report writes a non-finite entry as null; 1e400 and a 400-digit integer read inf
@pytest.mark.parametrize("k", [
    "[[null, 1]]", "[[NaN, 1]]", "[[1e400, 1]]",
    pytest.param("[[1" + "0" * 400 + ", 1]]", id="[[1e400 as an integer, 1]]"),
    '{"a": 1}', '[["1", 1]]', "[[true, 1]]", "[[1, [2]]]",
])
def test_simulate_gain_that_is_not_finite_numbers_exits_two(run_cli, examples_dir, tmp_path, k):
    gain_path = tmp_path / "gain.json"
    gain_path.write_text('{"k": ' + k + "}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("simulate", examples_dir / "planar_cubic.stab",
                                 "--gain", gain_path, "--x0", "0.1,0", "--horizon", "0.01")
    assert (code, out) == (2, "")
    assert err == (f"error: {gain_path}: "
                   "the gain matrix under 'k' must hold finite numbers only\n")


def test_synthesize_single_input_overflow_exits_two(run_cli, tmp_path):
    path = tmp_path / "double_integrator.stab"
    path.write_text("mode continuous\nstates 2\ncontrols 1\neq x = 0 0\neq u = 0\n"
                    "f1 = x2\nf2 = u1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        overflow = run_cli("synthesize", path, "--poles=-1e160,-2e160")
        inaccurate = run_cli("synthesize", path, "--poles=-1e150,-2e150")
    assert overflow == (2, "", "error: single-input placement overflows the float range: "
                               "Ackermann's formula gave a non-finite gain\n")
    assert inaccurate == (2, "", "error: single-input placement lost accuracy\n")


def test_simulate_discrete_steps(run_cli, examples_dir):
    code, out, err = run_cli(
        "simulate", examples_dir / "discrete_quadratic.stab",
        "--feedback=-x1", "--x0", "0.2", "--steps", "30",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,x1"
    assert len(lines) == 32
    assert abs(float(lines[-1].split(",")[1])) < 1e-6
    assert "certified=yes" in err


def test_simulate_measures_decay_to_the_equilibrium(run_cli, examples_dir, tmp_path):
    moved = tmp_path / "planar_translated.stab"
    moved.write_text("mode continuous\nstates 2\ncontrols 1\neq x = 1 0\neq u = 0\n"
                     "f1 = (x1 - 1)^3 + x2\nf2 = u1\n")
    gain_path = tmp_path / "gain.json"
    gain_path.write_text(json.dumps({"k": [[-1.5, -2.5]]}))

    def summary(path, x0):
        code, _, err = run_cli("simulate", path, "--gain", gain_path, "--x0", x0,
                               "--horizon", "10", "--dt", "1e-2")
        assert code == 0
        return dict(item.split("=") for item in err.split())

    ref = summary(examples_dir / "planar_cubic.stab", "0.1,0")
    got = summary(moved, "1.1,0")
    assert got["certified"] == "yes" and got["diverged"] == "no"
    assert float(got["alpha_hat"]) == pytest.approx(float(ref["alpha_hat"]), abs=1e-6)
    assert float(got["final_norm"]) == pytest.approx(float(ref["final_norm"]), abs=1e-9)


def test_simulate_feedback_of_the_wrong_length_exits_two(run_cli, examples_dir):
    code, out, err = run_cli("simulate", examples_dir / "planar_cubic.stab",
                             "--feedback", "-x1; -x2", "--x0", "0.1,0")
    assert (code, out, err) == (2, "", "error: expected 1 feedback components, got 2\n")


def test_simulate_x0_length_error(run_cli, examples_dir):
    code, _, err = run_cli(
        "simulate", examples_dir / "planar_cubic.stab", "--feedback=-x1", "--x0", "0.1"
    )
    assert code == 2
    assert "--x0 needs 2 values, got 1" in err


def test_simulate_start_whose_distance_overflows_warns_of_nothing(run_cli, examples_dir):
    # 1e308 squared overflows: both distances read inf, without numpy's overflow warning
    # (a traceback under -W error)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("simulate", examples_dir / "planar_cubic.stab",
                                 "--feedback=-1.5*x1 - 2.5*x2", "--x0", "1e308,1e308")
    assert (code, out) == (0, "t,x1,x2\n0,1e+308,1e+308\n")
    assert err == "samples=1 final_norm=inf diverged=yes\n"


@pytest.mark.parametrize("example", ["planar_cubic", "discrete_quadratic"])
def test_validation_radius_whose_distance_overflows_warns_of_nothing(run_cli, examples_dir,
                                                                      example):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("synthesize", examples_dir / f"{example}.stab", "--validate",
                                 "--delta", "1e200", "--samples", "3", "--json")
    assert (code, err) == (0, "")
    validation = json.loads(out)["validation"]
    assert not validation["passed"] and len(validation["failures"]) == 3


# the square of 1e-320 underflows, so that start is as far from x* as 0,0
@pytest.mark.parametrize("x0", ["0,0", "1e-320,0"])
def test_simulate_from_the_equilibrium_exits_two_before_writing(run_cli, examples_dir, x0):
    code, out, err = run_cli("simulate", examples_dir / "planar_cubic.stab",
                             "--feedback=-x1-2*x2", "--x0", x0, "--horizon", "0.01")
    assert (code, out) == (2, "")
    assert err == "error: --x0 lies on the equilibrium x* (its distance rounds to 0)\n"


def test_validation_radius_that_rounds_onto_the_equilibrium_exits_two(run_cli, examples_dir):
    code, out, err = run_cli("synthesize", examples_dir / "planar_cubic.stab", "--validate",
                             "--delta", "1e-320")
    assert (code, out) == (2, "")
    assert err == "error: delta=1e-320 puts a start on x* (its distance rounds to 0)\n"


# --- shared error handling ----------------------------------------------

def test_missing_file_exits_two(run_cli, tmp_path):
    code, _, err = run_cli("analyze", tmp_path / "missing.stab")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_file_reports_line(run_cli, tmp_path):
    path = tmp_path / "broken.stab"
    path.write_text("mode continuous\nstates 2\ncontrols 1\nbogus line\n")
    code, _, err = run_cli("analyze", path)
    assert code == 2
    assert err == "error: line 4: unrecognized directive 'bogus'\n"



def test_evaluation_error_exits_two(run_cli, tmp_path):
    # x1^0.5 evaluates at 0 but its derivative there does not exist
    path = tmp_path / "sqrt.stab"
    path.write_text("mode continuous\nstates 1\ncontrols 1\neq x = 0\neq u = 0\n"
                    "f1 = x1^0.5 + u1\n")
    code, out, err = run_cli("analyze", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


EXAMPLE_TEXTS = [path.read_bytes() for path in
                 sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.stab"))]


def _drop_line(draw, data):
    lines = data.split(b"\n")
    del lines[draw(st.integers(0, len(lines) - 1))]
    return b"\n".join(lines)


def _duplicate_line(draw, data):
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    return b"\n".join(lines[:i + 1] + lines[i:])


def _swap_tokens(draw, data):
    tokens = data.split(b" ")
    i, j = (draw(st.integers(0, len(tokens) - 1)) for _ in range(2))
    tokens[i], tokens[j] = tokens[j], tokens[i]
    return b" ".join(tokens)


def _truncate(draw, data):
    return data[:draw(st.integers(0, len(data)))]


def _insert_stray_bytes(draw, data):
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]


@st.composite
def _mutated_example(draw):
    data = draw(st.sampled_from(EXAMPLE_TEXTS))
    mutations = st.sampled_from([_drop_line, _duplicate_line, _swap_tokens, _truncate,
                                 _insert_stray_bytes])
    for mutate in draw(st.lists(mutations, min_size=1, max_size=3)):
        data = mutate(draw, data)
    return data


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_mutated_example())
def test_fuzzed_system_files_never_traceback(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed.stab"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["analyze", str(path)])
    assert code in {0, 2, 3}
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _long_sum_system(tmp_path, terms):
    # f1 = -x1 + x2 behind a zero times a left-nested sum of the given length
    path = tmp_path / f"sum_{terms}.stab"
    path.write_text("mode continuous\nstates 2\ncontrols 1\neq x = 0 0\neq u = 0\n"
                    f"f1 = -x1 + 0*({' + '.join(['x1'] * terms)}) + x2\nf2 = u1\n")
    return path


@pytest.mark.parametrize("argv", [
    ["synthesize", "--validate", "--samples=4", "--horizon=2", "--dt=0.01"],
    ["simulate", "--feedback=-x1 - 2*x2", "--x0=0.1,0", "--horizon=1", "--dt=0.1"],
    ["covering", "--radius=0.1", "--axis-points=3", "--directions=4", "--levels=1"],
])
def test_a_250_term_sum_runs_through_every_batch_evaluation(run_cli, tmp_path, argv):
    # more nested operators than CPython's parser takes in one source expression
    code, out, err = run_cli(argv[0], _long_sum_system(tmp_path, 250), *argv[1:])
    assert code == 0, err
    assert out and "error" not in err


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["synthesize", "--validate"],
    ["covering", "--radius=0.1"],
    ["simulate", "--feedback=-x1", "--x0=0.1,0"],
])
def test_nesting_beyond_the_recursion_limit_exits_two(run_cli, tmp_path, argv):
    code, out, err = run_cli(argv[0], _long_sum_system(tmp_path, 3000), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: an expression is nested too deeply to evaluate")
    assert err.count("\n") == 1


def test_deeply_nested_feedback_exits_two(run_cli, examples_dir):
    feedback = "--feedback=" + " + ".join(["0*x1"] * 3000)
    code, out, err = run_cli("simulate", examples_dir / "planar_cubic.stab", feedback,
                             "--x0=0.1,0")
    assert (code, out) == (2, "")
    assert err.startswith("error: an expression is nested too deeply to evaluate")


@pytest.mark.parametrize("feedback, reason", [
    ("1/0", "division by zero"),
    ("0^-1", "zero base raised to a negative power"),
    ("10^400", "overflow in power"),
    ("x1/0", "division by zero"),
])
def test_feedback_undefined_at_the_equilibrium_exits_two(run_cli, examples_dir, feedback,
                                                         reason):
    code, out, err = run_cli("simulate", examples_dir / "planar_cubic.stab",
                             f"--feedback={feedback}", "--x0", "0.1,0")
    assert (code, out) == (2, "")
    assert err == f"error: feedback component 1 is undefined at x*: {reason}\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--json"],
                                  ["synthesize", "--validate"]])
def test_nonfinite_equilibrium_exits_two(run_cli, tmp_path, value, argv):
    # f1 = u1 has a zero residual at any x*, so only the finiteness check stops it
    path = tmp_path / "eq.stab"
    path.write_text(f"mode continuous\nstates 1\ncontrols 1\neq x = {value}\neq u = 0\n"
                    "f1 = u1\n")
    assert run_cli(argv[0], path, *argv[1:]) == (
        2, "", "error: equilibrium values must be finite\n")


@pytest.mark.parametrize("command, flag", [
    ("analyze", "--tol-rank"),
    ("analyze", "--tol-class"),
    ("analyze", "--margin"),
    ("analyze", "--span-radius"),
    ("synthesize", "--delta"),
    ("synthesize", "--horizon"),
    ("synthesize", "--dt"),
    ("simulate", "--horizon"),
    ("simulate", "--dt"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_numeric_flags_exit_two(run_cli, capsys, examples_dir, command, flag, value):
    argv = [command, examples_dir / "planar_cubic.stab", f"{flag}={value}"]
    if command == "synthesize":
        argv.append("--validate")
    if command == "simulate":
        argv += ["--feedback=-x1 - x2", "--x0", "0.1,0"]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"error: argument {flag}: must be a finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["synthesize", "--validate", "--delta=0"],
    ["synthesize", "--validate", "--horizon=-1"],
    ["synthesize", "--validate", "--dt=0"],
    ["simulate", "--feedback=-x1 - x2", "--x0", "0.1,0", "--dt=-1e-3"],
    ["analyze", "--span-radius=0"],
    ["covering", "--radius", "0"],
])
def test_nonpositive_numeric_flags_exit_two(run_cli, examples_dir, argv):
    code, out, err = run_cli(argv[0], examples_dir / "planar_cubic.stab", *argv[1:])
    assert code == 2
    assert err.startswith("error: ") and "must be positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, message", [
    ("--span-radius=-1", "span_radius must be positive and finite"),
    ("--span-radius=0", "span_radius must be positive and finite"),
    ("--seed=-1", "seed must be a non-negative integer"),
])
@pytest.mark.parametrize("example", ["cubic_input", "planar_cubic"])
def test_span_flags_are_checked_whether_or_not_the_span_is_estimated(
        run_cli, examples_dir, example, flag, message):
    # cubic_input (u1^3) is not control-affine, so its analysis never draws a span sample
    assert run_cli("analyze", examples_dir / f"{example}.stab", flag) == (
        2, "", f"error: {message}\n")


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_discrete_validation_steps_exit_two(run_cli, examples_dir, steps):
    assert run_cli("synthesize", examples_dir / "discrete_quadratic.stab", "--validate",
                   f"--steps={steps}") == (2, "", "error: steps must be positive\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "planar_cubic", "--feedback=-x1 - x2", "--x0", "0.1,0", "--horizon=1e12"],
    ["synthesize", "planar_cubic", "--validate", "--horizon=1e12"],
    ["synthesize", "discrete_quadratic", "--validate", "--steps=1000000000000"],
])
def test_oversized_time_grid_exits_two(run_cli, examples_dir, argv):
    # the grid is checked against the storage cap before anything is allocated
    command, name, *flags = argv
    code, out, err = run_cli(command, examples_dir / f"{name}.stab", *flags)
    assert (code, out) == (2, "")
    assert re.match(r"error: the time grid of 1e\+1[25] points .* exceeds the limit", err)


@pytest.mark.parametrize("flag, message", [
    ("--directions=0", "directions >= 1, got 0"),
    ("--levels=0", "radial_levels >= 1, got 0"),
    ("--axis-points=0", "axis_points >= 2, got 0"),
    ("--axis-points=1", "axis_points >= 2, got 1"),
])
def test_degenerate_covering_grid_exits_two(run_cli, examples_dir, flag, message):
    # an empty target set or a one-point axis would pass the covering search vacuously
    code, out, err = run_cli("covering", examples_dir / "identity_input.stab",
                             "--radius", "0.1", flag)
    assert (code, out) == (2, "")
    assert err == f"error: covering grid needs {message}\n"


def test_oversized_covering_grid_exits_two(run_cli, examples_dir, monkeypatch):
    # 1000^3 points x 3 coordinates is checked against the storage cap, never allocated
    monkeypatch.setattr(openness, "_cube_grid", lambda *args: pytest.fail("grid allocated"))
    start = time.perf_counter()
    code, out, err = run_cli("covering", examples_dir / "planar_cubic.stab",
                             "--radius", "0.1", "--axis-points", "1000")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error: covering grid of 1000^3 points x 3 coordinates exceeds the limit")


@pytest.mark.parametrize("name, flag, target_set", [
    ("planar_cubic", "--directions=1000000000", "4 levels x 1000000000 directions x 3"),
    ("planar_cubic", "--levels=1000000000", "1000000000 levels x 48 directions x 3"),
    ("identity_input", "--levels=1000000000", "1000000000 levels x 2 directions x 2"),
])
def test_oversized_covering_target_set_exits_two(run_cli, examples_dir, monkeypatch,
                                                 name, flag, target_set):
    # the target set is checked against the storage cap before any of it is allocated
    monkeypatch.setattr(openness, "_covering_directions",
                        lambda *args: pytest.fail("directions allocated"))
    start = time.perf_counter()
    code, out, err = run_cli("covering", examples_dir / f"{name}.stab", "--radius", "0.1", flag)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith(f"error: covering target set of {target_set} coordinates exceeds "
                          "the limit of 8388608 stored numbers")


def test_one_state_covering_ignores_an_oversized_direction_count(run_cli, examples_dir):
    # a 1-state system targets the two signs, so the count never reaches the cap
    path = examples_dir / "identity_input.stab"
    table = run_cli("covering", path, "--radius", "0.1,0.05", "--directions", "48")
    assert table[0] == 0
    assert run_cli("covering", path, "--radius", "0.1,0.05",
                   "--directions", "1000000000") == table


@pytest.mark.parametrize("radius", [math.nextafter(openness.MIN_RADIUS, 0.0),
                                    math.nextafter(openness.MAX_RADIUS, math.inf)])
def test_covering_radius_outside_the_float_range_exits_two(run_cli, examples_dir, radius):
    code, out, err = run_cli("covering", examples_dir / "identity_input.stab",
                             "--radius", f"0.1,{radius!r}")
    assert (code, out) == (2, "")
    assert err.startswith(
        f"error: radius must be positive and within [{openness.MIN_RADIUS!r}, "
        f"{openness.MAX_RADIUS!r}], got")


@pytest.mark.parametrize("argv", [
    ["covering", "--radius", "0.1,inf"],
    ["simulate", "--feedback=-x1 - x2", "--x0", "nan,0"],
])
def test_nonfinite_number_lists_exit_two(run_cli, examples_dir, argv):
    code, out, err = run_cli(argv[0], examples_dir / "planar_cubic.stab", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must hold finite numbers" in err


@pytest.mark.parametrize("flag", ["--tol-rank=-1", "--tol-class=-1e-8"])
def test_negative_tolerances_exit_two(run_cli, examples_dir, flag):
    # a negative rank cutoff would read the rank-0 cubic_input as stabilizable
    code, out, err = run_cli("analyze", examples_dir / "cubic_input.stab", flag)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be non-negative" in err


@pytest.mark.parametrize("command", ["analyze", "synthesize"])
def test_negative_margin_exits_two(run_cli, examples_dir, command):
    # unstable_drift fails the Hautus test, which --margin -5 would let R1 and R3 override
    code, out, err = run_cli(command, examples_dir / "unstable_drift.stab", "--margin", "-5")
    assert (code, out) == (2, "")
    assert err == "error: margin must be non-negative and finite\n"


@pytest.mark.parametrize("command", ["analyze", "synthesize"])
def test_overflowing_kalman_matrix_exits_two(run_cli, tmp_path, command):
    # A^2 B holds 1e400: an error naming the Kalman matrix, not numpy's overflow warning
    path = tmp_path / "big.stab"
    path.write_text("mode continuous\nstates 3\ncontrols 1\neq x = 0 0 0\neq u = 0\n"
                    "f1 = 1e200*x2\nf2 = 1e200*x3\nf3 = u1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(command, path)
    assert (code, out) == (2, "")
    assert err == "error: the Kalman matrix [B, AB, ..., A^(n-1) B] overflows\n"


OVERFLOWING_RANK_SYSTEMS = {
    # sigma_max of [A | B] is inf: an infinite rank cutoff would read jacobian_rank 0 (R4)
    "rank": ("f1 = 1.5e308*x1 + 1.5e308*u1", "a singular value overflows the float range"),
    # [A | B] = 0 is not onto, so f is sampled, and its values there overflow: span_dim
    # would read 0 (R6)
    "span": ("f1 = x1*u1*1e308*1e308",
             "field evaluation produced non-finite values in the sample ball"),
    # [A | B] is fine, [A - lam I | B] at lam = 8.5e307 is not: a false Hautus failure
    "pencil": ("f1 = 8.5e307*x1 + 8.5e307*x2\nf2 = -8.5e307*x2 + u1",
               "a singular value overflows the float range"),
    # [A | B] is fine, [A - lam I | B] at lam = 1e308 holds -2e308
    "pencil_entry": ("f1 = 1e308*x1 + u1\nf2 = -1e308*x2 + u1",
                     "matrix contains non-finite entries"),
    # not control-affine, so no span estimate; sigma_max of [B, AB] is inf: kalman_rank 0
    "kalman": ("f1 = x1 + 1.2e308*sin(u1)\nf2 = x1",
               "a singular value of the Kalman matrix overflows the float range"),
}


@pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--json"], ["synthesize", "--force"]],
                         ids=["text", "json", "force"])
@pytest.mark.parametrize("case", sorted(OVERFLOWING_RANK_SYSTEMS))
def test_rank_of_an_overflowing_matrix_exits_two(run_cli, tmp_path, case, argv):
    field, message = OVERFLOWING_RANK_SYSTEMS[case]
    n = field.count("\n") + 1
    path = tmp_path / "big.stab"
    path.write_text(f"mode continuous\nstates {n}\ncontrols 1\neq x = {' '.join(['0'] * n)}\n"
                    f"eq u = 0\n{field}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv[0], path, *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_an_open_system_whose_values_overflow_near_the_equilibrium_is_not_sampled(run_cli,
                                                                                 tmp_path):
    # [A | B] is onto, so span_dim is n without sampling f, whose values near x* overflow
    path = tmp_path / "big.stab"
    path.write_text("mode continuous\nstates 1\ncontrols 1\neq x = 0\neq u = 0\n"
                    "f1 = 1e308*x1 + 1e308*u1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("analyze", path)
    assert (code, err) == (0, "")
    assert "structure: control-affine (driftless=no, span_dim=1, input_rank=1)\n" in out


@pytest.mark.parametrize("command", ["analyze", "synthesize"])
def test_span_samples_is_not_an_option(run_cli, capsys, examples_dir, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, examples_dir / "planar_cubic.stab", "--span-samples=64")
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --span-samples=64" in capsys.readouterr().err


def test_huge_span_sample_count_exits_two_without_allocating(tmp_path):
    # f1 = x1*u1 has [A | B] = 0, so f is sampled: 64 points x 3 000 001 values would
    # take 1.5 GB for the u draws alone; a 1.5 GB address-space limit turns an attempt
    # to allocate them, or an (n + m)^2 identity in the Jacobian, into a MemoryError
    m = 3_000_000
    path = tmp_path / "wide.stab"
    path.write_text(f"mode continuous\nstates 1\ncontrols {m}\neq x = 0\n"
                    f"eq u = {' '.join(['0'] * m)}\nf1 = x1*u1\n")
    script = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, hard))\n"
        "from stabkit.cli import main\n"
        f"sys.exit(main(['analyze', {str(path)!r}]))\n"
    )
    src = str(Path(stabkit.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (
        "error: the span estimate's 64 points x 3000001 values exceed the limit "
        "of 8388608 stored numbers\n")


TWO_INPUT_SYSTEM = """mode continuous
states 3
controls 2
eq x = 0 0 0
eq u = 0 0
f1 = x2 + x1^2
f2 = x3 + u1
f3 = x1 + u2
"""


def test_analyze_and_synthesize_load_no_scipy(examples_dir, tmp_path):
    path = str(examples_dir / "planar_cubic.stab")
    discrete = str(examples_dir / "discrete_quadratic.stab")
    two_input = tmp_path / "two_input.stab"
    two_input.write_text(TWO_INPUT_SYSTEM)
    # validation of the 2-state system draws its starts through the inverse normal;
    # np.unique loads numpy.ma on numpy >= 2, while numpy 1.24 imports it with numpy.
    # Tied pole lists give two achieved poles one nearest target, which the placement
    # gate must match without an assignment solver
    script = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "from stabkit.cli import main\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [main(['analyze', {path!r}]), main(['analyze', {path!r}, '--json']),\n"
        f"             main(['synthesize', {path!r}, '--json']),\n"
        f"             main(['synthesize', {str(two_input)!r}, '--json']),\n"
        f"             main(['synthesize', {path!r}, '--validate']),\n"
        f"             main(['synthesize', {discrete!r}, '--validate', '--json']),\n"
        f"             main(['synthesize', {path!r}, '--poles=-1,-1']),\n"
        f"             main(['synthesize', {str(two_input)!r}, '--poles=-1,-1,-2']),\n"
        f"             main(['covering', {path!r}, '--radius', '0.1']),\n"
        f"             main(['simulate', {path!r}, '--feedback=-x1 - x2', '--x0', '0.1,0',\n"
        "                   '--horizon', '1'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "      sorted(m for m in set(sys.modules) - before if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    src = str(Path(stabkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0] [] []"


def test_synthesize_ranks_the_placed_block_under_tol_rank(run_cli, tmp_path):
    # B = (1, 1e-12): the Kalman matrix has singular values near 1.4 and 7e-13, full
    # rank under --tol-rank 1e-14 but not under the default cutoff 1e-9 * 1.4 * 2
    path = tmp_path / "weak_input.stab"
    path.write_text("mode continuous\nstates 2\ncontrols 1\neq x = 0 0\neq u = 0\n"
                    "f1 = x1 + u1\nf2 = 2*x2 + 1e-12*u1\n")
    code, out, _ = run_cli("analyze", path, "--tol-rank", "1e-14")
    assert code == 0
    assert "hautus: asymptotic_holds=yes kalman_rank=2" in out
    code, out, err = run_cli("synthesize", path, "--tol-rank", "1e-14", "--force")
    assert (code, err) == (0, "")
    assert "achieved poles: -3.5 -3\n" in out
    code, out, err = run_cli("synthesize", path, "--force")
    assert (code, out) == (3, "")
    assert err == "error: uncontrollable unstable mode at lambda=2\n"


def test_nonconverging_eigenvalues_exit_two(run_cli, examples_dir, monkeypatch):
    # numpy's LinAlgError is a ValueError, so it ends in exit 2 like any other bad input
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    code, out, err = run_cli("analyze", examples_dir / "planar_cubic.stab")
    assert (code, out) == (2, "")
    assert err == "error: Eigenvalues did not converge\n"


def test_synthesize_classifies_with_the_tol_class_flag(run_cli, tmp_path):
    # -5e-9 is unstable under the default class tolerance and stable under 0
    path = tmp_path / "slow_decay.stab"
    path.write_text("mode continuous\nstates 2\ncontrols 1\neq x = 0 0\neq u = 0\n"
                    "f1 = -5e-9*x1\nf2 = u1\n")
    code, out, err = run_cli("analyze", path, "--tol-class", "0")
    assert code == 0
    assert "asymptotic_holds=yes" in out and "verdict: EXP_STABILIZABLE_CONT_FEEDBACK" in out
    code, out, err = run_cli("synthesize", path, "--tol-class", "0")
    assert (code, err) == (0, "")
    assert "achieved poles: -1.000000005 -5e-09" in out
    code, out, err = run_cli("synthesize", path)
    assert code == 3
    assert err == "error: uncontrollable unstable mode at lambda=-5e-09\n"


def test_field_undefined_at_the_equilibrium_exits_two(run_cli, tmp_path):
    path = tmp_path / "pole.stab"
    path.write_text("mode continuous\nstates 1\ncontrols 1\neq x = 0\neq u = 0\n"
                    "f1 = 1/x1 + u1\n")
    assert run_cli("analyze", path) == (
        2, "", "error: evaluation failed at the equilibrium: division by zero\n")


def test_validation_with_no_samples_exits_two(run_cli, examples_dir):
    assert run_cli("synthesize", examples_dir / "planar_cubic.stab", "--validate",
                   "--samples", "0") == (2, "", "error: need at least one sample\n")


def test_covering_with_an_empty_radius_list_exits_two(run_cli, examples_dir):
    assert run_cli("covering", examples_dir / "cubic_input.stab", "--radius", ",") == (
        2, "", "error: --radius expects at least one value\n")


@pytest.mark.parametrize("doc", ['{"gain": null}', '{"gain": {"x": 1}}', '{"poles": [1]}',
                                 "[[-1.5, -2.5]]"])
def test_simulate_gain_file_without_a_gain_matrix_exits_two(run_cli, examples_dir, tmp_path,
                                                            doc):
    gain_path = tmp_path / "gain.json"
    gain_path.write_text(doc)
    assert run_cli("simulate", examples_dir / "planar_cubic.stab", "--gain", gain_path,
                   "--x0", "0.1,0") == (
        2, "", f"error: {gain_path} does not contain a gain matrix under 'k'\n")


def test_version_flag(run_cli, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("stabkit ")


def test_unknown_command_exits_two(run_cli, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2
    capsys.readouterr()
