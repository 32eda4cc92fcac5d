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
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stabkit
from stabkit import openness
from stabkit.cli import main
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
    assert lines[4].startswith("suspect: kappa/r decreased by more than 2x")


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


def test_simulate_x0_length_error(run_cli, examples_dir):
    code, _, err = run_cli(
        "simulate", examples_dir / "planar_cubic.stab", "--feedback=-x1", "--x0", "0.1"
    )
    assert code == 2
    assert "--x0 needs 2 values, got 1" in err


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


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_span_samples_below_one_exit_two(run_cli, examples_dir, samples):
    code, out, err = run_cli("analyze", examples_dir / "planar_cubic.stab",
                             f"--span-samples={samples}")
    assert (code, out) == (2, "")
    assert err == "error: span_samples must be at least 1\n"


def test_huge_span_sample_count_exits_two_without_allocating(examples_dir):
    # 2 fields x 1e8 points x 2 values would take 3 GiB; a 1.5 GB address-space
    # limit turns an attempt to allocate it into a MemoryError traceback
    script = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, hard))\n"
        "from stabkit.cli import main\n"
        f"sys.exit(main(['analyze', {str(examples_dir / 'planar_cubic.stab')!r},\n"
        "                '--span-samples', '100000000']))\n"
    )
    src = str(Path(stabkit.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (
        "error: the span estimate's 2 fields x 100000000 points x 2 values exceed the limit "
        "of 8388608 stored numbers; use fewer span samples\n")


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
    # validation of the 2-state system draws its starts through the inverse normal
    script = (
        "import contextlib, io, sys\n"
        "from stabkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['analyze', {path!r}]), main(['analyze', {path!r}, '--json']),\n"
        f"             main(['synthesize', {path!r}, '--json']),\n"
        f"             main(['synthesize', {str(two_input)!r}, '--json']),\n"
        f"             main(['synthesize', {path!r}, '--validate']),\n"
        f"             main(['synthesize', {discrete!r}, '--validate', '--json'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(stabkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 0, 0, 0, 0, 0] []"


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
