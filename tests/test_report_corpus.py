"""A pinned corpus of `stabkit analyze` and `stabkit synthesize` reports.

Each case is one in-process CLI run, pinned as its exit code and the sha256
of its stdout and stderr in ``report_corpus.json``.  A change that moves any
report's digits, even uniformly, shows up here as a moved case.

The systems are the examples and perfbench's ``cold_cli_systems`` and
``validate_systems`` for seeds 0-2, each under every flag set below.  Text
reports are pinned for all of them.  Full-precision JSON is pinned for the
examples only: on seed 0's chain_41 its last digits depend on the OpenBLAS
kernel (``OPENBLAS_CORETYPE=SkylakeX`` differs from Prescott, Haswell and
Zen), while the 12-digit text agrees under all four.

synthesize text is pinned for every system with its default flags, with
``--margin 0.3`` and with ``--force`` (exit 3 included), and with
``--validate`` on the examples.  Its ``u{i} =`` lines print the gain in full
precision and its validation residual is a least-squares fit, and both move
between OpenBLAS kernels (three_state_mixed's ``u1 =`` under Prescott,
identity_input's residual across all three kernel families), so these two
are masked before hashing; the masked text agrees under all four kernels.
Whether numpy 1.24 prints the same reports is unverified.

The 240 analyze and 132 synthesize runs take about 3 s.

perfbench's ``large_systems`` for seeds 0-2 (72 systems, n = 10-50) are
pinned in ``large_verdicts.json`` by the exit code of a default ``analyze``
and the sha256 of its verdict lines only: the rank and openness of the
Jacobian, whether the Hautus test holds, the structure line, the decision
and each fired rule's name and decision.  One digest over these lines agrees
under the default kernel and ``OPENBLAS_CORETYPE`` = Prescott, Haswell,
SkylakeX and Zen; the full report's digits do not, and ``kalman_rank`` is
left out because it moves with the kernel at n = 50.  The 72 runs take
about 3 s.

After a deliberate report change, rewrite both files with
``PYTHONPATH=src:. python tests/test_report_corpus.py`` and name the change in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from perfbench import workloads
from stabkit.cli import main

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "report_corpus.json"
LARGE_CORPUS = HERE / "large_verdicts.json"
EXAMPLES = HERE.parent / "examples"
FLAG_SETS = {
    "default": [],
    "margin=0.3": ["--margin", "0.3"],
    "margin=5": ["--margin", "5"],
    "tol-rank=1e-6": ["--tol-rank", "1e-6"],
    "bounded": ["--assume-bounded-perturbation"],
}
SYNTHESIZE_FLAG_SETS = {
    "default": [],
    "margin=0.3": ["--margin", "0.3"],
    "force": ["--force"],
}
# the kernel-dependent digits of a synthesize report: repr gain lines and the fit residual
KERNEL_DIGITS = re.compile(r"^(u\d+ = ).*$|(residual=)\S+", re.MULTILINE)
# the kernel-robust facts of an analyze report, one match per kept line
VERDICT_LINES = re.compile(r"(jacobian_rank=\S+ linearly_open=\S+)$|^(hautus: asymptotic_holds=\S+)"
                           r"|^(structure: .*|verdict: .*|  \w+ \[\w+\])", re.MULTILINE)


def systems() -> dict[str, str]:
    """Corpus system name -> system file text."""
    texts = {f"example/{p.stem}": p.read_text() for p in sorted(EXAMPLES.glob("*.stab"))}
    for seed in range(3):
        for g in workloads.cold_cli_systems(seed, False) + workloads.validate_systems(seed, False):
            texts[f"seed{seed}/{g.name}"] = g.text
    return texts


SYSTEMS = systems()
LARGE_SYSTEMS = {f"seed{seed}/{g.name}": g.text
                 for seed in range(3) for g in workloads.large_systems(seed, False)}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _mask(text: str) -> str:
    return KERNEL_DIGITS.sub(r"\1\2<masked>", text)


def _verdict_lines(text: str) -> str:
    return "".join("".join(groups) + "\n" for groups in VERDICT_LINES.findall(text))


def _run(argv: list[str], text: str, mask=str) -> list:
    """[exit code, sha256 of stdout, sha256 of stderr] of one run on the system text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.stab"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
    return [code, _digest(mask(out.getvalue())), _digest(mask(err.getvalue()))]


def run_cases(name: str, text: str) -> dict[str, list]:
    """analyze flag-set label -> [exit code, sha256 of stdout, sha256 of stderr]."""
    formats = [("text", [])]
    if name.startswith("example/"):
        formats.append(("json", ["--json"]))
    return {f"{fmt} {label}": _run(["analyze", *fmt_flags, *flags], text)
            for fmt, fmt_flags in formats for label, flags in FLAG_SETS.items()}


def synthesize_cases(name: str, text: str) -> dict[str, list]:
    """synthesize flag-set label -> the same triple, hashed after masking."""
    flag_sets = dict(SYNTHESIZE_FLAG_SETS)
    if name.startswith("example/"):
        flag_sets["validate"] = ["--validate"]
    return {f"synthesize {label}": _run(["synthesize", *flags], text, _mask)
            for label, flags in flag_sets.items()}


def large_case(text: str) -> list:
    """[exit code, sha256 of the verdict lines] of a default analyze."""
    code, out, _err = _run(["analyze"], text, _verdict_lines)
    return [code, out]


def _pinned(name: str, synthesize: bool) -> dict[str, list]:
    cases = json.loads(CORPUS.read_text())[name]
    return {k: v for k, v in cases.items() if k.startswith("synthesize ") == synthesize}


def test_corpus_names_every_system():
    assert len(SYSTEMS) == 42
    assert sorted(json.loads(CORPUS.read_text())) == sorted(SYSTEMS)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_analyze_reports_match_the_corpus(name):
    assert run_cases(name, SYSTEMS[name]) == _pinned(name, synthesize=False)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_synthesize_reports_match_the_corpus(name):
    assert synthesize_cases(name, SYSTEMS[name]) == _pinned(name, synthesize=True)


def test_large_corpus_names_every_system():
    assert len(LARGE_SYSTEMS) == 72
    assert sorted(json.loads(LARGE_CORPUS.read_text())) == sorted(LARGE_SYSTEMS)


@pytest.mark.parametrize("name", sorted(LARGE_SYSTEMS))
def test_large_system_verdicts_match_the_corpus(name):
    assert large_case(LARGE_SYSTEMS[name]) == json.loads(LARGE_CORPUS.read_text())[name]


def test_verdict_lines_keep_only_the_kernel_robust_facts():
    report = ("openness: cov_bound=0.5 reg_bound=2 lip_bound=3 jacobian_rank=2/2 linearly_open=yes\n"
              "hautus: asymptotic_holds=yes kalman_rank=2 full_spectrum_controllable=yes\n"
              "structure: control-affine (driftless=no, span_dim=2, input_rank=1)\n"
              "verdict: EXP_STABILIZABLE_CONT_FEEDBACK\n"
              "  R1 [EXP_STABILIZABLE_CONT_FEEDBACK] (cov=0.5, eta=0.1)\n"
              "    covering bound exceeds the real unstable spectral bound\n"
              "perturbation_margin: 0.4\n")
    assert _verdict_lines(report) == ("jacobian_rank=2/2 linearly_open=yes\n"
                                      "hautus: asymptotic_holds=yes\n"
                                      "structure: control-affine (driftless=no, span_dim=2, "
                                      "input_rank=1)\n"
                                      "verdict: EXP_STABILIZABLE_CONT_FEEDBACK\n"
                                      "  R1 [EXP_STABILIZABLE_CONT_FEEDBACK]\n")


def test_mask_keeps_all_but_the_kernel_digits():
    report = "K =\n  -1.5  -2.5\nu1 = -1.5*x1 + -2.5*x2\nfit: residual=0.27 m_hat=1\n"
    assert _mask(report) == "K =\n  -1.5  -2.5\nu1 = <masked>\nfit: residual=<masked> m_hat=1\n"


if __name__ == "__main__":
    corpus = {name: {**run_cases(name, text), **synthesize_cases(name, text)}
              for name, text in sorted(SYSTEMS.items())}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {sum(map(len, corpus.values()))} cases to {CORPUS}", file=sys.stderr)
    large = {name: large_case(text) for name, text in sorted(LARGE_SYSTEMS.items())}
    LARGE_CORPUS.write_text(json.dumps(large, indent=1) + "\n")
    print(f"wrote {len(large)} cases to {LARGE_CORPUS}", file=sys.stderr)
