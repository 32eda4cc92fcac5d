"""A pinned corpus of `stabkit analyze` reports.

Each case is one in-process CLI run, pinned as its exit code and the sha256
of its stdout and stderr in ``report_corpus.json``.  A change that moves any
report's digits, even uniformly, shows up here as a moved case.

The systems are the examples and perfbench's ``cold_cli_systems`` and
``validate_systems`` for seeds 0-2, each under every flag set below.  Text
reports are pinned for all of them.  Full-precision JSON is pinned for the
examples only: on seed 0's chain_41 its last digits depend on the OpenBLAS
kernel (``OPENBLAS_CORETYPE=SkylakeX`` differs from Prescott, Haswell and
Zen), while the 12-digit text agrees under all four.  synthesize is left out
for the same reason: under Prescott three_state_mixed's ``u1 =`` digits move,
and identity_input's validation residual moves between all three kernel
families.  Whether numpy 1.24 prints the same reports is unverified.

The 240 runs take about 2 s.  After a deliberate report change, rewrite the
file with ``PYTHONPATH=src:. python tests/test_report_corpus.py`` and name the
change in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from perfbench import workloads
from stabkit.cli import main

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "report_corpus.json"
EXAMPLES = HERE.parent / "examples"
FLAG_SETS = {
    "default": [],
    "margin=0.3": ["--margin", "0.3"],
    "margin=5": ["--margin", "5"],
    "tol-rank=1e-6": ["--tol-rank", "1e-6"],
    "bounded": ["--assume-bounded-perturbation"],
}


def systems() -> dict[str, str]:
    """Corpus system name -> system file text."""
    texts = {f"example/{p.stem}": p.read_text() for p in sorted(EXAMPLES.glob("*.stab"))}
    for seed in range(3):
        for g in workloads.cold_cli_systems(seed, False) + workloads.validate_systems(seed, False):
            texts[f"seed{seed}/{g.name}"] = g.text
    return texts


SYSTEMS = systems()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cases(name: str, text: str) -> dict[str, list]:
    """Flag-set label -> [exit code, sha256 of stdout, sha256 of stderr]."""
    formats = [("text", [])]
    if name.startswith("example/"):
        formats.append(("json", ["--json"]))
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.stab"
        path.write_text(text)
        for fmt, fmt_flags in formats:
            for label, flags in FLAG_SETS.items():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["analyze", str(path), *fmt_flags, *flags])
                cases[f"{fmt} {label}"] = [code, _digest(out.getvalue()), _digest(err.getvalue())]
    return cases


def test_corpus_names_every_system():
    assert len(SYSTEMS) == 42
    assert sorted(json.loads(CORPUS.read_text())) == sorted(SYSTEMS)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_analyze_reports_match_the_corpus(name):
    assert run_cases(name, SYSTEMS[name]) == json.loads(CORPUS.read_text())[name]


if __name__ == "__main__":
    corpus = {name: run_cases(name, text) for name, text in sorted(SYSTEMS.items())}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {sum(map(len, corpus.values()))} cases to {CORPUS}", file=sys.stderr)
