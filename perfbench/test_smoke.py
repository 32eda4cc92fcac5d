"""Smoke test of the benchmark: every workload at its smallest size.

    python3 -m pytest perfbench

Each workload runs once untraced and once traced with ``--smoke``; the test
checks that every metric is emitted by name with its unit and that the
final line keeps its contract.  The oracle is checked on known-bad inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import gen, oracle
from perfbench.run import DETAIL_ONLY

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Every workload prints all of these, "n/a" where it runs no such operation.
DETAIL_END_TO_END = (
    "setup_s", "cold_start_s.p50", "cold_start_s.tail", "verdict_ms.p50", "verdict_ms.tail",
    "gain_ms.p50", "gain_ms.tail", "validate_s.p50", "validate_s.tail",
    "covering_s.p50", "covering_s.tail", "ops_per_s", "fail_ratio", "peak_rss_mb",
)


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "0", "--trace", str(trace), "--smoke"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == sum(line.startswith("fail ") for line in lines)
    return lines[:-1], result


def check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    detail, result = run(workload, 0)
    check_metrics(result, BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1] for line in detail if line.startswith("metric ")}
    assert set(DETAIL_END_TO_END) <= printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    detail, result = run(workload, 1)
    check_metrics(result, BENCH["per_layer"])
    printed = {line.split()[1] for line in detail if line.startswith("layer ")}
    assert set(DETAIL_ONLY) | set(result["metrics"]) <= printed


def test_run_refuses_a_tree_without_stabkit(tmp_path):
    (tmp_path / "perfbench").mkdir()
    script = tmp_path / "perfbench" / "run.py"
    script.write_text((ROOT / "perfbench" / "run.py").read_text())
    out = subprocess.run([sys.executable, str(script), "--workload", WORKLOADS[0], "--seed", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_oracle_flags_wrong_answers():
    a = np.array([[1.0, 0.0], [0.0, -1.0]])
    b = np.array([[1.0], [0.0]])
    g = gen.GenSystem("toy", gen.CONTINUOUS, a, b, (0.0, 0.0), (0.0,), "", False)
    assert oracle.linearization(g, a, b) == []
    assert oracle.linearization(g, a + 1e-6, b)
    assert oracle.gain(g, [[-2.0, 0.0]]) == []
    assert oracle.gain(g, [[0.0, 0.0]])
    assert oracle.report(g, "not json", False, False)
    assert oracle.report(g, "{}", False, False)
    assert oracle.covering(0.5, None) == []
    assert oracle.covering(0.5, 0.25)
    assert oracle.covering(float("nan"), None)
    assert oracle.validation(False, -1.0, 3)
    assert oracle.cli(1, "Traceback ...\nValueError: boom\n")
