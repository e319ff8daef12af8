"""The benchmark's own test: every workload at minimal size, untraced and
traced, must pass its output checks and print every metric BENCHMARK.json
declares, with its unit.

    python3 -m pytest perfbench/test_smoke.py

Run from the root of a qcap checkout; takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(type(m["value"]) in (int, float) for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    """Outside a checkout the benchmark exits nonzero and prints no result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
