"""Smoke test of the benchmark: every workload, small, traced and untraced.

Run with ``pytest benchmarks/e2e`` (about two minutes; not part of the
tier-1 suite).  It checks the benchmark's contract rather than any
number: the emitted metric names are exactly ``BENCHMARK.json``'s, every
value is finite and carries its unit, no request fails, and the traced
run's spans cover at least 90% of request time.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import catalog
from benchmarks.e2e.compare import verdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    command = _benchmark()["command"]
    return subprocess.run(
        [sys.executable, *command[1:], "--workload", workload, "--seed", "3",
         "--scale", "0.05", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", catalog.load().workloads)
def test_workload_contract(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = _benchmark()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        emitted = result["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"]), metric["name"]
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    """With only the benchmark's own files present, it fails without a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "benchmarks", "e2e"),
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run("oneshot", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    before = [10.0, 10.2, 9.9]
    assert verdict(before, [10.1, 10.0, 10.2], "lower", 0.1)[0] == "within"
    assert verdict(before, [12.0, 12.1, 11.9], "lower", 0.1)[0] == "worse"
    assert verdict(before, [12.0, 12.1, 11.9], "higher", 0.1)[0] == "better"
    assert verdict([5.0, 10.0, 15.0], [5.5, 11.0, 16.0], "lower", 0.1)[0] == "unresolved"
    assert verdict(before, [1.0], "lower", None)[0] == "info"
    assert verdict([0.0, 0.0], [0.0, 0.0], "lower", 0.0, absolute=True)[0] == "within"
    assert verdict([0.0, 0.0], [0.0, 0.01], "lower", 0.0, absolute=True)[0] == "worse"
    assert verdict([0.002], [0.009], "lower", 0.01, absolute=True)[0] == "within"
