"""Tiny-scale end-to-end runs of the benchmark command itself.

Each workload runs at scale 0.05 for a few seconds, untraced and
traced, with the default seed and a second seed. Every run must pass
its correctness checks, print every metric BENCHMARK.json names with
its unit, and end with the one-line JSON result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT, seconds: int = 4):
    return subprocess.run(
        [
            sys.executable, str(ROOT / "e2ebench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--scale", "0.05",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed, trace", [(7, 0), (11, 0), (7, 1)])
def test_workload_prints_every_metric(workload, seed, trace):
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in spec}
    for entry in spec:
        held = result["metrics"][entry["name"]]
        assert held["unit"] == entry["unit"]
        assert isinstance(held["value"], (int, float))
        if not trace:
            assert held["value"] > 0, entry["name"]
    if trace:
        trace_file = ROOT / ".e2ebench_run" / f"trace-{workload}-seed{seed}.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert any(event["ph"] == "X" for event in events)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "paper", "--seed", "7",
         "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
