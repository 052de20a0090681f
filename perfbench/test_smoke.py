"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Each workload must run untraced and traced, pass its output and
expected-activity checks, and print every metric BENCHMARK.json names, with
its unit. Without the program's sources the benchmark must fail without
printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, size: str = "tiny"):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.1", "--trace", str(trace), "--size", size]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(ln.split()[:1] == [m["name"]] and ln.split()[-1] == m["unit"]
                   for ln in lines), m["name"]
    assert any(ln.split()[:1] == ["failed_frac"] for ln in lines)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns(".work"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0, size="full")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
