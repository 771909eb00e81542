"""Smoke test of the benchmark: every workload, at a tiny size, prints every
named metric, in both modes, and the tracer's cross-checks hold.

    python3 -m pytest perfbench/test_smoke.py -q

It takes about two minutes on two cores. The repository's own test suite
does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3  # the untimed run and two repeats at least
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    if trace:
        assert "cross-check PASS" in proc.stdout
        assert "cross-check FAIL" not in proc.stdout
        assert result["metrics"]["autodiff.matmul.calls"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_the_program(tmp_path: Path) -> None:
    """A directory holding only the benchmark fails fast and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = run(tmp_path, "switch-coma-off", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]
