"""End-to-end behaviour of ``perfbench/run.py`` as its callers see it."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import catalogue

ROOT = Path(__file__).resolve().parents[2]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w.name for w in catalogue.WORKLOADS])
def test_traced_run_reports_every_per_layer_metric(workload):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [metric.name for metric in catalogue.PER_LAYER]
    for metric in catalogue.PER_LAYER:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "sweep-linear", "--seed", "0", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
