"""Smoke test of the benchmark: one short run per workload and mode.

    python3 -m pytest bench/test_smoke.py

Each run must exit 0, pass its oracle checks and report every metric
that BENCHMARK.json declares for its mode, with the declared unit.  The
benchmark must refuse to run where there is no package to measure.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root, workload, trace, seconds="0.1"):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_reports_every_declared_metric(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    *_, record_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])
    record = json.loads(record_line)
    assert record["seed"] == 0 and record["workload"] == workload
    assert record["env"]["nproc"] >= 1 and record["env"]["numpy"]
    assert set(record["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
