"""Smoke-size self-test of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q

Runs every workload at tiny sizes, untraced and traced, and checks the
result line against BENCHMARK.json; then checks --compare and the refusal
to run without the shiftlab sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int) -> dict:
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_reports_every_end_to_end_metric(workload):
    result = smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reports_every_per_layer_metric(workload):
    result = smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    spans = json.loads(
        (BENCH / "results" / f"{workload}-seed3-trace1-smoke-spans.json").read_text()
    )
    assert spans and all(s["end"] >= s["start"] for s in spans)


def test_compare_prints_every_metric_within_bound_against_itself():
    smoke("loop-bound", 0)
    result = BENCH / "results" / "loop-bound-seed3-trace0-smoke.json"
    proc = run_bench("--compare", str(result), str(result))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for m in SPEC["end_to_end"]:
        assert m["name"] in proc.stdout
    assert "OUTSIDE" not in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", "loop-bound", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
