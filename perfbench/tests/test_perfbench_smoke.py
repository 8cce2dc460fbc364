"""Tiny-size runs of every workload and of the command-line contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few jobs and one set-up."""
    monkeypatch.setattr(workloads, "SETUP_REPEATS", dict.fromkeys(workloads.WORKLOAD_NAMES, 1))
    monkeypatch.setattr(workloads, "TRACE_JOBS", 12)
    monkeypatch.setattr(workloads, "BURST_JOBS", 10)
    monkeypatch.setattr(workloads.OverloadBurst, "shots", workloads.SHOTS)
    monkeypatch.setattr(workloads, "WARM_RATE", 4.0)
    monkeypatch.setattr(workloads, "STEADY_TENANT_RATE", 2.0)
    catalog = workloads.warm_catalog()
    # One stabilizer-path and one statevector-path entry (BV also exercises
    # the known clbit-widening tally).
    monkeypatch.setattr(workloads, "warm_catalog", lambda: [catalog[0], catalog[3]])


def assert_accounted(payload):
    assert payload["attempted"] >= 1
    assert payload["done"] + payload["failed"] + payload["refused"] == payload["attempted"]
    assert sum(payload["failures"].values()) == payload["failed"] + payload["refused"]
    assert payload["checks"] == []


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_each_workload_runs_traced_and_untraced_alike(tiny, name):
    seconds, jobs = (1.5, None) if name in ("warm-steady", "overload-burst") else (0.0, 1)
    untraced = workloads.run(name, 3, seconds, jobs, traced=False)
    assert_accounted(untraced)
    traced = workloads.run(name, 3, seconds, untraced["attempted"] if name == "cold-mix" else jobs, traced=True)
    assert_accounted(traced)
    assert traced.pop("spans").spans
    if name != "overload-burst":
        assert traced["signatures"] == untraced["signatures"]
    assert 0.0 < traced["span_metrics"]["trace.covered_frac"] <= 1.0


def test_cli_prints_the_result_line_last():
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "cold-mix",
         "--seed", "2", "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        definition = json.load(handle)
    assert set(result["metrics"]) == {metric["name"] for metric in definition["end_to_end"]}
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
