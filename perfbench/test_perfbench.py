"""Self-tests of the benchmark.

Run from the repository root with ``python -m pytest perfbench -q``.  Every
test drives ``run.py`` as a subprocess at tiny sizes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: Counts that depend only on the inputs, so they repeat exactly.
EXACT_COUNTS = (
    "dgen.source_lines",
    "traffic.items",
    "engine.rmt.phvs",
    "drmt.tables.lookup_calls",
    "drmt.tables.hit_ratio",
)


def run(workload, *extra, trace=0, cwd=ROOT, script=RUN):
    completed = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return completed, result


@pytest.fixture(scope="module")
def traced():
    """Two traced tiny runs per workload, with the same seed."""
    return {workload: [run(workload, trace=1) for _ in range(2)] for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_the_end_to_end_metrics(workload):
    completed, result = run(workload)
    assert completed.returncode == 0, completed.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_the_per_layer_metrics(workload, traced):
    for completed, result in traced[workload]:
        assert completed.returncode == 0, completed.stderr
        expected = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
        assert {name: value["unit"] for name, value in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload, traced):
    (_, first), (_, second) = traced[workload]
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_self_times_account_for_the_traced_op_time(traced):
    for workload in WORKLOADS:
        metrics = {name: value["value"] for name, value in traced[workload][0][1]["metrics"].items()}
        op_layers = [
            name for name in metrics
            if name.endswith("_s") and not name.startswith(("setup.", "trace."))
        ]
        assert sum(metrics[name] for name in op_layers) == pytest.approx(metrics["trace.op_s"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_negative_control_is_reported_as_failed(workload):
    completed, result = run(workload, "--negative-control")
    assert completed.returncode == 1
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed, result = run(WORKLOADS[0], cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert completed.returncode != 0
    assert result is None


def test_layer_map_names_only_benchmark_metrics_and_workloads():
    per_layer = {metric["name"] for metric in BENCHMARK["per_layer"]}
    end_to_end = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    mapped = [name for layer in LAYER_MAP["layers"] for name in layer["metrics"]]
    assert sorted(mapped) == sorted(per_layer)
    for layer in LAYER_MAP["layers"]:
        for move in layer["moves"]:
            assert move["metric"] in end_to_end and move["workload"] in WORKLOADS
    assert sorted(LAYER_MAP["workloads"]) == sorted(WORKLOADS)
