"""Tests for ``check_regression.py``, the warn-only bench trajectory checker."""

from __future__ import annotations

import copy
import json

import pytest

from bench_smoke import run_sweep
from check_regression import REPO_ROOT, check, find_latest_baseline, main

BENCH_PR4 = REPO_ROOT / "BENCH_PR4.json"


@pytest.fixture(scope="module")
def committed() -> dict:
    record = json.loads(BENCH_PR4.read_text())
    assert "sharded" in record  # a cell fresh records no longer have
    return record


def _write(tmp_path, name: str, record: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def test_latest_baseline_is_the_highest_numbered_record():
    latest = find_latest_baseline()
    assert latest is not None
    numbers = [
        int(path.stem[len("BENCH_PR"):]) for path in REPO_ROOT.glob("BENCH_PR*.json")
    ]
    assert latest.name == f"BENCH_PR{max(numbers)}.json"


def test_fresh_record_without_sharded_passes_against_bench_pr4(tmp_path, committed, capsys):
    record = run_sweep(
        phvs=200,
        rounds=1,
        program_names=["sampling"],
        drmt_packets=100,
        drmt_names=["simple_router"],
    )
    assert "sharded" not in record
    current = _write(tmp_path, "fresh.json", record)
    assert main(["--current", current, "--baseline", str(BENCH_PR4)]) == 0
    out = capsys.readouterr().out
    assert "rmt/sampling/fused_pipeline" in out
    assert "drmt/simple_router/fused" in out
    assert "sharded" not in out


def test_sharded_cells_are_no_longer_compared(committed):
    lines, regressions = check(committed, committed, tolerance=0.5)
    assert regressions == []
    assert lines and not any(line.startswith("sharded") for line in lines)


def test_strict_fails_on_a_drop_past_the_tolerance(tmp_path, committed, capsys):
    current = copy.deepcopy(committed)
    del current["sharded"]
    baseline = _write(tmp_path, "baseline.json", committed)
    assert main(["--current", _write(tmp_path, "same.json", current),
                 "--baseline", baseline, "--strict"]) == 0

    cell = current["programs"]["sampling"]["fused_pipeline"]
    cell["phvs_per_sec"] *= 0.45  # below the default 0.5 tolerance
    dropped = _write(tmp_path, "dropped.json", current)
    capsys.readouterr()
    assert main(["--current", dropped, "--baseline", baseline, "--strict"]) == 1
    out = capsys.readouterr().out
    assert "1 cell(s) regressed beyond tolerance" in out
    assert "rmt/sampling/fused_pipeline" in out
    # Warn-only stays the default.
    assert main(["--current", dropped, "--baseline", baseline]) == 0
    assert "warn-only mode" in capsys.readouterr().out
