"""BENCHMARK.json against the driver's contract, and the command against both."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import inputs
from conftest import LEDGER_DIR, REPO_ROOT
from measure import catalogue

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_inside_the_contract():
    spec = catalogue()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert {w["name"]: w["why"] for w in spec["workloads"]} == inputs.WORKLOADS
    assert 2 <= len(spec["workloads"]) <= 8 and 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)) and all(_NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert _UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len((REPO_ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def _run(workload: str, trace: int) -> dict:
    command = [sys.executable, str(LEDGER_DIR / "run.py"), "--workload", workload, "--smoke"]
    done = subprocess.run(
        command + ["--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_last_line_is_the_driver_object(workload):
    spec = catalogue()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in spec[section]]
        units = {m["name"]: m["unit"] for m in spec[section]}
        for name, cell in result["metrics"].items():
            assert set(cell) == {"value", "unit"} and cell["unit"] == units[name]
            assert isinstance(cell["value"], float)
        if trace == 0:  # an end-to-end metric is never 0
            assert all(cell["value"] > 0 for cell in result["metrics"].values())


def test_workload_contrast_shows_in_the_per_layer_counts():
    warm = _run("fleet_warm_dashboard", 1)["metrics"]
    churn = _run("sim_churn_mixed", 1)["metrics"]
    assert warm["plan_cache.hit_ratio"]["value"] > 0.95
    assert warm["transport.tax_us"]["value"] > 0
    for name in ("network.msgs.SUB_INSTALL", "network.msgs.SUB_DELTA"):
        assert warm[name]["value"] == 0 and churn[name]["value"] > 0
    assert churn["standing.msgs_per_write"]["value"] > 0


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the command must fail fast and print no result."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        LEDGER_DIR, tmp_path / "benchmarks" / "ledger", ignore=shutil.ignore_patterns("__pycache__")
    )
    command = [sys.executable, "benchmarks/ledger/run.py", "--workload", "sim_scale_waves"]
    done = subprocess.run(
        command + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
