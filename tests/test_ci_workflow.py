"""The CI workflow names only files that exist.

``ci.yml`` once stayed invalid YAML for four PRs, and a renamed script
or test file silently turns a job's step into a no-op or an error that
nobody runs locally.  This parses the workflow and checks every repo
path a job's ``run:`` step names.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml", reason="parsing the workflow needs PyYAML")

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"

#: a repo-relative path under one of the directories CI steps run from
_PATH = re.compile(r"(?<![\w./-])((?:tests|scripts|campaigns|benchmarks)/[\w./-]*[\w/])")


def _run_steps() -> list[tuple[str, str]]:
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    return [
        (job_name, step["run"])
        for job_name, job in workflow["jobs"].items()
        for step in job.get("steps", ())
        if "run" in step
    ]


def _named_paths(run: str) -> list[str]:
    return _PATH.findall(run)


def test_workflow_parses_into_jobs_with_run_steps() -> None:
    steps = _run_steps()
    assert steps, "ci.yml has no run: steps"
    assert sum(len(_named_paths(run)) for _, run in steps) >= 10


def test_every_path_a_run_step_names_exists() -> None:
    missing = [
        (job, path)
        for job, run in _run_steps()
        for path in _named_paths(run)
        if not (REPO / path).exists()
    ]
    assert missing == []


def test_path_pattern_reads_folded_commands() -> None:
    run = (
        "MOARA_BENCH_TINY=1 PYTHONPATH=src python -m pytest -q\n"
        "benchmarks/bench_scale.py --benchmark-json=bench_smoke.json\n"
        "python3 benchmarks/ledger/run.py --smoke --out ledger_smoke.json"
    )
    assert _named_paths(run) == [
        "benchmarks/bench_scale.py",
        "benchmarks/ledger/run.py",
    ]


def test_every_figure_bench_is_run_by_some_job() -> None:
    """Every benchmark file -- the 15 figure and ablation benches and the
    two smoke benches -- is run by some job."""
    named = {path for _, run in _run_steps() for path in _named_paths(run)}
    benches = sorted(
        f"benchmarks/{path.name}"
        for path in (REPO / "benchmarks").glob("bench_*.py")
    )
    assert len(benches) == 17
    assert [path for path in benches if path not in named] == []
    smoke = {
        path
        for job, run in _run_steps()
        if job == "bench-smoke"
        for path in _named_paths(run)
    }
    assert {
        "benchmarks/bench_scale.py",
        "benchmarks/bench_standing_churn.py",
    } <= smoke
