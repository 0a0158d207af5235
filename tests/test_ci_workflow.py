"""The CI workflow names only files that exist, and runs what it must.

``ci.yml`` once stayed invalid YAML for four PRs, and a renamed script
or test file silently turns a job's step into a no-op or an error that
nobody runs locally.  This parses the workflow and checks every repo
path a job's ``run:`` step names, and that some job reaches every
benchmark, every campaign and every system-tier test file.
"""

from __future__ import annotations

import re
import shlex
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


# ----------------------------------------------------------------------
# what the pytest commands of the workflow collect
# ----------------------------------------------------------------------


def _pytest_runs() -> list[tuple[str, bool, list[str]]]:
    """``(job, selects the system tier, paths)`` for every pytest command
    a run step issues; no paths means the configured ``testpaths``."""
    runs = []
    for job, run in _run_steps():
        for command in run.replace("\\\n", " ").splitlines():
            words = shlex.split(command)
            starts = [i for i, word in enumerate(words[1:], 1) if word == "pytest"]
            if not starts or words[starts[0] - 1] != "-m":
                continue  # not ``python -m pytest`` (``pip install pytest``)
            args = words[starts[0] + 1 :]
            system = any(flag == "-m" and value == "system" for flag, value in zip(args, args[1:]))
            paths = [arg for arg in args if _PATH.fullmatch(arg)]
            runs.append((job, system, paths or ["tests"]))
    return runs


def _collected(paths: list[str]) -> set[str]:
    """The test modules a pytest command given ``paths`` collects."""
    files = set()
    for path in paths:
        target = REPO / path
        found = target.rglob("test_*.py") if target.is_dir() else [target]
        files |= {str(f.relative_to(REPO)) for f in found}
    return files


def test_pytest_commands_are_parsed() -> None:
    runs = _pytest_runs()
    assert any(system and paths == ["tests"] for _, system, paths in runs)
    assert any(not system and paths == ["tests"] for _, system, paths in runs)
    assert ("bench-smoke", True, ["tests/sim/test_kernel_differential.py"]) in runs


def test_every_system_test_file_is_run_by_some_job() -> None:
    """Tier-1 deselects ``@pytest.mark.system``: only a job that selects
    the system tier over a path holding the file runs it."""
    marked = [
        path
        for path in sorted(_collected(["tests"]))
        if "pytest.mark.system" in (REPO / path).read_text(encoding="utf-8")
    ]
    assert len(marked) >= 6
    reached = set()
    for _, system, paths in _pytest_runs():
        if system:
            reached |= _collected(paths)
    assert [path for path in marked if path not in reached] == []


def _run_by_some_job(module: str, system: bool) -> bool:
    """Does a job run ``module``'s tests (those of the given tier)?"""
    return any(tier == system and module in _collected(paths) for _, tier, paths in _pytest_runs())


def test_every_campaign_is_run_by_some_job() -> None:
    """A campaign is reached when a run step names it, or when a job runs
    a test parametrized over it: the system tier's per-campaign report
    test and tier-1's golden check each enumerate the directory."""
    campaigns = sorted(f"campaigns/{path.name}" for path in (REPO / "campaigns").glob("*.yaml"))
    assert len(campaigns) >= 9
    reached = {path for _, run in _run_steps() for path in _named_paths(run)}
    if _run_by_some_job("tests/campaigns/test_campaigns.py", system=True):
        from tests.campaigns.test_campaigns import _campaign_planes

        reached |= {f"campaigns/{param.values[0].name}" for param in _campaign_planes()}
    if _run_by_some_job("tests/test_golden.py", system=False):
        from tests.test_golden import golden

        reached |= {f"campaigns/{path.name}" for path, _ in golden.campaign_planes()}
    assert [path for path in campaigns if path not in reached] == []
