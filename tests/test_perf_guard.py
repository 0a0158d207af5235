"""perf_guard baseline handling: never silently reseed the trajectory.

Pins the satellite fix: a full-scale run whose committed
``BENCH_scale.json`` is missing or corrupt must error out (exit
non-zero) instead of quietly writing a fresh baseline -- a silent reseed
would turn a regression into the new normal.  ``--reseed`` makes
re-creation explicit; a missing *tiny* baseline stays fine (it is a CI
artifact, never committed).
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_guard.py"


@pytest.fixture(scope="module")
def perf_guard():
    spec = importlib.util.spec_from_file_location("perf_guard", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["perf_guard"] = module
    spec.loader.exec_module(module)
    return module


VALID = {
    "schema": 1,
    "tiny": False,
    "benchmarks": {"scale": {"wall_s": 1.0}},
}


def test_missing_full_baseline_is_an_error(perf_guard, tmp_path) -> None:
    with pytest.raises(perf_guard.BaselineError):
        perf_guard.resolve_baseline(
            tmp_path / "BENCH_scale.json", tiny=False, reseed=False
        )


def test_missing_tiny_baseline_just_seeds_one(perf_guard, tmp_path) -> None:
    assert (
        perf_guard.resolve_baseline(
            tmp_path / "BENCH_scale_tiny.json", tiny=True, reseed=False
        )
        is None
    )


def test_reseed_flag_allows_a_missing_full_baseline(
    perf_guard, tmp_path
) -> None:
    assert (
        perf_guard.resolve_baseline(
            tmp_path / "BENCH_scale.json", tiny=False, reseed=True
        )
        is None
    )


@pytest.mark.parametrize("tiny", [False, True])
def test_corrupt_baseline_is_an_error_at_either_scale(
    perf_guard, tmp_path, tiny
) -> None:
    path = tmp_path / "BENCH_scale.json"
    path.write_text("{not json")
    with pytest.raises(perf_guard.BaselineError):
        perf_guard.resolve_baseline(path, tiny=tiny, reseed=False)


def test_wrong_shape_counts_as_corrupt(perf_guard, tmp_path) -> None:
    path = tmp_path / "BENCH_scale.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(perf_guard.BaselineError):
        perf_guard.resolve_baseline(path, tiny=False, reseed=False)
    path.write_text(json.dumps({"schema": 1}))  # no "benchmarks"
    with pytest.raises(perf_guard.BaselineError):
        perf_guard.resolve_baseline(path, tiny=False, reseed=False)


def test_reseed_flag_allows_replacing_a_corrupt_baseline(
    perf_guard, tmp_path
) -> None:
    path = tmp_path / "BENCH_scale.json"
    path.write_text("{not json")
    assert (
        perf_guard.resolve_baseline(path, tiny=False, reseed=True) is None
    )


def test_healthy_baseline_loads(perf_guard, tmp_path) -> None:
    path = tmp_path / "BENCH_scale.json"
    path.write_text(json.dumps(VALID))
    assert (
        perf_guard.resolve_baseline(path, tiny=False, reseed=False) == VALID
    )


def test_committed_baseline_is_healthy(perf_guard) -> None:
    """The repo's own trajectory file must satisfy the loader (otherwise
    every full-scale CI run would fail on a file we committed)."""
    committed = perf_guard.resolve_baseline(
        perf_guard.BENCH_FILE, tiny=False, reseed=False
    )
    assert committed is not None
    assert "benchmarks" in committed and not committed.get("tiny", False)


# ----------------------------------------------------------------------
# main(): end-to-end control flow with the benchmarks stubbed out
# ----------------------------------------------------------------------


def _stub_benchmarks(
    perf_guard,
    monkeypatch,
    campaign_violations=0,
    chaos_violations=0,
    standing_mismatches=0,
    msgs_per_member_100k=0.171,
) -> None:
    """Replace the minutes-long benchmark functions with instant stubs."""
    rows = {
        "_time_fig17": {"wall_s": 1.0, "cached_msgs_per_query": 9.0},
        "_time_scale": {"wall_s": 2.0, "nodes": 1, "queries": 1,
                        "msgs_per_query": 1.0, "msgs_per_member": 0.178,
                        "events_per_s": 1000.0},
        "_time_scale_100k": {"wall_s": 2.5, "nodes": 2, "queries": 1,
                             "msgs_per_query": 1.0,
                             "msgs_per_member": msgs_per_member_100k,
                             "events_per_s": 900.0},
        "_time_campaign": {
            "wall_s": 0.5,
            "campaign": "stub",
            "queries": 10,
            "messages": 100,
            "violations": campaign_violations,
            "p95_latency_sim": 0.0,
        },
        "_time_chaos": {
            "wall_s": 0.4,
            "campaign": "chaos-stub",
            "queries": 10,
            "failed_queries": 2,
            "violations": chaos_violations,
        },
        "_time_standing_churn": {
            "wall_s": 0.1,
            "standing_msgs": 30,
            "polling_msgs": 1000,
            "ratio": 0.03,
            "mismatches": standing_mismatches,
            "updates": 12,
            "install_msgs": 600,
            "install_deltas": 88,
        },
    }
    for name, row in rows.items():
        monkeypatch.setattr(perf_guard, name, lambda row=row: dict(row))


@pytest.fixture
def guarded_main(perf_guard, monkeypatch, tmp_path):
    """main() redirected at a tmp trajectory, benchmarks stubbed."""
    monkeypatch.setattr(perf_guard, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(perf_guard, "BENCH_FILE", tmp_path / "BENCH.json")
    monkeypatch.setattr(
        perf_guard, "BENCH_FILE_TINY", tmp_path / "BENCH_tiny.json"
    )
    monkeypatch.delenv("MOARA_BENCH_TINY", raising=False)
    monkeypatch.setattr(sys, "argv", ["perf_guard.py"])
    return perf_guard


def test_main_records_all_six_benchmarks(
    guarded_main, monkeypatch, tmp_path
) -> None:
    _stub_benchmarks(guarded_main, monkeypatch)
    guarded_main.BENCH_FILE.write_text(json.dumps(VALID))
    assert guarded_main.main() == 0
    record = json.loads(guarded_main.BENCH_FILE.read_text())
    assert sorted(record["benchmarks"]) == [
        "campaign",
        "chaos",
        "fig17_throughput",
        "scale",
        "scale_100k",
        "standing_churn",
    ]
    assert record["benchmarks"]["campaign"]["violations"] == 0
    assert record["benchmarks"]["chaos"]["violations"] == 0
    assert record["benchmarks"]["standing_churn"]["mismatches"] == 0


def test_main_fails_hard_on_campaign_violations(
    guarded_main, monkeypatch, capsys
) -> None:
    _stub_benchmarks(guarded_main, monkeypatch, campaign_violations=3)
    guarded_main.BENCH_FILE.write_text(json.dumps(VALID))
    assert guarded_main.main() == 1
    out = capsys.readouterr().out
    assert "::error title=campaign invariants::" in out


def test_main_fails_hard_on_chaos_oracle_violations(
    guarded_main, monkeypatch, capsys
) -> None:
    # Explicit failures under chaos are expected and fine; a *violation*
    # (wrong answer, leaked in-flight state) fails the build.
    _stub_benchmarks(guarded_main, monkeypatch, chaos_violations=1)
    guarded_main.BENCH_FILE.write_text(json.dumps(VALID))
    assert guarded_main.main() == 1
    out = capsys.readouterr().out
    assert "'chaos-stub'" in out


def test_main_fails_hard_on_standing_mismatches(
    guarded_main, monkeypatch, capsys
) -> None:
    # The standing-churn run's answer differential is a correctness
    # gate, not a perf number: any folded-vs-centralized mismatch
    # fails the build.
    _stub_benchmarks(guarded_main, monkeypatch, standing_mismatches=2)
    guarded_main.BENCH_FILE.write_text(json.dumps(VALID))
    assert guarded_main.main() == 1
    out = capsys.readouterr().out
    assert "::error title=standing differential::" in out


def test_main_fails_hard_when_cost_per_group_member_grows_with_scale(
    guarded_main, monkeypatch, capsys
) -> None:
    # Both scale rows size their groups at N / 40; messages per query per
    # member is what has to stay put between them (0.178 at 10k).
    _stub_benchmarks(guarded_main, monkeypatch, msgs_per_member_100k=0.204)
    guarded_main.BENCH_FILE.write_text(json.dumps(VALID))
    assert guarded_main.main() == 0
    _stub_benchmarks(guarded_main, monkeypatch, msgs_per_member_100k=0.206)
    assert guarded_main.main() == 1
    assert "::error title=scale cost::" in capsys.readouterr().out


def test_main_warns_on_wall_clock_regression_but_passes(
    guarded_main, monkeypatch, capsys
) -> None:
    _stub_benchmarks(guarded_main, monkeypatch)
    baseline = {
        "schema": 1,
        "tiny": False,
        "benchmarks": {"scale": {"wall_s": 0.1}},  # new stub says 2.0s
    }
    guarded_main.BENCH_FILE.write_text(json.dumps(baseline))
    assert guarded_main.main() == 0
    assert "::warning title=perf regression::" in capsys.readouterr().out


def test_main_warns_on_events_per_s_regression_but_passes(
    guarded_main, monkeypatch, capsys
) -> None:
    """Throughput is guarded directly: a steady-state events/s drop warns
    even when total wall clock looks fine (build noise can mask it)."""
    _stub_benchmarks(guarded_main, monkeypatch)
    baseline = {
        "schema": 1,
        "tiny": False,
        "benchmarks": {
            # stub reports wall_s=2.0 (no wall regression) but only
            # 1000 events/s against a 2000 events/s baseline: -50%.
            "scale": {"wall_s": 2.0, "events_per_s": 2000.0},
        },
    }
    guarded_main.BENCH_FILE.write_text(json.dumps(baseline))
    assert guarded_main.main() == 0
    out = capsys.readouterr().out
    assert "::warning title=perf regression::" in out
    assert "events/s" in out


def test_compare_tolerates_rows_without_events_per_s(guarded_main) -> None:
    """Older trajectory rows (pre-wheel) have no events_per_s key; the
    comparison must not warn or crash on them."""
    assert (
        guarded_main._compare(
            "scale",
            {"wall_s": 1.0, "events_per_s": 500.0},
            {"wall_s": 1.0},
            threshold=0.25,
        )
        == []
    )


def test_main_fails_fast_on_corrupt_baseline(
    guarded_main, monkeypatch
) -> None:
    """A broken trajectory file must error out before any benchmark
    burns minutes of CI time."""

    def exploding_benchmark() -> dict:
        raise AssertionError("benchmarks must not run on a corrupt baseline")

    for name in (
        "_time_fig17",
        "_time_scale",
        "_time_scale_100k",
        "_time_campaign",
        "_time_chaos",
        "_time_standing_churn",
    ):
        monkeypatch.setattr(guarded_main, name, exploding_benchmark)
    guarded_main.BENCH_FILE.write_text("{corrupt")
    assert guarded_main.main() == 2
