"""System tier: full campaign runs on both planes, plus mutation checks.

The mutation tests are the oracle's own test suite: each one injects a
real fault into the system under test (wrong aggregation at the plane
boundary, a leaking in-flight table, a probe storm) and requires the
campaign run to *catch* it.  A campaign harness that stays green under
mutation isn't checking anything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignRunner,
    SimPlane,
    campaign_from_dict,
    load_campaign,
    run_campaign,
)
from repro.core.plan_cache import SharedGroupSizeCache
from repro.core.inflight import InflightTable

pytestmark = pytest.mark.system

REPO = Path(__file__).resolve().parent.parent.parent
SMOKE = REPO / "campaigns" / "smoke.yaml"

pytest.importorskip("yaml", reason="campaign YAML needs PyYAML")


def _strip_wall(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "wall_s"}


# ----------------------------------------------------------------------
# cross-plane runs
# ----------------------------------------------------------------------


def test_smoke_campaign_on_sim_plane() -> None:
    report = run_campaign(load_campaign(SMOKE), plane="sim")
    assert report["ok"], report["invariants"]
    assert report["totals"]["queries"] > 0
    assert [p["name"] for p in report["phases"]] == ["steady", "perturbed"]


def test_smoke_campaign_on_loopback_plane() -> None:
    report = run_campaign(load_campaign(SMOKE), plane="loopback")
    assert report["ok"], report["invariants"]
    assert report["plane"] == "loopback"


def test_reports_share_one_schema_across_planes() -> None:
    spec = load_campaign(SMOKE)
    sim = run_campaign(spec, plane="sim")
    loopback = run_campaign(spec, plane="loopback")
    assert sorted(sim) == sorted(loopback)
    assert sorted(sim["totals"]) == sorted(loopback["totals"])
    for sim_phase, loop_phase in zip(sim["phases"], loopback["phases"]):
        assert sorted(sim_phase) == sorted(loop_phase)
    # Same declarative scenario: identical workload volume either way.
    assert sim["totals"]["queries"] == loopback["totals"]["queries"]


def test_campaign_runs_are_deterministic() -> None:
    spec = load_campaign(SMOKE)
    first = _strip_wall(run_campaign(spec, plane="sim"))
    second = _strip_wall(run_campaign(spec, plane="sim"))
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


def test_run_campaign_cli_writes_report(tmp_path: Path) -> None:
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "scripts" / "run_campaign.py"),
            str(SMOKE),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["ok"]
    assert "status   : OK" in proc.stdout


def _campaign_planes() -> list:
    """Every committed campaign on every plane it runs on (the sim plane
    refuses campaigns that script link faults)."""
    pairs = []
    for path in sorted((REPO / "campaigns").glob("*.yaml")):
        spec = load_campaign(path)
        faults = any(phase.faults for phase in spec.phases)
        for plane in ("loopback",) if faults else ("sim", "loopback"):
            pairs.append(pytest.param(path, plane, id=f"{path.stem}-{plane}"))
    return pairs


@pytest.mark.parametrize(("campaign", "plane"), _campaign_planes())
def test_reports_identical_across_processes_and_hash_seeds(
    campaign: Path, plane: str, tmp_path: Path
) -> None:
    # Same seed => same report, from two fresh interpreters whose
    # str/bytes hashing differs: no set or dict iteration order may leak
    # into what a campaign measures.
    reports = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"report-{hash_seed}.json"
        env = dict(
            os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED=hash_seed
        )
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO / "scripts" / "run_campaign.py"),
                str(campaign),
                "--plane",
                plane,
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        reports.append(
            json.dumps(_strip_wall(json.loads(out.read_text())), sort_keys=True)
        )
    assert reports[0] == reports[1]


# ----------------------------------------------------------------------
# mutation checks: injected faults must be caught
# ----------------------------------------------------------------------


def _mini_campaign(**overrides) -> dict:
    doc = {
        "name": "mutation",
        "nodes": 24,
        "seed": 9,
        "frontends": 2,
        "groups": [{"attr": "g", "size": 10}],
        "phases": [
            {
                "name": "only",
                "duration": 6,
                "queries": [
                    {"text": "SELECT COUNT(*) WHERE g = true", "rate": 2.0}
                ],
            }
        ],
    }
    doc.update(overrides)
    return doc


class _CorruptingPlane(SimPlane):
    """A plane whose aggregation is off by one -- the injected fault."""

    def query_batch(self, queries):
        results = super().query_batch(queries)
        for result in results:
            if isinstance(result.value, (int, float)) and not isinstance(
                result.value, bool
            ):
                result.value = result.value + 1
        return results


def test_campaign_catches_wrong_answers() -> None:
    spec = campaign_from_dict(_mini_campaign())
    plane = _CorruptingPlane(spec.nodes, seed=spec.seed, num_frontends=2)
    report = CampaignRunner(spec, plane).run()
    assert not report["ok"]
    assert report["invariants"]["by_invariant"].get("differential", 0) > 0


def test_campaign_catches_leaked_inflight_entries(monkeypatch) -> None:
    def leaky_close(self, key):
        execution = self._executions.get(key)  # never popped: the leak
        return list(execution.subscribers) if execution is not None else []

    monkeypatch.setattr(InflightTable, "close", leaky_close)
    # Distinct query texts throughout: a repeat of a "closed" query would
    # subscribe to the leaked entry and hang, which is not the invariant
    # under test here.
    doc = _mini_campaign(
        phases=[
            {
                "name": "only",
                "duration": 8,
                "queries": [
                    {
                        "text": "SELECT COUNT(*) WHERE g = true",
                        "count": 1,
                        "start": 0.0,
                        "stop": 2.0,
                    },
                    {
                        "text": "SELECT SUM(cpu) WHERE g = true",
                        "count": 1,
                        "start": 2.0,
                        "stop": 4.0,
                    },
                ],
            }
        ],
        attributes=[
            {"name": "cpu", "distribution": "uniform", "low": 0, "high": 9}
        ],
        oracle={"check_differential": False},
    )
    spec = campaign_from_dict(doc)
    report = run_campaign(spec, plane="sim")
    assert not report["ok"]
    assert report["invariants"]["by_invariant"].get("inflight", 0) > 0


def test_campaign_catches_probe_storms(monkeypatch) -> None:
    # Disable every probe-suppression layer: the shared size tier always
    # misses and never joins an in-flight probe, and the front-ends stop
    # deduping and sharing -- so each query of the batch probes for
    # itself, busting the one-wire-probe-per-attribute budget.
    monkeypatch.setattr(
        SharedGroupSizeCache, "get", lambda self, *a, **k: None
    )
    monkeypatch.setattr(
        SharedGroupSizeCache, "join_probe", lambda self, *a, **k: False
    )
    doc = _mini_campaign(
        groups=[{"attr": "a", "size": 8}, {"attr": "b", "size": 8}],
        frontend_config={
            "dedupe_probes": False,
            "share_subqueries": False,
            "piggyback_sizes": False,
        },
        phases=[
            {
                "name": "storm",
                "duration": 2,
                "queries": [
                    {
                        "text": "SELECT COUNT(*) WHERE a = true OR b = true",
                        "count": 6,
                    }
                ],
            }
        ],
        oracle={"check_differential": False, "check_inflight": False},
    )
    spec = campaign_from_dict(doc)
    report = run_campaign(spec, plane="sim")
    assert not report["ok"]
    assert report["invariants"]["by_invariant"].get("probes", 0) > 0


# ----------------------------------------------------------------------
# the standing-query plane under a scripted social scenario
# ----------------------------------------------------------------------


def test_standing_campaign_on_both_planes() -> None:
    spec = load_campaign(REPO / "campaigns" / "standing_social.yaml")
    for plane in ("sim", "loopback"):
        report = run_campaign(spec, plane=plane)
        assert report["ok"], (plane, report["invariants"])
        assert report["invariants"]["standing_checked"] > 0
        totals = report["totals"]["standing"]
        assert totals["registered"] == 4
        assert totals["updates"] > 0
        assert totals["expired"] >= 1, "the never-renewed lease must lapse"
        assert totals["cancelled"] >= 1
        for phase in report["phases"]:
            assert "standing_active" in phase


def test_overlay_churn_campaign_on_both_planes() -> None:
    """Joins and leaves interleaved with membership waves: 11 differential
    violations before ``MoaraNode.on_membership_change`` dropped the
    reports of re-parented children and re-derived on a gained child."""
    spec = load_campaign(REPO / "campaigns" / "overlay_churn.yaml")
    for plane in ("sim", "loopback"):
        report = run_campaign(spec, plane=plane)
        assert report["ok"], (plane, report["invariants"])
        assert report["invariants"]["compared"] > 150
        assert report["invariants"]["standing_checked"] > 0


def test_campaign_catches_corrupted_standing_folds(monkeypatch) -> None:
    """Mutation: a front-end that folds deltas into the wrong value must
    trip the ``standing`` invariant at the next quiesced checkpoint."""
    import dataclasses

    from repro.standing.manager import StandingQueryManager

    original = StandingQueryManager._fold

    def corrupt(self, sub, now):
        original(self, sub, now)
        seq, result = sub.handle.updates[-1]
        if isinstance(result.value, (int, float)):
            sub.handle.updates[-1] = (
                seq, dataclasses.replace(result, value=result.value + 17)
            )

    monkeypatch.setattr(StandingQueryManager, "_fold", corrupt)
    report = run_campaign(
        load_campaign(REPO / "campaigns" / "standing_social.yaml"),
        plane="sim",
    )
    assert not report["ok"]
    assert report["invariants"]["by_invariant"].get("standing", 0) > 0
