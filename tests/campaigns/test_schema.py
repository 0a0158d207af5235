"""Schema layer: strict validation, path-anchored errors, file loading."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaigns.schema import (
    CampaignSchemaError,
    all_schema_keys,
    campaign_from_dict,
    load_campaign,
)

REPO = Path(__file__).resolve().parent.parent.parent

yaml = pytest.importorskip("yaml", reason="campaign YAML needs PyYAML")


def _minimal(**overrides) -> dict:
    doc = {
        "name": "t",
        "nodes": 8,
        "phases": [
            {
                "name": "p",
                "duration": 5,
                "queries": [
                    {"text": "SELECT COUNT(*) WHERE g = true", "rate": 1.0}
                ],
            }
        ],
    }
    doc.update(overrides)
    return doc


def test_minimal_document_validates() -> None:
    spec = campaign_from_dict(_minimal())
    assert spec.name == "t"
    assert spec.nodes == 8
    assert len(spec.phases) == 1
    assert spec.phases[0].queries[0].arrival == "poisson"
    assert spec.oracle.check_differential


def test_defaults_are_filled() -> None:
    spec = campaign_from_dict(_minimal())
    assert spec.seed == 0
    assert spec.frontends == 2
    assert spec.latency == "zero"
    assert spec.batch_window == 1.0
    assert spec.oracle.check_differential


@pytest.mark.parametrize(
    "mutation, where",
    [
        ({"bogus_key": 1}, "bogus_key"),
        ({"latency": "carrier-pigeon"}, "latency"),
        ({"nodes": 0}, "nodes"),
        ({"phases": []}, "phase"),
        ({"node_config": {"no_such_knob": 1}}, "no_such_knob"),
        ({"frontend_config": {"no_such_knob": 1}}, "no_such_knob"),
        ({"oracle": {"sample_rate": 1.0}}, "sample_rate"),
    ],
)
def test_top_level_rejections(mutation: dict, where: str) -> None:
    with pytest.raises(CampaignSchemaError, match=where):
        campaign_from_dict(_minimal(**mutation))


def test_unknown_phase_key_names_the_path() -> None:
    doc = _minimal()
    doc["phases"][0]["surprise"] = True
    with pytest.raises(CampaignSchemaError, match=r"phases\[0\]"):
        campaign_from_dict(doc)


def test_query_needs_exactly_one_of_rate_or_count() -> None:
    doc = _minimal()
    doc["phases"][0]["queries"][0].pop("rate")
    with pytest.raises(CampaignSchemaError, match="rate"):
        campaign_from_dict(doc)
    doc["phases"][0]["queries"][0].update(rate=1.0, count=3)
    with pytest.raises(CampaignSchemaError, match="rate"):
        campaign_from_dict(doc)


def test_group_needs_exactly_one_of_size_or_fraction() -> None:
    for bad in ({"attr": "g"}, {"attr": "g", "size": 4, "fraction": 0.5}):
        with pytest.raises(CampaignSchemaError, match="size"):
            campaign_from_dict(_minimal(groups=[bad]))


def test_rack_failure_requires_rack() -> None:
    doc = _minimal()
    doc["phases"][0]["failures"] = [{"kind": "rack", "at": 1.0}]
    with pytest.raises(CampaignSchemaError, match="rack"):
        campaign_from_dict(doc)


def test_failure_past_phase_duration_is_rejected() -> None:
    doc = _minimal()
    doc["phases"][0]["failures"] = [{"kind": "crash", "at": 99.0}]
    with pytest.raises(CampaignSchemaError, match="duration"):
        campaign_from_dict(doc)


def test_load_campaign_json(tmp_path: Path) -> None:
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_minimal()))
    assert load_campaign(path).name == "t"


def test_load_campaign_invalid_json(tmp_path: Path) -> None:
    path = tmp_path / "c.json"
    path.write_text("{nope")
    with pytest.raises(CampaignSchemaError, match="invalid JSON"):
        load_campaign(path)


def test_load_campaign_yaml(tmp_path: Path) -> None:
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(_minimal()))
    assert load_campaign(path).name == "t"


def test_load_campaign_invalid_yaml(tmp_path: Path) -> None:
    path = tmp_path / "c.yaml"
    path.write_text("name: [unclosed")
    with pytest.raises(CampaignSchemaError, match="invalid YAML"):
        load_campaign(path)


def test_every_shipped_campaign_validates() -> None:
    shipped = sorted((REPO / "campaigns").glob("*.yaml"))
    assert len(shipped) >= 6, "the campaign library went missing"
    names = {load_campaign(path).name for path in shipped}
    assert len(names) == len(shipped), "campaign names must be unique"
    expected = {
        "cascading_rack_failure",
        "chaos_links",
        "datacenter_rollout",
        "diurnal_load",
        "flash_crowd",
        "overlay_churn",
        "smoke",
        "standing_social",
        "write_heavy_churn",
    }
    assert names == expected


def test_schema_key_union_is_complete() -> None:
    keys = all_schema_keys()
    for expected in (
        "name",
        "phases",
        "batch_window",
        "arrival",
        "detection_delay",
        "check_differential",
        "share_executions",
        "dedupe_probes",
        "standing",
        "cancel_at",
        "lease",
        "standing_replan_every",
    ):
        assert expected in keys
