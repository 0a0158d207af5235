"""Declarative scenario campaigns with a built-in correctness oracle.

A campaign is a YAML/JSON document describing a full evaluation
scenario -- cluster shape, groups, timed phases of query mixes, churn
waves, and correlated failures -- executed seeded and reproducibly
against either the in-process simulator or the loopback deployed plane,
while an invariant checker validates every batch against the
centralized oracle.  See ``docs/CAMPAIGNS.md`` and the shipped
scenarios under ``campaigns/``.

* :mod:`repro.campaigns.schema` -- the document schema and loader
* :mod:`repro.campaigns.planes` -- the two execution planes
* :mod:`repro.campaigns.oracle` -- the online invariant checker
* :mod:`repro.campaigns.driver` -- timeline compilation and execution
* :mod:`repro.campaigns.report` -- the versioned JSON report
"""

from repro.campaigns.driver import CampaignRunner, run_campaign
from repro.campaigns.oracle import InvariantChecker, values_equal
from repro.campaigns.planes import (
    CampaignPlane,
    LoopbackPlane,
    SimPlane,
    build_plane,
)
from repro.campaigns.report import REPORT_SCHEMA, latency_summary
from repro.campaigns.schema import (
    CampaignSchemaError,
    CampaignSpec,
    campaign_from_dict,
    load_campaign,
)

__all__ = [
    "REPORT_SCHEMA",
    "CampaignPlane",
    "CampaignRunner",
    "CampaignSchemaError",
    "CampaignSpec",
    "InvariantChecker",
    "LoopbackPlane",
    "SimPlane",
    "build_plane",
    "campaign_from_dict",
    "latency_summary",
    "load_campaign",
    "run_campaign",
    "values_equal",
]
