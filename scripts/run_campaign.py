#!/usr/bin/env python
"""Run a declarative scenario campaign and emit its JSON report.

Usage::

    PYTHONPATH=src python scripts/run_campaign.py campaigns/flash_crowd.yaml
    PYTHONPATH=src python scripts/run_campaign.py campaigns/flash_crowd.yaml \
        --plane loopback --out report.json

Exit status: 0 when the run completes with zero invariant violations,
1 when any invariant was violated (the report is still written), 2 on
a schema/usage error.  See ``docs/CAMPAIGNS.md`` for the YAML schema
and the invariant list.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.campaigns import CampaignSchemaError, load_campaign, run_campaign


def _summarize(report: dict) -> str:
    lines = [
        f"campaign : {report['campaign']} ({report['plane']} plane, "
        f"seed {report['seed']})",
        f"cluster  : {report['nodes']} nodes, "
        f"{report['frontends']} front-ends",
        f"wall     : {report['wall_s']:.2f}s",
    ]
    for phase in report["phases"]:
        latency = phase["latency"]
        lines.append(
            f"  phase {phase['name']!r}: {phase['queries']} queries in "
            f"{phase['batches']} batches, "
            f"p50={latency['p50']:.4f}s p95={latency['p95']:.4f}s, "
            f"{phase['messages']['total']} msgs, "
            f"{len(phase['violations'])} violations"
        )
    inv = report["invariants"]
    lines.append(
        f"oracle   : {inv['checked']} answers checked, {inv['compared']} "
        f"differentially compared, {inv['skipped_epoch']} skipped (churn), "
        f"{inv['violations']} violations"
    )
    if inv["by_invariant"]:
        lines.append(f"breaches : {inv['by_invariant']}")
    lines.append("status   : " + ("OK" if report["ok"] else "VIOLATIONS"))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a scenario campaign against a Moara plane."
    )
    parser.add_argument("campaign", help="path to a campaign .yaml/.json")
    parser.add_argument(
        "--plane",
        choices=("sim", "loopback"),
        default="sim",
        help="system under test (default: sim)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the campaign's seed",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the JSON report here (default: stdout summary only)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the full JSON report to stdout instead of the summary",
    )
    args = parser.parse_args(argv)

    try:
        spec = load_campaign(args.campaign)
    except (CampaignSchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        spec = type(spec)(**{**spec.__dict__, "seed": args.seed})

    report = run_campaign(spec, plane=args.plane)

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_summarize(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
