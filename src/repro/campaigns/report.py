"""Campaign report assembly: one JSON schema for both planes.

The report a campaign run emits is versioned (``schema``) and has the
same key structure whether it ran on the simulator or the loopback
deployed plane, so runs can be diffed across planes, archived as CI
artifacts, and consumed by ``scripts/perf_guard.py`` without
plane-specific parsing.

Layout::

    schema, campaign, description, plane, seed, nodes, frontends,
    wall_s,
    phases: [
      { name, duration, batches, queries, latency{...},
        messages{total, by_type}, cache{...}, failed_queries,
        standing_active, failures[...], violations[...] }
    ],
    totals:     { queries, batches, messages, failed_queries,
                  standing{...}, violations },
    invariants: { checked, compared, standing_checked, skipped_epoch,
                  explicit_failures, violations, by_invariant },
    ok
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.query import QueryResult
from repro.sim.stats import StatsSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaigns.oracle import InvariantChecker
    from repro.campaigns.planes import CampaignPlane
    from repro.campaigns.schema import CampaignSpec, PhaseSpec

__all__ = ["REPORT_SCHEMA", "final_report", "latency_summary", "phase_report"]

#: bump when the report's key structure changes
REPORT_SCHEMA = 1


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]


def latency_summary(results: list[QueryResult]) -> dict:
    """Latency distribution plus answer-path counters for one result set."""
    ordered = sorted(result.latency for result in results)
    return {
        "count": len(results),
        "mean": (sum(ordered) / len(ordered)) if ordered else 0.0,
        "p50": _percentile(ordered, 0.50),
        "p95": _percentile(ordered, 0.95),
        "max": ordered[-1] if ordered else 0.0,
    }


def _cache_summary(results: list[QueryResult]) -> dict:
    return {
        "plan_cached": sum(1 for r in results if r.plan_cached),
        "root_shared": sum(1 for r in results if r.root_shared),
        "shared": sum(1 for r in results if r.shared),
    }


def phase_report(
    phase: "PhaseSpec",
    results: list[QueryResult],
    batches: int,
    delta: StatsSnapshot,
    violations: list[dict],
    failures: list[dict],
    standing_active: int = 0,
) -> dict:
    """The per-phase section of the campaign report."""
    return {
        "name": phase.name,
        "duration": phase.duration,
        "batches": batches,
        "queries": len(results),
        "latency": latency_summary(results),
        "messages": {
            "total": delta.total_messages,
            "by_type": dict(sorted(delta.by_type.items())),
        },
        "cache": _cache_summary(results),
        "failed_queries": sum(1 for r in results if r.failed),
        "standing_active": standing_active,
        "failures": failures,
        "violations": violations,
    }


def final_report(
    spec: "CampaignSpec",
    plane: "CampaignPlane",
    phases: list[dict],
    checker: "InvariantChecker",
    wall_s: float,
) -> dict:
    """Assemble the complete versioned report."""
    invariants = checker.summary()
    stats = plane.stats
    return {
        "schema": REPORT_SCHEMA,
        "campaign": spec.name,
        "description": spec.description,
        "plane": plane.name,
        "seed": spec.seed,
        "nodes": spec.nodes,
        "frontends": spec.frontends,
        "wall_s": round(wall_s, 3),
        "phases": phases,
        "totals": {
            "queries": sum(p["queries"] for p in phases),
            "batches": sum(p["batches"] for p in phases),
            "messages": sum(p["messages"]["total"] for p in phases),
            "root_subscriptions": stats.root_subscriptions,
            "shared_probe_joins": stats.shared_probe_joins,
            "standing": plane.standing_stats(),
            "failed_queries": sum(p["failed_queries"] for p in phases),
            "violations": invariants["violations"],
        },
        "invariants": invariants,
        "ok": invariants["violations"] == 0,
    }
