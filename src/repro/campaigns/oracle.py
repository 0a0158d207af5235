"""The campaign correctness oracle: online invariant checking.

Every campaign run is also a test run.  After each query batch (and at
every phase boundary) the :class:`InvariantChecker` validates the system
against four invariants, recording a violation dict for each breach:

``differential``
    Every query answer must match the centralized oracle
    (:func:`repro.baselines.centralized_answer`) folded over the live
    attribute stores -- the same ground truth the paper's Figure 15
    baseline computes, minus the network.  Batches that overlapped a
    membership change are skipped (trees may legitimately be
    mid-repair).

``probes``
    One wire probe per group, cluster-wide: within one concurrent
    batch, the number of ``SIZE_PROBE`` wire messages must not exceed
    the number of distinct predicate attributes across the batch (plus
    a configurable slack for planner-driven extra probes).

``inflight``
    No leaked entries: at a quiesced phase boundary, every in-flight
    table in the plane (front-end pending queries / probes / shared
    waits, node execution tables, shared-cache probe registry) must be
    empty.

``standing``
    The standing-query contract: at every quiesced phase boundary the
    folded answer of each active :class:`~repro.standing.manager.
    StandingHandle` must equal the centralized recompute over live
    membership (no in-flight deltas exist at quiesce, so eventual
    consistency collapses to equality).  The companion leak check rides
    the ``inflight`` invariant: ``standing_orphans`` counts node-side
    subscription entries no front-end still considers active.

Violations don't abort the run -- they are collected into the report
(and the CLI exits non-zero if any exist), so one campaign surfaces
every breach, not just the first.
"""

from __future__ import annotations

import math
from typing import Any, Union

from repro.baselines.centralized import centralized_answer
from repro.core.messages import SIZE_PROBE
from repro.core.parser import parse_query
from repro.core.query import Query, QueryResult
from repro.sim.stats import StatsSnapshot

from repro.campaigns.planes import CampaignPlane
from repro.campaigns.schema import OracleSpec

__all__ = ["InvariantChecker", "values_equal"]


def values_equal(a: Any, b: Any, tolerance: float = 1e-9) -> bool:
    """Structural equality with float tolerance.

    Aggregates return numbers (COUNT, SUM, AVG), sequences (TOPK,
    ENUMERATE), and mappings (HISTOGRAM); compare each shape
    recursively so ``0.30000000000000004 == 0.3`` doesn't fail a run.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=tolerance, abs_tol=tolerance)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            values_equal(x, y, tolerance) for x, y in zip(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(
            values_equal(a[k], b[k], tolerance) for k in a
        )
    return a == b


class InvariantChecker:
    """Validates one campaign run online; accumulates violations."""

    def __init__(self, spec: OracleSpec, plane: CampaignPlane) -> None:
        self.spec = spec
        self.plane = plane
        self.violations: list[dict] = []
        self.checked = 0
        #: answers compared against the centralized recompute.
        self.compared = 0
        #: standing-handle differential checks run at phase boundaries.
        self.standing_checked = 0
        self.skipped_epoch = 0
        #: queries that resolved as *explicit* failures (link chaos):
        #: allowed under the contract -- a failed answer is never a
        #: wrong answer -- but reported, so a chaos campaign shows how
        #: much of the workload the faults actually hit.
        self.explicit_failures = 0
        #: chaos-injected SIZE_PROBE duplicates already accounted for
        #: (the wire's doing, not a front-end dedup regression).
        self._dup_probes_seen = 0

    # ------------------------------------------------------------------

    def _record(self, invariant: str, detail: dict) -> None:
        self.violations.append({"invariant": invariant, **detail})

    def _ground_truth(self, query: Union[str, Query]) -> Any:
        return centralized_answer(query, self.plane.live_stores())

    # ------------------------------------------------------------------
    # per-batch checks
    # ------------------------------------------------------------------

    def check_batch(
        self,
        phase: str,
        queries: list[str],
        results: list[QueryResult],
        before: StatsSnapshot,
        membership_stable: bool,
    ) -> None:
        """Validate one concurrent batch that just completed.

        ``before`` is the wire-stats snapshot taken just before the
        batch was submitted; ``membership_stable`` is False when any
        churn/failure/join was applied since the previous quiesce, which
        suppresses the differential check (the probe check still runs --
        its contract holds under churn).
        """
        self.checked += len(results)
        if self.spec.check_probes:
            self._check_probe_budget(phase, queries, before)
        for text, result in zip(queries, results):
            if result.failed:
                # The Section 7 contract under link chaos: the plane may
                # answer NULL-with-a-reason, never silently wrong.  The
                # differential would flag the NULL as a mismatch, so an
                # explicit failure is exempt (and counted).
                self.explicit_failures += 1
                continue
            if not self.spec.check_differential:
                continue
            if not membership_stable:
                self.skipped_epoch += 1
                continue
            self.compared += 1
            self._check_differential(phase, text, result)

    def _check_differential(
        self, phase: str, text: str, result: QueryResult
    ) -> None:
        expected = self._ground_truth(result.query)
        if values_equal(result.value, expected, self.spec.tolerance):
            return
        self._record(
            "differential",
            {
                "phase": phase,
                "query": text,
                "got": result.value,
                "expected": expected,
            },
        )

    def _check_probe_budget(
        self, phase: str, queries: list[str], before: StatsSnapshot
    ) -> None:
        delta = self.plane.stats.delta_since(before)
        probes = delta.by_type.get(SIZE_PROBE, 0)
        # Chaos-duplicated probes are extra copies the *wire* made; the
        # dedup contract binds the front-ends, so the budget grows by
        # the duplicates injected during this batch.
        dup_total = self.plane.probe_duplicates()
        dup_delta = dup_total - self._dup_probes_seen
        self._dup_probes_seen = dup_total
        attrs: set[str] = set()
        for text in queries:
            attrs |= parse_query(text).predicate.attributes()
        budget = len(attrs) + self.spec.probe_slack + dup_delta
        if probes > budget:
            self._record(
                "probes",
                {
                    "phase": phase,
                    "probes": probes,
                    "budget": budget,
                    "distinct_attrs": len(attrs),
                    "batch_size": len(queries),
                },
            )

    # ------------------------------------------------------------------
    # phase-boundary checks
    # ------------------------------------------------------------------

    def check_phase_end(self, phase: str) -> None:
        """Validate a quiesced phase boundary (no leaked in-flight state)."""
        if not self.spec.check_inflight:
            return
        leaks = self.plane.inflight_leaks()
        leaked = {table: count for table, count in leaks.items() if count}
        if leaked:
            self._record("inflight", {"phase": phase, "leaked": leaked})

    def check_standing(self, phase: str, handles: list) -> None:
        """Differentially validate every active standing query at a
        quiesced phase boundary: with no deltas in flight, each handle's
        folded answer must equal the centralized recompute over live
        membership -- the standing plane's whole correctness claim."""
        if not self.spec.check_differential:
            return
        for handle in handles:
            if not handle.active:
                continue
            self.standing_checked += 1
            expected = self._ground_truth(handle.query)
            got = handle.current_value()
            if values_equal(got, expected, self.spec.tolerance):
                continue
            self._record(
                "standing",
                {
                    "phase": phase,
                    "query": handle.query.canonical(),
                    "sub_id": handle.sub_id,
                    "got": got,
                    "expected": expected,
                    "update_seq": handle.update_seq,
                    "cover": list(handle.cover),
                },
            )

    # ------------------------------------------------------------------

    def summary(self) -> dict:
        by_invariant: dict[str, int] = {}
        for violation in self.violations:
            name = violation["invariant"]
            by_invariant[name] = by_invariant.get(name, 0) + 1
        return {
            "checked": self.checked,
            "compared": self.compared,
            "standing_checked": self.standing_checked,
            "skipped_epoch": self.skipped_epoch,
            "explicit_failures": self.explicit_failures,
            "violations": len(self.violations),
            "by_invariant": by_invariant,
        }
