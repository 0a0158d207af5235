"""Message and byte accounting.

Every bandwidth number in the paper (Figs. 9, 10, 11, 12(a)) is a message
count: "average number of messages per node", "query cost", "update cost".
:class:`MessageStats` mirrors that accounting.  Counters can be snapshotted
and diffed so one simulation can serve several measurement windows (e.g.,
the warm-up join phase is excluded exactly as in the paper's Emulab runs).

Per-query accounting: with many queries in flight at once, "total messages
between submit and answer" no longer attributes cost to the right query.
The network therefore tags every message that carries a query/probe id
(``tag``), and :class:`MessageStats` keeps a per-tag counter that the
front-end drains into exact per-query message costs; completed queries are
appended to a :class:`QueryRecord` ledger for throughput/latency analysis.

Counts-only vs detailed bytes: by default the stats run *counts-only* --
:attr:`MessageStats.detailed_bytes` is False and the network records every
message with size 0, skipping the recursive payload walk entirely (the
simulator's former number-one hot spot).  Set ``detailed_bytes=True`` to
restore per-message byte estimation for the bandwidth figures;
:attr:`MessageStats.total_bytes` is only meaningful in that mode.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Optional

#: how many recently closed query tags are remembered so that straggler
#: messages (late child responses after a timeout) cannot re-create a
#: drained per-query counter entry
_CLOSED_TAG_MEMORY = 4096

__all__ = ["MessageStats", "QueryRecord", "StatsSnapshot"]


#: adaptive-TTL histogram bucket edges, in seconds (see
#: :meth:`MessageStats.record_adaptive_ttl`).
_TTL_BUCKETS = (1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """One completed query, as recorded by a front-end."""

    qid: str
    latency: float
    messages: int
    probe_latency: float = 0.0
    #: index of the front-end shard that executed the query (0 for the
    #: primary front-end; see repro.core.shard_router).
    shard: int = 0
    #: True when the query rode an already-in-flight shared sub-query
    #: (its marginal message cost is 0 for the shared portion).
    shared: bool = False
    #: True when at least one sub-query was answered by subscribing to an
    #: identical in-flight execution at the root (cross-front-end
    #: sub-query sharing; fresh data, zero marginal tree messages).
    root_shared: bool = False
    completed_at: float = 0.0


@dataclass(frozen=True)
class StatsSnapshot:
    """An immutable copy of the counters at one instant."""

    total_messages: int
    total_bytes: int
    by_type: dict[str, int]
    sent_by_node: dict[int, int]
    received_by_node: dict[int, int]

    def messages_of(self, *types: str) -> int:
        """Total messages whose type is one of ``types``."""
        return sum(self.by_type.get(t, 0) for t in types)


@dataclass
class MessageStats:
    """Mutable counters updated by :class:`repro.sim.network.Network`."""

    total_messages: int = 0
    total_bytes: int = 0
    by_type: Counter = field(default_factory=Counter)
    sent_by_node: Counter = field(default_factory=Counter)
    received_by_node: Counter = field(default_factory=Counter)
    dropped_messages: int = 0
    #: messages attributed to an in-flight query/probe tag; drained by the
    #: front-end via :meth:`pop_tag` when the query (or probe) completes.
    per_query: Counter = field(default_factory=Counter)
    #: completed-query ledger, appended to by front-ends.
    query_log: list[QueryRecord] = field(default_factory=list)
    #: ledger bound: when full, the oldest half is dropped (and counted in
    #: :attr:`query_log_dropped`) so endless monitoring runs stay bounded.
    max_query_log: int = 100_000
    query_log_dropped: int = 0
    #: sub-queries a tree root answered by subscribing them to an
    #: identical in-flight execution (see :mod:`repro.core.inflight`).
    root_subscriptions: int = 0
    #: sharded-query-plane counters (see repro.core.shard_router and
    #: SharedGroupSizeCache in repro.core.plan_cache): queries submitted
    #: per front-end shard, shared-size-cache lookups per shard, and
    #: cluster-wide cross-shard probe joins (a probe another shard had
    #: already sent was reused instead of a duplicate wire probe).
    shard_queries: Counter = field(default_factory=Counter)
    shard_size_hits: Counter = field(default_factory=Counter)
    shard_size_misses: Counter = field(default_factory=Counter)
    shared_probe_joins: int = 0
    #: histogram of per-entry TTLs assigned by the churn-adaptive policies
    #: (repro.core.adaptive_ttl), bucketed by upper edge in seconds.
    adaptive_ttl_hist: Counter = field(default_factory=Counter)
    #: serve-plane link health (see repro.serve.resilience): successful
    #: reconnects of a dead transport link, sends that failed fast on a
    #: dead link (surfaced as explicitly failed queries rather than
    #: silent drops), circuit-breaker trips, and frames dropped because
    #: their end-to-end deadline budget had already expired.
    link_reconnects: int = 0
    link_send_failures: int = 0
    breaker_trips: int = 0
    deadline_expired: int = 0
    #: queries that completed with an explicit link-failure NULL
    #: resolution (QueryResult.failed).
    failed_queries: int = 0
    #: event-wheel kernel observability (see repro.sim.network): messages
    #: whose arrive+deliver pair was fused into a single scheduled event
    #: (constant-receive-service models), and messages delivered through a
    #: batched same-tick fan-out entry (one scheduler operation for a
    #: whole ``send_many``).  Pure diagnostics -- the protocol-visible
    #: message counters above are independent of either optimization.
    fused_deliveries: int = 0
    batched_messages: int = 0
    #: standing-query plane counters (see repro.standing): subscriptions
    #: registered at front-ends, folded live-answer updates emitted,
    #: planner cover re-evaluations triggered by churned group sizes,
    #: root-side lease expiries, and explicit cancels.
    standing_registered: int = 0
    standing_updates: int = 0
    standing_replans: int = 0
    standing_expired: int = 0
    standing_cancelled: int = 0
    #: opt-in byte accounting: when True the network estimates every
    #: message's wire size (recursive payload walk) and feeds
    #: :attr:`total_bytes`; when False (the default, counts-only mode) it
    #: records size 0 and never touches the payload.  Configuration, not a
    #: counter: :meth:`reset` leaves it unchanged.
    detailed_bytes: bool = False
    #: recently drained tags (LRU set): tagged stragglers arriving after
    #: :meth:`pop_tag` are counted in the aggregates but not re-attributed.
    _closed_tags: OrderedDict = field(default_factory=OrderedDict)

    def record_send(
        self,
        src: int,
        dst: int,
        mtype: str,
        size: int,
        tag: Optional[str] = None,
    ) -> None:
        """Count one message leaving ``src`` for ``dst``.

        ``tag`` attributes the message to one logical query or probe (the
        payload's query id); untagged control traffic (status updates,
        state sync) is counted only in the aggregate counters.
        """
        self.total_messages += 1
        self.total_bytes += size
        self.by_type[mtype] += 1
        self.sent_by_node[src] += 1
        self.received_by_node[dst] += 1
        if tag is not None and tag not in self._closed_tags:
            self.per_query[tag] += 1

    def record_drop(self) -> None:
        """Count a message that was lost (e.g., destination crashed)."""
        self.dropped_messages += 1

    # ------------------------------------------------------------------
    # per-query accounting
    # ------------------------------------------------------------------

    def tagged(self, tag: str) -> int:
        """Messages attributed to ``tag`` so far."""
        return self.per_query.get(tag, 0)

    def pop_tag(self, tag: str) -> int:
        """Drain and return the message count attributed to ``tag``.

        The tag is tombstoned: stragglers sent after the drain no longer
        accumulate under it (bounding :attr:`per_query` for long runs).
        """
        self._closed_tags[tag] = None
        if len(self._closed_tags) > _CLOSED_TAG_MEMORY:
            self._closed_tags.popitem(last=False)
        return self.per_query.pop(tag, 0)

    def record_adaptive_ttl(self, ttl: float) -> None:
        """Count one adaptive-TTL assignment in the bucketed histogram."""
        for edge in _TTL_BUCKETS:
            if ttl <= edge:
                self.adaptive_ttl_hist[f"<={edge:g}s"] += 1
                return
        self.adaptive_ttl_hist[f">{_TTL_BUCKETS[-1]:g}s"] += 1

    def record_query(self, record: QueryRecord) -> None:
        """Append one completed query to the ledger (bounded)."""
        if len(self.query_log) >= self.max_query_log:
            drop = self.max_query_log // 2
            del self.query_log[:drop]
            self.query_log_dropped += drop
        self.query_log.append(record)

    @property
    def queries_completed(self) -> int:
        """Total completed queries, including any trimmed off the ledger."""
        return len(self.query_log) + self.query_log_dropped

    def avg_messages_per_query(self) -> float:
        """Mean per-query marginal message cost over the ledger."""
        if not self.query_log:
            return 0.0
        return sum(r.messages for r in self.query_log) / len(self.query_log)

    def avg_query_latency(self) -> float:
        """Mean completion latency over the ledger."""
        if not self.query_log:
            return 0.0
        return sum(r.latency for r in self.query_log) / len(self.query_log)

    def query_latency_percentile(self, fraction: float) -> float:
        """Latency at the given fraction (0 < fraction <= 1) of the ledger."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if not self.query_log:
            return 0.0
        ordered = sorted(r.latency for r in self.query_log)
        index = max(0, math.ceil(fraction * len(ordered)) - 1)
        return ordered[index]

    def snapshot(self) -> StatsSnapshot:
        """Freeze the current counters."""
        return StatsSnapshot(
            total_messages=self.total_messages,
            total_bytes=self.total_bytes,
            by_type=dict(self.by_type),
            sent_by_node=dict(self.sent_by_node),
            received_by_node=dict(self.received_by_node),
        )

    def reset(self) -> None:
        """Zero all counters (start of a measurement window)."""
        self.total_messages = 0
        self.total_bytes = 0
        self.by_type.clear()
        self.sent_by_node.clear()
        self.received_by_node.clear()
        self.dropped_messages = 0
        self.per_query.clear()
        self.query_log.clear()
        self.query_log_dropped = 0
        self.root_subscriptions = 0
        self.shard_queries.clear()
        self.shard_size_hits.clear()
        self.shard_size_misses.clear()
        self.shared_probe_joins = 0
        self.adaptive_ttl_hist.clear()
        self.link_reconnects = 0
        self.link_send_failures = 0
        self.breaker_trips = 0
        self.deadline_expired = 0
        self.failed_queries = 0
        self.fused_deliveries = 0
        self.batched_messages = 0
        self.standing_registered = 0
        self.standing_updates = 0
        self.standing_replans = 0
        self.standing_expired = 0
        self.standing_cancelled = 0
        self._closed_tags.clear()

    def messages_per_node(self, num_nodes: int) -> float:
        """The paper's headline bandwidth metric (Figs. 9 and 10)."""
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        return self.total_messages / num_nodes

    def delta_since(self, earlier: StatsSnapshot) -> StatsSnapshot:
        """Counters accumulated since ``earlier`` was taken."""
        by_type = {
            mtype: count - earlier.by_type.get(mtype, 0)
            for mtype, count in self.by_type.items()
            if count - earlier.by_type.get(mtype, 0)
        }
        sent = {
            node: count - earlier.sent_by_node.get(node, 0)
            for node, count in self.sent_by_node.items()
            if count - earlier.sent_by_node.get(node, 0)
        }
        received = {
            node: count - earlier.received_by_node.get(node, 0)
            for node, count in self.received_by_node.items()
            if count - earlier.received_by_node.get(node, 0)
        }
        return StatsSnapshot(
            total_messages=self.total_messages - earlier.total_messages,
            total_bytes=self.total_bytes - earlier.total_bytes,
            by_type=by_type,
            sent_by_node=sent,
            received_by_node=received,
        )
