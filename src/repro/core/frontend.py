"""The Moara front-end (paper Section 7, "Moara Front-End").

The front-end is the client-side interface: it parses queries, runs the
composite-query planner, optionally probes tree roots for query-cost
estimates, dispatches one sub-query per group in the chosen cover, and
merges the per-group partial aggregates into the final answer ("the
front-end waits until it receives all the results from sub-queries,
aggregates the results returned by the sub-queries, and returns the final
aggregate to the user").

Beyond the paper, this front-end is a *concurrent multi-query engine*
built for repeated, overlapping workloads:

* any number of queries can be in flight at once, keyed by query id;
* planning goes through a :class:`~repro.core.plan_cache.PlanCache`, so
  re-issued predicates skip CNF rewriting and semantic simplification;
* group sizes live in a TTL'd :class:`~repro.core.plan_cache.GroupSizeCache`
  fed by probe replies and by the cost piggybacked on every sub-query
  answer, so warm composite queries skip the ``2 * np`` probe round-trip;
* probes for the same group are deduplicated across concurrent queries;
* identical concurrent queries share one sub-query per cover group, with
  the answer fanned back out to every subscriber (batched dispatch).

The front-end is **transport-agnostic**: everything it needs from the
world is the :class:`repro.sim.network.FrontendTransport` seam (attach,
send, stats, a clock, and a synchronous-burst counter).  Attached to the
simulated :class:`~repro.sim.network.Network` it is a client machine
outside the overlay, exactly as before; attached to a
:class:`repro.serve.transport.RemoteNetwork` the *same code* is the core
of a deployed asyncio front-end server speaking real sockets
(:mod:`repro.serve.frontend_server`).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional, Union

from repro.core import messages as mt
from repro.core.adaptive_ttl import AdaptiveTTL
from repro.core.moara_node import group_attribute
from repro.core.parser import parse_query
from repro.core.plan_cache import (
    GroupSizeCache,
    PlanCache,
    SharedGroupSizeCache,
)
from repro.core.planner import (
    QueryPlan,
    SemanticContext,
    choose_cover,
    plan_predicate,
)
from repro.core.predicates import Predicate, TruePredicate
from repro.core.query import Query, QueryResult
from repro.pastry.overlay import Overlay
from repro.sim.network import FrontendTransport, Message
from repro.sim.stats import QueryRecord
from repro.standing.manager import (
    StandingHandle,
    StandingQueryManager,
    UpdateCallback,
)

__all__ = ["Frontend", "FrontendConfig", "ProbePolicy"]

ResultCallback = Callable[[QueryResult], None]


class ProbePolicy(Enum):
    """When the front-end sends size probes before a query."""

    #: Probe whenever the query involves more than one group (the paper's
    #: behaviour: all composite queries are preceded by size probes).
    COMPOSITE = "composite"
    #: Probe only when several candidate covers compete (pure unions skip).
    MULTI_COVER = "multi-cover"
    #: Never probe; break ties with default costs.
    NEVER = "never"


@dataclass(frozen=True)
class FrontendConfig:
    """Query-plane tunables for the concurrent front-end.

    The defaults enable all caching/batching layers; the all-disabled
    configuration (:meth:`uncached`) reproduces the seed's
    plan-and-probe-every-query behaviour for comparison benchmarks.
    """

    #: LRU size for memoized plans/covers; 0 disables plan caching.
    plan_cache_size: int = 1024
    #: Seconds a group-size estimate stays fresh; 0 disables the cache
    #: (every composite query probes, as in the paper).  With
    #: :attr:`adaptive_size_ttl` this is the *upper bound* of the per-entry
    #: TTL range (zero observed churn reproduces the fixed-TTL behaviour).
    size_cache_ttl: float = 60.0
    #: Lower bound for churn-adaptive size-cache TTLs: a churn storm can
    #: shrink entries to this, never below.
    size_cache_ttl_min: float = 5.0
    #: Scale each size-cache entry's TTL by the group's observed churn
    #: (changed cost estimates, overlay membership events) between
    #: ``size_cache_ttl_min`` and ``size_cache_ttl``.  Off = the PR 1
    #: fixed-TTL behaviour.
    adaptive_size_ttl: bool = True
    #: Decay window (seconds) of the churn-rate estimator feeding the
    #: adaptive TTLs (see :mod:`repro.core.adaptive_ttl`).
    churn_window: float = 30.0
    #: Identical concurrent queries share one sub-query per cover group.
    share_subqueries: bool = True
    #: Concurrent queries waiting on the same group share one size probe.
    dedupe_probes: bool = True
    #: Feed the size cache from the cost piggybacked on sub-query answers.
    piggyback_sizes: bool = True
    #: Re-run cover choice for each standing query every N folded
    #: updates (churn shifts group sizes; the size cache is kept warm by
    #: the cost piggybacked on standing updates).  0 disables replans.
    standing_replan_every: int = 64

    @classmethod
    def uncached(cls) -> "FrontendConfig":
        """The seed front-end: no caches, no batching, probe every time."""
        return cls(
            plan_cache_size=0,
            size_cache_ttl=0.0,
            size_cache_ttl_min=0.0,
            adaptive_size_ttl=False,
            share_subqueries=False,
            dedupe_probes=False,
            piggyback_sizes=False,
        )


@dataclass
class _PendingQuery:
    """One submitted query, from planning to completion."""

    qid: str
    query: Query
    plan: QueryPlan
    started_at: float
    callback: Optional[ResultCallback]
    plan_cached: bool = False
    #: canonical group key -> cost estimate known so far (cache or probe)
    costs: dict[str, float] = field(default_factory=dict)
    #: canonical group keys still awaiting a probe answer
    needed: set[str] = field(default_factory=set)
    cover: list[str] = field(default_factory=list)
    probe_started: float = 0.0
    probe_latency: float = 0.0
    #: marginal messages charged to this query (its own probes; plus the
    #: shared sub-query's traffic iff this query initiated it)
    own_messages: int = 0
    shared: bool = False


@dataclass
class _ProbeInFlight:
    """One deduplicated size probe for one group."""

    key: str  # canonical group predicate
    tag: str  # message-accounting tag (the wire probe_id)
    initiator: str  # qid charged for the probe traffic
    waiters: list[str]  # qids awaiting this probe's answer
    root: int = -1  # tree root the probe was sent to
    #: engine event count at creation; joinable only within the same
    #: synchronous burst (no events processed in between)
    created_seq: int = 0


@dataclass
class _SharedSubQuery:
    """One dispatched (query, cover) execution, shared by identical
    concurrent queries; the answer fans back out to every subscriber."""

    share_id: str
    share_key: tuple
    query: Query
    cover: list[str]
    waiting: set[str]  # canonical keys of cover groups awaiting answers
    subscribers: list[str]  # qids, initiator first
    partial: Any = None
    contributors: int = 0
    #: canonical group key -> tree root its sub-query was sent to
    targets: dict[str, int] = field(default_factory=dict)
    #: engine event count at dispatch; joinable only within the same
    #: synchronous burst (no events processed in between)
    created_seq: int = 0
    #: cover groups whose reply carried the ``subscribed`` flag (the root
    #: answered us from an identical in-flight execution)
    subscribed_groups: int = 0
    #: set when a transport-link failure resolved this share NULL: the
    #: fan-out marks every subscriber's result as explicitly failed
    failed: bool = False
    failure: str = ""


class Frontend:
    """Client-side concurrent query coordinator."""

    def __init__(
        self,
        network: FrontendTransport,
        overlay: Overlay,
        node_id: int = -1,
        probe_policy: ProbePolicy = ProbePolicy.COMPOSITE,
        semantics: Optional[SemanticContext] = None,
        config: Optional[FrontendConfig] = None,
        shard_id: int = 0,
        shared_sizes: Optional[SharedGroupSizeCache] = None,
    ) -> None:
        self.network = network
        self.overlay = overlay
        self.node_id = node_id
        self.probe_policy = probe_policy
        self.semantics = semantics or SemanticContext()
        self.config = config or FrontendConfig()
        self.plan_cache: Optional[PlanCache] = (
            PlanCache(self.semantics, self.config.plan_cache_size)
            if self.config.plan_cache_size > 0
            else None
        )
        #: this front-end's index in the sharded query plane (0 for a
        #: standalone front-end; see repro.core.shard_router).
        self.shard_id = shard_id
        #: the cluster-wide size tier, when this front-end is one shard of
        #: a sharded query plane (None = private per-front-end cache).
        self._shared = shared_sizes
        if shared_sizes is not None:
            # Read through the shared tier; per-entry TTL policy (and the
            # churn it observes) lives in the tier, shared by all shards.
            self.size_cache = shared_sizes.view(shard_id)
            self._size_ttl_policy: Optional[AdaptiveTTL] = None
        else:
            policy = AdaptiveTTL.if_enabled(
                self.config.adaptive_size_ttl,
                self.config.size_cache_ttl_min,
                self.config.size_cache_ttl,
                self.config.churn_window,
            )
            self._size_ttl_policy = policy
            self.size_cache = GroupSizeCache(
                ttl=self.config.size_cache_ttl,
                ttl_policy=policy,
                on_ttl=(
                    network.stats.record_adaptive_ttl
                    if policy is not None
                    else None
                ),
            )
        #: canonical group key -> qids waiting on another shard's probe.
        self._shared_waits: dict[str, list[str]] = {}
        self._qid_counter = itertools.count(1)
        self._share_counter = itertools.count(1)
        #: the origin stamped on shares and named in tags (not the node
        #: id: a front-end restarted under a reused id is a new origin;
        #: issued on first use, dropped by a link failure), and its
        #: unheard shares' numbers in dispatch order.
        self._origin: Any = None
        self._unheard: dict[str, int] = {}
        self._pending_queries: dict[str, _PendingQuery] = {}
        #: probe tag -> in-flight probe
        self._probes: dict[str, _ProbeInFlight] = {}
        #: canonical group key -> tag of the joinable probe (dedup index)
        self._probe_by_group: dict[str, str] = {}
        #: (query canonical, cover) -> in-flight shared sub-query
        self._shares: dict[tuple, _SharedSubQuery] = {}
        self._share_by_id: dict[str, _SharedSubQuery] = {}
        self.results: dict[str, QueryResult] = {}
        #: completion signal: called with the qid of every query that
        #: finishes (stored or delivered to its callback).  The cluster's
        #: waiter registry plugs in here so drivers can sleep in
        #: ``Engine.run`` and be woken by ``Engine.request_stop`` instead
        #: of re-scanning ``results`` after every event (the old
        #: ``run_until`` slow path).
        self.on_query_complete: Optional[Callable[[str], None]] = None
        #: standing-query plane: registration, delta folding, leases,
        #: and enmeshed cover replans (see repro.standing.manager).
        self.standing = StandingQueryManager(self)
        network.attach(self)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(
        self,
        query: Union[str, Query],
        callback: Optional[ResultCallback] = None,
    ) -> str:
        """Parse/plan a query and start executing it; returns the query id.

        Any number of queries may be in flight at once.  The result lands
        in :attr:`results` (and the callback fires) once all sub-queries
        answer; drive the simulation engine to completion.
        """
        if isinstance(query, str):
            query = parse_query(query)
        qid = f"fe{self.node_id}-{next(self._qid_counter)}"
        now = self.network.now
        self.network.stats.shard_queries[self.shard_id] += 1
        plan, plan_cached = self._plan(query.predicate)

        if plan.unsatisfiable:
            # Figure 7's "{}" cover: provably no node satisfies the query.
            result = QueryResult(
                query=query,
                value=query.function.finalize(None),
                cover=[],
                short_circuited=True,
                plan_cached=plan_cached,
            )
            self.network.stats.record_query(
                QueryRecord(
                    qid=qid,
                    latency=0.0,
                    messages=0,
                    shard=self.shard_id,
                    completed_at=now,
                )
            )
            self._complete(qid, result, callback)
            return qid

        pending = _PendingQuery(
            qid=qid,
            query=query,
            plan=plan,
            started_at=now,
            callback=callback,
            plan_cached=plan_cached,
        )
        self._pending_queries[qid] = pending

        if plan.global_group:
            self._resolve_cover(pending, [TruePredicate()])
            return qid

        # Seed known costs from the group-size cache, then probe only the
        # groups the cache cannot answer for.
        groups = sorted(plan.all_groups(), key=lambda p: p.canonical())
        missing: list[Predicate] = []
        stats = self.network.stats
        for group in groups:
            cached = self.size_cache.get(group.canonical(), now)
            if cached is None:
                missing.append(group)
                stats.shard_size_misses[self.shard_id] += 1
            else:
                pending.costs[group.canonical()] = cached
                stats.shard_size_hits[self.shard_id] += 1

        if not (self._should_probe(plan) and missing):
            self._finish_planning(pending)
            return qid

        pending.probe_started = now
        pending.needed = {g.canonical() for g in missing}
        for group in missing:
            self._join_probe(pending.qid, group)
        return qid

    def submit_many(
        self, queries: list[Union[str, Query]]
    ) -> list[str]:
        """Submit a batch of queries in one tick; returns their ids.

        Identical queries in the batch share sub-queries and probes.
        """
        return [self.submit(query) for query in queries]

    def subscribe(
        self,
        query: Union[str, Query],
        on_update: Optional[UpdateCallback] = None,
        lease: float = 0.0,
    ) -> StandingHandle:
        """Register a standing query; returns its live handle.

        Unlike :meth:`submit`, the query stays resident: delta
        subscriptions are installed down the cover trees and every
        subsequent churn event folds into the handle's answer stream
        (see :mod:`repro.standing` for the ordering/staleness
        contract).  Cancel with ``frontend.standing.cancel(handle)``.
        """
        return self.standing.register(query, on_update=on_update, lease=lease)

    def _plan(self, predicate: Predicate) -> tuple[QueryPlan, bool]:
        if self.plan_cache is not None:
            return self.plan_cache.plan(predicate)
        return plan_predicate(predicate, self.semantics), False

    def _choose_cover(
        self, plan: QueryPlan, costs: dict[str, float]
    ):
        if self.plan_cache is not None:
            return self.plan_cache.cover(plan, costs)
        return choose_cover(plan, costs)

    def _should_probe(self, plan: QueryPlan) -> bool:
        if self.probe_policy is ProbePolicy.NEVER:
            return False
        if self.probe_policy is ProbePolicy.MULTI_COVER:
            return plan.needs_probes()
        # COMPOSITE: anything touching more than one group gets probed.
        return len(plan.all_groups()) > 1 or plan.needs_probes()

    @property
    def inflight(self) -> int:
        """Number of submitted queries that have not completed."""
        return len(self._pending_queries)

    # ------------------------------------------------------------------
    # probes (deduplicated across concurrent queries)
    # ------------------------------------------------------------------

    def _join_probe(self, qid: str, group: Predicate) -> None:
        key = group.canonical()
        seq = self.network.burst_seq
        if self.config.dedupe_probes:
            tag = self._probe_by_group.get(key)
            if tag is not None:
                probe = self._probes[tag]
                # Join only a probe issued in this same synchronous burst
                # (no engine events processed since).  An older entry may
                # be slow or lost (crashed root); joining it would let one
                # dropped SIZE_RESPONSE poison this group key forever.
                # The older probe stays in `_probes` so a merely-slow
                # answer still resolves its own waiters.
                if probe.created_seq == seq:
                    probe.waiters.append(qid)
                    return
            # Cluster-wide dedup: if another shard's wire probe for this
            # group is in flight in this same burst, subscribe to its
            # answer through the shared tier instead of duplicating it
            # (one probe per group cluster-wide, not per shard).
            if self._shared is not None and self._shared.join_probe(
                key, self.shard_id, seq, self._on_shared_size
            ):
                self._shared_waits.setdefault(key, []).append(qid)
                self.network.stats.shared_probe_joins += 1
                return
        if self._origin is None:
            self._origin = self.network.issue_origin()
        tag = f"pr{self._origin}-{next(self._share_counter)}"
        root = self.overlay.root(
            self.overlay.space.hash_name(group_attribute(group))
        )
        self._probes[tag] = _ProbeInFlight(
            key=key,
            tag=tag,
            initiator=qid,
            waiters=[qid],
            root=root,
            created_seq=seq,
        )
        if self.config.dedupe_probes:
            self._probe_by_group[key] = tag
            if self._shared is not None:
                self._shared.open_probe(
                    key, self.shard_id, tag, seq, self.network.now
                )
        self.network.send(
            self.node_id,
            root,
            mt.SIZE_PROBE,
            {"probe_id": tag, "predicate": group},
        )

    def _handle_size_response(self, message: Message) -> None:
        payload = message.payload
        key = payload["pred_key"]
        cost = payload["cost"]
        now = self.network.now
        probe = self._probes.pop(payload["probe_id"], None)
        # Exactly one write path for the answer: resolving a registered
        # shared probe force-publishes it to the tier (the prober is
        # that fill's designated writer) and releases every shard that
        # subscribed instead of sending its own probe; anything else --
        # unsolicited/duplicate answers, superseded probes, private
        # caches -- goes through the plain (single-writer-checked) put.
        released = None
        if probe is not None and self._shared is not None:
            released = self._shared.resolve_probe(
                probe.key, probe.tag, cost, now
            )
        if released is None:
            self.size_cache.put(key, cost, now)
        else:
            for callback in released:
                callback(key, cost, now)
        if probe is None:
            return  # unsolicited/duplicate answer: cached above, move on
        if self._probe_by_group.get(probe.key) == probe.tag:
            del self._probe_by_group[probe.key]
        probe_messages = self.network.stats.pop_tag(probe.tag)
        for qid in probe.waiters:
            pending = self._pending_queries.get(qid)
            if pending is None:
                continue
            pending.costs[key] = cost
            pending.needed.discard(key)
            if qid == probe.initiator:
                pending.own_messages += probe_messages
            if not pending.needed:
                pending.probe_latency = now - pending.probe_started
                self._finish_planning(pending)

    def _on_shared_size(
        self, key: str, cost: Optional[float], now: float
    ) -> None:
        """Another shard's probe for ``key`` resolved (shared-tier
        publish fan-out): resume every query of ours that was waiting on
        it.  ``cost`` is None when the probe resolved NULL (the probed
        root departed); the waiting queries then fall back to default
        costs, exactly as if our own probe had been resolved by churn.
        """
        for qid in self._shared_waits.pop(key, ()):
            pending = self._pending_queries.get(qid)
            if pending is None:
                continue
            if cost is not None:
                pending.costs[key] = cost
            pending.needed.discard(key)
            if not pending.needed:
                pending.probe_latency = now - pending.probe_started
                self._finish_planning(pending)

    # ------------------------------------------------------------------
    # cover choice and shared sub-query dispatch
    # ------------------------------------------------------------------

    def _finish_planning(self, pending: _PendingQuery) -> None:
        cover = self._choose_cover(pending.plan, pending.costs)
        self._resolve_cover(
            pending, sorted(cover, key=lambda p: p.canonical())
        )

    def _resolve_cover(
        self, pending: _PendingQuery, cover_groups: list[Predicate]
    ) -> None:
        pending.cover = [g.canonical() for g in cover_groups]
        # Share identity: attribute + full function signature (not the
        # display name, which can omit parameters) + predicate + cover.
        share_key = (
            pending.query.attr,
            pending.query.function.signature(),
            pending.query.predicate.canonical(),
            tuple(pending.cover),
        )
        seq = self.network.burst_seq
        if self.config.share_subqueries:
            share = self._shares.get(share_key)
            # Share only with an identical query dispatched in this same
            # synchronous burst (no engine events processed since).  An
            # older share may be stuck on a lost response; a new dispatch
            # below simply replaces it in the share index (the old one
            # still completes for its own subscribers if its answer is
            # merely slow).
            if share is not None and share.created_seq == seq:
                share.subscribers.append(pending.qid)
                pending.shared = True
                return
        if self._origin is None:
            self._origin = self.network.issue_origin()
        n = next(self._share_counter)
        share_id = f"sh{self._origin}-{n}"
        share = _SharedSubQuery(
            share_id=share_id,
            share_key=share_key,
            query=pending.query,
            cover=list(pending.cover),
            waiting=set(pending.cover),
            subscribers=[pending.qid],
            created_seq=seq,
        )
        # (origin, n, floor): nodes forget this origin's shares below the
        # floor, the oldest one whose end is not heard yet.
        self._unheard[share_id] = n
        stamp = (self._origin, n, next(iter(self._unheard.values())))
        if self.config.share_subqueries:
            self._shares[share_key] = share
        self._share_by_id[share_id] = share
        for group in cover_groups:
            root = self.overlay.root(
                self.overlay.space.hash_name(group_attribute(group))
            )
            share.targets[group.canonical()] = root
            self.network.send(
                self.node_id,
                root,
                mt.FRONTEND_QUERY,
                {
                    "qid": share_id,
                    "query": pending.query,
                    "predicate": group,
                    # The full chosen cover: roots use it to decide
                    # whether this execution can be shared across query
                    # ids (single-group covers only; see
                    # repro.core.inflight).
                    "cover": tuple(pending.cover),
                    "share": stamp,
                },
            )

    def _handle_frontend_response(self, message: Message) -> None:
        payload = message.payload
        now = self.network.now
        key = payload["pred_key"]
        if self.config.piggyback_sizes and "cost" in payload:
            # Every answered sub-query refreshes the group-size cache.
            self.size_cache.put(key, payload["cost"], now)
        share = self._share_by_id.get(payload["qid"])
        if share is None or key not in share.waiting:
            return
        share.waiting.discard(key)
        # Root-side sharing (see repro.core.inflight), surfaced per query
        # so consumers can see how their answer was produced.
        if payload.get("subscribed"):
            share.subscribed_groups += 1
        part = payload["partial"]
        if part is not None:
            # merge() treats None as the identity; skip it for NULL groups.
            share.partial = (
                part
                if share.partial is None
                else share.query.function.merge(share.partial, part)
            )
        share.contributors += payload["contributors"]
        if share.waiting:
            return
        self._fan_out(share)

    def _fan_out(self, share: _SharedSubQuery) -> None:
        """Deliver a completed shared sub-query to every subscriber."""
        del self._share_by_id[share.share_id]
        if share.failed:
            # NULL, not heard: its walk may still run for a front-end
            # joined at the root, so the floor must never pass it.  Nodes
            # keep the abandoned origin's last floor: what they hold of it
            # is bounded by the shares in flight now.
            self._origin, self._unheard = None, {}
        else:
            self._unheard.pop(share.share_id, None)
        if self._shares.get(share.share_key) is share:
            del self._shares[share.share_key]
        now = self.network.now
        shared_messages = self.network.stats.pop_tag(share.share_id)
        value = share.query.function.finalize(share.partial)
        root_shared = share.subscribed_groups > 0
        for index, qid in enumerate(share.subscribers):
            pending = self._pending_queries.pop(qid, None)
            if pending is None:
                continue
            messages = pending.own_messages
            if not pending.shared:
                messages += shared_messages  # the initiator pays
            result = QueryResult(
                query=pending.query,
                # Mutable answers (top-k lists, histogram dicts) must not
                # alias across subscribers: each result owns its value.
                value=value if index == 0 else copy.deepcopy(value),
                cover=list(share.cover),
                contributors=share.contributors,
                latency=now - pending.started_at,
                message_cost=messages,
                probed_costs=dict(pending.costs),
                probe_latency=pending.probe_latency,
                shared=pending.shared,
                plan_cached=pending.plan_cached,
                root_shared=root_shared,
                failed=share.failed,
                failure=share.failure,
            )
            if share.failed:
                self.network.stats.failed_queries += 1
            self.network.stats.record_query(
                QueryRecord(
                    qid=qid,
                    latency=result.latency,
                    messages=messages,
                    probe_latency=pending.probe_latency,
                    shard=self.shard_id,
                    shared=pending.shared,
                    root_shared=root_shared,
                    completed_at=now,
                )
            )
            self._complete(qid, result, pending.callback)

    def _complete(
        self,
        qid: str,
        result: QueryResult,
        callback: Optional[ResultCallback],
    ) -> None:
        if callback is not None:
            # Callback-style consumers (periodic monitors) own the result;
            # storing it too would grow `results` without bound.
            callback(result)
        else:
            self.results[qid] = result
        if self.on_query_complete is not None:
            self.on_query_complete(qid)

    # ------------------------------------------------------------------
    # network entry point
    # ------------------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        if message.mtype == mt.SIZE_RESPONSE:
            self._handle_size_response(message)
        elif message.mtype == mt.FRONTEND_RESPONSE:
            self._handle_frontend_response(message)
        elif message.mtype == mt.STANDING_UPDATE:
            self.standing.on_update(message)
        else:
            raise ValueError(
                f"front-end received unexpected message {message.mtype!r}"
            )

    def is_idle(self) -> bool:
        """True when no queries, probes, or shared sub-queries are
        outstanding."""
        return (
            not self._pending_queries
            and not self._probes
            and not self._share_by_id
            and not self._shared_waits
        )

    # ------------------------------------------------------------------
    # reconfiguration (Section 7)
    # ------------------------------------------------------------------

    def on_membership_change(self, joined: set[int], left: set[int]) -> None:
        """Resolve in-flight work stuck on departed tree roots.

        Mirrors the node-side convention ("proceed assuming a NULL
        response"): a probe or sub-query whose root left the overlay is
        treated as answered empty, so waiting queries terminate with the
        survivors' data instead of hanging and leaking front-end state.
        """
        now = self.network.now
        if (
            (joined or left)
            and self._shared is None
            and self._size_ttl_policy is not None
        ):
            # Standalone front-end: overlay churn shortens size-cache
            # TTLs.  (With a shared tier the cluster feeds churn into the
            # tier once, not once per shard.)
            self._size_ttl_policy.observe_global(now)
        # Standing subscriptions survive churn by re-installing their
        # covers (idempotent; pushes are suppressed when unchanged) --
        # for joins too: new nodes hold no subscription state until an
        # install sweep reaches them.
        self.standing.on_membership_change(joined, left)
        if not left:
            return
        for probe in [
            p for p in self._probes.values() if p.root in left
        ]:
            self._resolve_lost_probe(probe, now)
        for share in list(self._share_by_id.values()):
            gone = {
                key
                for key in share.waiting
                if share.targets.get(key) in left
            }
            if not gone:
                continue
            share.waiting -= gone
            if not share.waiting:
                self._fan_out(share)

    def on_link_failure(
        self,
        tags: Optional[set[str]] = None,
        reason: str = "transport link failure",
    ) -> None:
        """Resolve in-flight work lost on a failed transport link.

        The link-level analog of :meth:`on_membership_change`: a probe or
        shared sub-query whose frames died with the link is resolved NULL
        (the Section 7 contract), so waiting queries terminate *now* with
        an **explicitly failed** result instead of hanging until an HTTP
        timeout.  ``tags`` limits the damage to specific wire tags (the
        probe_id/share_id a dead-link send carried); ``None`` fails
        everything in flight (the whole link dropped).

        NULL-resolved probes re-enter planning with default costs; the
        dispatch that follows may hit the dead link again, which fails
        those tags in turn — the cascade terminates with every affected
        query completed and :attr:`QueryResult.failed` set.  Any link
        failure starts a new origin (the overlay may have restarted).
        """
        self._origin, self._unheard = None, {}
        now = self.network.now
        for probe in [
            p
            for p in self._probes.values()
            if tags is None or p.tag in tags
        ]:
            self._resolve_lost_probe(probe, now)
        for share in list(self._share_by_id.values()):
            if tags is not None and share.share_id not in tags:
                continue
            if share.share_id not in self._share_by_id:
                continue  # fanned out by a cascading failure above
            share.failed = True
            share.failure = reason
            share.waiting.clear()
            self._fan_out(share)

    def _resolve_lost_probe(self, probe: _ProbeInFlight, now: float) -> None:
        """NULL-resolve one probe whose answer will never arrive: forget
        it, release cross-shard subscribers with no cost learned, and let
        its waiting queries plan with the default cover cost."""
        del self._probes[probe.tag]
        if self._probe_by_group.get(probe.key) == probe.tag:
            del self._probe_by_group[probe.key]
        if self._shared is not None:
            for callback in (
                self._shared.resolve_probe(probe.key, probe.tag, None, now)
                or ()
            ):
                callback(probe.key, None, now)
        probe_messages = self.network.stats.pop_tag(probe.tag)
        for qid in probe.waiters:
            pending = self._pending_queries.get(qid)
            if pending is None:
                continue
            pending.needed.discard(probe.key)
            if qid == probe.initiator:
                pending.own_messages += probe_messages
            if not pending.needed:
                pending.probe_latency = now - pending.probe_started
                self._finish_planning(pending)
