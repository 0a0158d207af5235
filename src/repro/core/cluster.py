"""One-stop deployment harness: overlay + network + agents + front-end.

:class:`MoaraCluster` assembles a complete simulated Moara deployment and
offers a synchronous ``query()`` API by driving the discrete-event engine
until the answer arrives.  All examples, tests, and benchmarks build on it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Union

from repro.core.adaptive_ttl import AdaptiveTTL
from repro.core.frontend import Frontend, FrontendConfig, ProbePolicy
from repro.core.moara_node import MoaraConfig, MoaraNode
from repro.core.parser import parse_predicate
from repro.core.plan_cache import SharedGroupSizeCache
from repro.core.planner import SemanticContext
from repro.core.predicates import Predicate
from repro.core.query import Query, QueryResult
from repro.core.errors import QueryTimeoutError
from repro.core.shard_router import FrontendShardRouter, canonical_query_text
from repro.pastry.idspace import IdSpace
from repro.pastry.overlay import Overlay
from repro.sim.engine import Engine
from repro.sim.latency import LatencyModel, ZeroLatencyModel
from repro.sim.network import Network
from repro.sim.stats import MessageStats

__all__ = ["MoaraCluster"]

FRONTEND_ID = -1


class MoaraCluster:
    """A complete simulated Moara deployment."""

    def __init__(
        self,
        num_nodes: int,
        seed: int = 0,
        latency_model: Optional[
            Union[LatencyModel, Callable[[list[int]], LatencyModel]]
        ] = None,
        config: Optional[MoaraConfig] = None,
        space: Optional[IdSpace] = None,
        probe_policy: ProbePolicy = ProbePolicy.COMPOSITE,
        semantics: Optional[SemanticContext] = None,
        frontend_config: Optional[FrontendConfig] = None,
        num_frontends: int = 1,
        detailed_bytes: bool = False,
        shared_size_cache: bool = True,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("cluster needs at least one node")
        if num_frontends < 0:
            raise ValueError("num_frontends must be >= 0")
        # One event engine drives every node, front-end and message.  It
        # is looked up through this module's ``Engine`` name, which is how
        # the kernel differential tests swap in their heap reference.
        self.engine = Engine()
        # Counts-only stats by default; pass detailed_bytes=True to restore
        # per-message byte estimation for bandwidth analysis (slower).
        self.stats = MessageStats(detailed_bytes=detailed_bytes)
        self.network = Network(self.engine, ZeroLatencyModel(), self.stats)
        #: qids the current synchronous drive is waiting on (completion
        #: waiter registry; None when no drive is active).  Front-ends
        #: signal completions into :meth:`_signal_completion`, which stops
        #: the engine once the set drains -- no per-event predicate polling.
        self._waiters: Optional[set[str]] = None
        self.overlay = Overlay(space or IdSpace())
        self.config = config or MoaraConfig()
        self.nodes: dict[int, MoaraNode] = {}
        self._seed = seed
        self._next_seed = seed + 1

        ids = self.overlay.generate_ids(num_nodes, seed=seed)
        frontend_ids = [FRONTEND_ID - i for i in range(num_frontends)]
        # Latency models that depend on the membership (e.g. the WAN model's
        # cluster/straggler assignment) are built from a factory once the
        # ids are known; front-end ids are included as the client machines.
        if callable(latency_model) and not isinstance(
            latency_model, LatencyModel
        ):
            latency_model = latency_model(ids + frontend_ids)
        if latency_model is not None:
            self.network.set_latency_model(latency_model)
        for node_id in ids:
            node = MoaraNode(node_id, self.overlay, self.network, self.config)
            self.nodes[node_id] = node
            self.network.attach(node)
        # Subscribe before joining so reconfiguration callbacks always fire,
        # but the initial bulk join needs no repair (no state exists yet).
        self.overlay.add_listener(self._on_membership_change)
        self.overlay.bulk_join(ids)

        # All front-ends share one SemanticContext, so declared relations
        # (and the plan-cache invalidation its version drives) stay
        # consistent across the whole query plane.
        self.semantics = semantics or SemanticContext()
        self._probe_policy = probe_policy
        self._frontend_config = frontend_config
        #: consistent-hash partitioning of the query space over the
        #: attached front-ends: identical canonical query text always
        #: lands on the same shard, so every per-front-end cache stays
        #: warm as the plane scales out (see repro.core.shard_router).
        self.router = FrontendShardRouter()
        #: the cluster-wide group-size tier all shards read through (one
        #: probe per group cluster-wide, single-writer-per-group; see
        #: SharedGroupSizeCache).  ``shared_size_cache=False`` reproduces
        #: the PR 2 per-front-end private caches for comparison runs.
        fc = frontend_config or FrontendConfig()
        self.shared_sizes: Optional[SharedGroupSizeCache] = None
        if shared_size_cache:
            ttl_policy = AdaptiveTTL.if_enabled(
                fc.adaptive_size_ttl,
                fc.size_cache_ttl_min,
                fc.size_cache_ttl,
                fc.churn_window,
            )
            self.shared_sizes = SharedGroupSizeCache(
                router=self.router,
                ttl=fc.size_cache_ttl,
                ttl_policy=ttl_policy,
                on_ttl=(
                    self.stats.record_adaptive_ttl
                    if ttl_policy is not None
                    else None
                ),
            )
        #: cooperating front-ends sharing this cluster (ids -1, -2, ...).
        #: ``num_frontends=0`` builds a *frontend-less backend*: just the
        #: overlay, agents, and engine — the deployed query plane
        #: (:mod:`repro.serve.overlay_service`) hosts one of these and
        #: lets remote asyncio front-ends attach over sockets instead.
        self.frontends: list[Frontend] = []
        for _ in range(num_frontends):
            self.add_frontend()
        #: the default front-end (back-compat: ``cluster.frontend``);
        #: None on a frontend-less backend.
        self.frontend: Optional[Frontend] = (
            self.frontends[0] if self.frontends else None
        )

    def add_frontend(
        self, config: Optional[FrontendConfig] = None
    ) -> Frontend:
        """Attach one more front-end shard to the query plane.

        The router gains the new shard's ring points (consistent hashing:
        only ``~1/N`` of the query space remaps onto it), and the shard
        reads through the cluster's shared group-size tier.  A front-end
        constructed with an explicit non-default ``config`` gets a
        private size cache instead -- its TTL semantics may differ from
        the tier the cluster built from ``frontend_config``.
        """
        shard_id = self.router.add_shard()
        frontend = Frontend(
            self.network,
            self.overlay,
            node_id=FRONTEND_ID - len(self.frontends),
            probe_policy=self._probe_policy,
            semantics=self.semantics,
            config=config or self._frontend_config,
            shard_id=shard_id,
            shared_sizes=self.shared_sizes if config is None else None,
        )
        frontend.on_query_complete = self._signal_completion
        self.frontends.append(frontend)
        return frontend

    # ------------------------------------------------------------------
    # membership plumbing
    # ------------------------------------------------------------------

    def _on_membership_change(self, joined: set[int], left: set[int]) -> None:
        for node in self.nodes.values():
            node.on_membership_change(joined, left)
        # Churn feeds the shared size tier's adaptive-TTL policy once per
        # event (not once per shard) -- overlay membership changes raise
        # every group's observed churn rate.
        shared = getattr(self, "shared_sizes", None)
        if shared is not None and (joined or left):
            shared.on_membership_change(self.engine.now)
        # Front-ends attach after the initial bulk join; later churn must
        # also resolve their in-flight probes/sub-queries (Section 7).
        for frontend in getattr(self, "frontends", ()):
            frontend.on_membership_change(joined, left)

    @property
    def node_ids(self) -> list[int]:
        """Sorted ids of all overlay members."""
        return self.overlay.node_ids

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # attribute management
    # ------------------------------------------------------------------

    def set_attribute(self, node_id: int, name: str, value: Any) -> bool:
        """Set one attribute on one node (group churn entry point)."""
        return self.nodes[node_id].attributes.set(name, value)

    def set_attribute_all(self, name: str, value: Any) -> None:
        """Set an attribute on every node."""
        for node in self.nodes.values():
            node.attributes.set(name, value)

    def set_group(
        self,
        attr: str,
        members: Iterable[int],
        member_value: Any = True,
        other_value: Any = False,
    ) -> None:
        """Define a group: ``attr = member_value`` on members, the fallback
        value elsewhere (so predicates evaluate on every node)."""
        member_set = set(members)
        for node_id, node in self.nodes.items():
            value = member_value if node_id in member_set else other_value
            node.attributes.set(attr, value)

    def members_satisfying(self, predicate: Union[str, Predicate]) -> set[int]:
        """Ground truth: nodes whose local attributes satisfy a predicate."""
        if isinstance(predicate, str):
            predicate = parse_predicate(predicate)
        return {
            node_id
            for node_id, node in self.nodes.items()
            if node_id in self.overlay
            and self.network.is_alive(node_id)
            and predicate.evaluate(node.attributes)
        }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # completion-waiter registry (event-driven drives)
    # ------------------------------------------------------------------

    def _signal_completion(self, qid: str) -> None:
        """Front-end completion signal: wake the engine when the current
        drive's last awaited query finishes."""
        waiters = self._waiters
        if waiters is not None and qid in waiters:
            waiters.discard(qid)
            if not waiters:
                self.engine.request_stop()

    def _drive_to_completion(
        self,
        submitted: list[tuple[Frontend, str]],
        max_events: int,
    ) -> bool:
        """Run the engine until every submitted query completes.

        Event-driven: front-ends report completions into the waiter
        registry and the last one stops the engine
        (:meth:`~repro.sim.engine.Engine.request_stop`), so no predicate
        is evaluated per event (``Engine.run_until`` is the documented
        slow path, kept for tests).  Returns False if the simulation went
        idle first; raises ``RuntimeError`` when ``max_events`` elapse
        without completion (livelock guard, matching ``run_until``).
        """
        waiting = {qid for fe, qid in submitted if qid not in fe.results}
        if not waiting:
            return True
        engine = self.engine
        self._waiters = waiting
        try:
            budget = max_events
            while True:
                before = engine.events_processed
                engine.run(max_events=budget)
                budget -= engine.events_processed - before
                if not waiting:
                    return True
                if engine.pending == 0:
                    return False  # idle with queries unanswered
                if budget <= 0:
                    raise RuntimeError(
                        f"{len(waiting)} queries not completed within "
                        f"{max_events} events"
                    )
        finally:
            self._waiters = None

    def _route(
        self, query: Union[str, Query], limit: Optional[int] = None
    ) -> Frontend:
        """The shard a query belongs to (consistent hash of its
        canonical text; ``limit`` restricts to the first *k* shards)."""
        return self.frontends[
            self.router.shard_for(canonical_query_text(query), limit=limit)
        ]

    def query(
        self,
        query: Union[str, Query],
        max_events: int = 10_000_000,
        frontend: Optional[int] = None,
    ) -> QueryResult:
        """Submit a query and run the engine until its answer arrives.

        The query goes through the shard router by default (identical
        query text -> same front-end, so its plan/size caches and
        sub-query dedup stay warm); pass ``frontend`` to pin a specific
        attached front-end instead (index into :attr:`frontends`).  With
        a single front-end the two are the same.
        """
        fe = (
            self._route(query)
            if frontend is None
            else self.frontends[frontend]
        )
        qid = fe.submit(query)
        done = self._drive_to_completion([(fe, qid)], max_events)
        if not done:
            raise QueryTimeoutError(
                f"query {qid} did not complete (simulation went idle)"
            )
        return fe.results.pop(qid)

    def query_async(
        self, query: Union[str, Query], frontend: int = 0
    ) -> str:
        """Submit without driving the engine; returns the query id."""
        return self.frontends[frontend].submit(query)

    def query_concurrent(
        self,
        queries: list[Union[str, Query]],
        max_events: int = 10_000_000,
        frontends: Optional[int] = None,
        routing: str = "shard",
    ) -> list[QueryResult]:
        """Submit a batch of concurrent queries and run them to completion.

        All queries enter the query plane in the same tick, so identical
        queries share probes and sub-queries; results come back in
        submission order.

        ``frontends`` restricts the batch to the first *k* attached
        front-ends (default: all of them).  ``routing`` picks how the
        batch is spread over that pool:

        * ``"shard"`` (the default) -- through the shard router:
          identical canonical query text lands on the same front-end,
          independent of batch order or size, keeping dedup and the
          per-shard caches local; distinct queries spread by consistent
          hash.  With one front-end this degenerates to the old
          behaviour.
        * ``"round-robin"`` -- the PR 2 spread, deliberately scattering
          identical queries across front-ends; this is the adversarial
          layout the roots' in-flight tables absorb,
          kept for those comparison workloads.
        """
        if frontends is not None and frontends < 1:
            raise ValueError("frontends must be >= 1")
        pool = (
            self.frontends
            if frontends is None
            else self.frontends[:frontends]
        )
        if routing == "shard":
            limit = len(pool)
            pairs = [
                (self._route(query, limit=limit), query)
                for query in queries
            ]
        elif routing == "round-robin":
            pairs = [
                (pool[i % len(pool)], query)
                for i, query in enumerate(queries)
            ]
        else:
            raise ValueError(
                f"unknown routing {routing!r}; use 'shard' or 'round-robin'"
            )
        submitted = [(fe, fe.submit(query)) for fe, query in pairs]
        done = self._drive_to_completion(submitted, max_events)
        if not done:
            missing = [
                qid for fe, qid in submitted if qid not in fe.results
            ]
            raise QueryTimeoutError(
                f"{len(missing)} of {len(submitted)} concurrent queries "
                f"did not complete (simulation went idle)"
            )
        return [fe.results.pop(qid) for fe, qid in submitted]

    def result(self, qid: str) -> Optional[QueryResult]:
        """Fetch (and remove) a completed async result, if available."""
        return self.frontend.results.pop(qid, None)

    # ------------------------------------------------------------------
    # churn operations
    # ------------------------------------------------------------------

    def join_node(self, node_id: Optional[int] = None) -> int:
        """Add a fresh node to the overlay; returns its id."""
        if node_id is None:
            node_id = self.overlay.generate_ids(1, seed=self._next_seed)[0]
            self._next_seed += 1
        node = MoaraNode(node_id, self.overlay, self.network, self.config)
        self.nodes[node_id] = node
        self.network.attach(node)
        self.overlay.add_node(node_id)
        return node_id

    def leave_node(self, node_id: int) -> None:
        """Graceful departure: the overlay repairs immediately."""
        self.overlay.remove_node(node_id)
        self.network.detach(node_id)
        del self.nodes[node_id]

    def crash_node(
        self, node_id: int, detection_delay: float = 0.0
    ) -> None:
        """Fail-stop crash.  The node drops off the network at once; the
        overlay learns of the failure after ``detection_delay`` seconds
        (FreePastry's failure detector), at which point trees repair and
        stuck queries resolve."""
        self.network.crash(node_id)

        def detect() -> None:
            if node_id in self.overlay:
                self.overlay.remove_node(node_id)

        self.engine.schedule(detection_delay, detect)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.engine.now

    def run(self, seconds: float) -> None:
        """Advance the simulation by ``seconds``."""
        self.engine.run(until=self.engine.now + seconds)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Drain all pending protocol activity."""
        self.engine.run_until_idle(max_events=max_events)
