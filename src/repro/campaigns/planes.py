"""Execution planes: one campaign, two systems under test.

A campaign never talks to :class:`~repro.core.cluster.MoaraCluster` or
a transport directly -- it drives a :class:`CampaignPlane`, a small
adapter interface both systems satisfy:

* :class:`SimPlane` -- the in-process simulator with its attached
  front-ends (``MoaraCluster.query_concurrent``).
* :class:`LoopbackPlane` -- the *deployed shape*: a frontend-less
  backend cluster with unmodified front-ends mounted on faultable
  :class:`~repro.serve.transport.LocalLoopback` links, the same
  topology the socket fleet deploys.

Both build their cluster through one constructor, so the same campaign
YAML runs on either plane with ``--plane sim`` / ``--plane loopback``,
the invariant checker sees the same hooks (live attribute stores, wire
stats, in-flight tables), and the JSON reports share one schema --
which is what lets CI diff the two planes' behaviour on the same
scenario.  ``docs/CAMPAIGNS.md`` lists the methods a driver may call.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Union

import repro.core.messages as mt
from repro.core.cluster import MoaraCluster
from repro.core.errors import QueryTimeoutError
from repro.core.frontend import Frontend, FrontendConfig
from repro.core.moara_node import MoaraConfig
from repro.core.predicates import Predicate
from repro.core.query import Query, QueryResult
from repro.core.shard_router import canonical_query_text
from repro.serve.transport import LinkFault, LocalLoopback
from repro.sim.latency import (
    LANLatencyModel,
    LatencyModel,
    UniformLatencyModel,
    ZeroLatencyModel,
)
from repro.sim.stats import MessageStats

__all__ = [
    "CampaignPlane",
    "LoopbackPlane",
    "SimPlane",
    "build_plane",
    "make_latency_model",
]


def make_latency_model(name: str, seed: int = 0) -> LatencyModel:
    """The latency models campaigns may name (``latency:`` key)."""
    if name == "zero":
        return ZeroLatencyModel()
    if name == "lan":
        return LANLatencyModel(seed=seed)
    if name == "uniform":
        return UniformLatencyModel(0.01, 0.1, seed=seed)
    raise ValueError(f"unknown latency model {name!r}")


class CampaignPlane:
    """The adapter surface a campaign driver needs from a system under test.

    Subclasses wrap one deployment topology; everything here is the
    shared part.  ``self.cluster`` is always the :class:`MoaraCluster`
    holding the monitored agents (on the loopback plane that is the
    frontend-less backend), so membership, attributes, time, and wire
    stats are uniform across planes.  Subclasses provide
    :meth:`query_batch` and a ``frontends`` list.
    """

    name = "abstract"
    #: True when the plane has transport links that can carry scripted
    #: chaos (``faults:``); the sim plane's front-ends sit in-process.
    supports_link_faults = False

    def __init__(
        self,
        num_nodes: int,
        seed: int = 0,
        num_frontends: int = 2,
        latency: str = "zero",
        config: Optional[MoaraConfig] = None,
        frontend_config: Optional[FrontendConfig] = None,
    ) -> None:
        self.cluster = MoaraCluster(
            num_nodes,
            seed=seed,
            latency_model=make_latency_model(latency, seed=seed),
            config=config,
            frontend_config=frontend_config,
            num_frontends=num_frontends,
        )
        #: round-robin cursor for standing-query registration, plus the
        #: owning front-end per handle (cancel must go back to the
        #: manager that registered the subscription).
        self._standing_rr = 0
        self._standing_owner: dict[str, Frontend] = {}

    # -- time ----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.cluster.now

    def advance(self, seconds: float) -> None:
        """Let simulated time pass (timers fire, crashes get detected)."""
        if seconds > 0:
            self.cluster.run(seconds)

    def quiesce(self) -> None:
        """Drain all pending protocol activity (gossip, repairs)."""
        self.cluster.run_until_idle()

    # -- queries -------------------------------------------------------

    def query_batch(
        self, queries: list[Union[str, Query]]
    ) -> list[QueryResult]:
        raise NotImplementedError

    # -- standing queries ----------------------------------------------

    def register_standing(self, text: str, lease: float = 0.0):
        """Register a standing query, round-robin across front-ends
        (standing load spreads over shards exactly like one-shots)."""
        fes = self.frontends
        frontend = fes[self._standing_rr % len(fes)]
        self._standing_rr += 1
        handle = frontend.subscribe(text, lease=lease)
        self._standing_owner[handle.sub_id] = frontend
        return handle

    def cancel_standing(self, handle) -> None:
        """Cancel a standing query at its owning front-end."""
        frontend = self._standing_owner.pop(handle.sub_id, None)
        if frontend is not None:
            frontend.standing.cancel(handle)

    # -- membership and state ------------------------------------------

    @property
    def node_ids(self) -> list[int]:
        return self.cluster.node_ids

    def set_attribute(self, node_id: int, name: str, value: Any) -> None:
        self.cluster.set_attribute(node_id, name, value)

    def set_group(
        self,
        attr: str,
        members: Iterable[int],
        member_value: Any = True,
        other_value: Any = False,
    ) -> None:
        self.cluster.set_group(attr, members, member_value, other_value)

    def members_satisfying(
        self, predicate: Union[str, Predicate]
    ) -> set[int]:
        return self.cluster.members_satisfying(predicate)

    def crash(self, node_id: int, detection_delay: float = 0.0) -> None:
        self.cluster.crash_node(node_id, detection_delay=detection_delay)

    def recover(self, node_id: int) -> None:
        """Bring a crashed node back (it rejoins the overlay)."""
        self.cluster.network.recover(node_id)
        if node_id not in self.cluster.overlay:
            self.cluster.overlay.add_node(node_id)

    def join(self) -> int:
        return self.cluster.join_node()

    def leave(self, node_id: int) -> None:
        self.cluster.leave_node(node_id)

    def live_stores(self):
        """``(node_id, attribute_store)`` for every live overlay member --
        the ground truth the differential oracle folds over."""
        cluster = self.cluster
        return [
            (node_id, node.attributes)
            for node_id, node in cluster.nodes.items()
            if node_id in cluster.overlay
            and cluster.network.is_alive(node_id)
        ]

    # -- observability hooks (for the invariant checker) ---------------

    @property
    def stats(self) -> MessageStats:
        """The wire-message ledger (backend stats on the loopback plane --
        :class:`LocalLoopback` mirrors its sends into it)."""
        return self.cluster.stats

    @property
    def shared_sizes(self):
        """The cluster-wide group-size tier every front-end reads through."""
        return self.cluster.shared_sizes

    def standing_stats(self) -> dict[str, int]:
        """Plane-wide standing-query counters.

        Front-end-side counters (registered/updates/...) accrue on each
        front-end's transport ledger, node-side ones (expired) on the
        backend ledger; on the sim plane those are the *same* object, so
        sum distinct ledgers only."""
        ledgers = {id(self.stats): self.stats}
        for fe in self.frontends:
            ledger = fe.network.stats
            ledgers.setdefault(id(ledger), ledger)
        totals = {}
        for key in (
            "standing_registered",
            "standing_updates",
            "standing_replans",
            "standing_expired",
            "standing_cancelled",
        ):
            totals[key[len("standing_"):]] = sum(
                getattr(ledger, key) for ledger in ledgers.values()
            )
        return totals

    def inflight_leaks(self) -> dict[str, int]:
        """Entries still held in any in-flight table.

        At a quiesced phase boundary every one of these must be zero:
        a non-zero count means a query, probe, share, execution, or
        standing subscription was opened and never closed -- the bug
        class the in-flight table refactors are most prone to.
        """
        pending = probes = waits = shares = 0
        for fe in self.frontends:
            pending += len(fe._pending_queries)
            probes += len(fe._probes)
            waits += sum(len(v) for v in fe._shared_waits.values())
            shares += len(fe._shares) + len(fe._share_by_id)
        executions = sum(
            len(node.inflight) for node in self.cluster.nodes.values()
        )
        shared_probes = 0
        if self.shared_sizes is not None:
            shared_probes = len(self.shared_sizes._probes)
        # Standing-subscription hygiene: every node-side subscription
        # entry on a *live* node must belong to a standing query some
        # front-end still considers active (dead nodes' tables are
        # unreachable until recovery, when the hygiene cancels fire).
        active_subs: set[str] = set()
        for fe in self.frontends:
            active_subs |= fe.standing.active_sub_ids()
        cluster = self.cluster
        standing_orphans = sum(
            1
            for node_id, node in cluster.nodes.items()
            if node_id in cluster.overlay
            and cluster.network.is_alive(node_id)
            for sub_id in node.standing.sub_ids()
            if sub_id not in active_subs
        )
        return {
            "frontend_pending": pending,
            "frontend_probes": probes,
            "frontend_shared_waits": waits,
            "frontend_shares": shares,
            "node_executions": executions,
            "shared_cache_probes": shared_probes,
            "standing_orphans": standing_orphans,
        }

    # -- link faults (loopback plane only) ------------------------------

    def apply_link_fault(self, spec: Any) -> None:
        raise NotImplementedError(
            f"the {self.name!r} plane has no transport links to fault; "
            f"run faults: campaigns on the loopback plane"
        )

    def probe_duplicates(self) -> int:
        """Cumulative chaos-injected SIZE_PROBE duplicates (the probe
        budget oracle discounts these — they are the wire's doing)."""
        return 0


class SimPlane(CampaignPlane):
    """The in-process simulator: front-ends attached to the cluster."""

    name = "sim"

    def query_batch(
        self, queries: list[Union[str, Query]]
    ) -> list[QueryResult]:
        return self.cluster.query_concurrent(queries)

    @property
    def frontends(self) -> list[Frontend]:
        return self.cluster.frontends


class LoopbackPlane(CampaignPlane):
    """The deployed shape: loopback front-ends over a backend cluster.

    A frontend-less backend cluster with N unmodified
    :class:`~repro.core.frontend.Frontend` instances, each on its own
    :class:`~repro.serve.transport.LocalLoopback` link -- the fleet's
    topology minus the wires, and the reference the socket fleet is
    tested for equivalence against.  The front-ends read through the
    backend's own shard router, shared group-size tier and semantic
    context, which the backend already feeds with overlay churn.  Every
    link can carry scripted faults; a link with none active is a plain
    pass-through.
    """

    name = "loopback"
    supports_link_faults = True

    def __init__(
        self,
        num_nodes: int,
        seed: int = 0,
        num_frontends: int = 2,
        latency: str = "zero",
        config: Optional[MoaraConfig] = None,
        frontend_config: Optional[FrontendConfig] = None,
    ) -> None:
        if num_frontends < 1:
            raise ValueError("plane needs at least one front-end")
        super().__init__(
            num_nodes,
            seed=seed,
            num_frontends=0,
            latency=latency,
            config=config,
            frontend_config=frontend_config,
        )
        backend = self.cluster
        self.transports: list[LocalLoopback] = []
        self.frontends: list[Frontend] = []
        burst_counter = [0]
        for shard in range(num_frontends):
            transport = LocalLoopback(
                backend,
                node_id=-1 - shard,
                burst_counter=burst_counter,
                seed=seed * 1_000_003 + shard,
            )
            self.transports.append(transport)
            self.frontends.append(
                Frontend(
                    transport,
                    backend.overlay,
                    node_id=-1 - shard,
                    semantics=backend.semantics,
                    config=frontend_config,
                    shard_id=backend.router.add_shard(),
                    shared_sizes=backend.shared_sizes,
                )
            )

    def query_batch(
        self, queries: list[Union[str, Query]]
    ) -> list[QueryResult]:
        """Submit a batch in one burst (each query to the front-end its
        shard router names) and drive the plane until every answer is in."""
        pairs = []
        for query in queries:
            shard = self.cluster.router.shard_for(canonical_query_text(query))
            frontend = self.frontends[shard]
            pairs.append((frontend, frontend.submit(query)))
        self._drive(pairs)
        return [fe.results.pop(qid) for fe, qid in pairs]

    def quiesce(self) -> None:
        """Drain the backend *and* the front-end links until neither side
        has anything left (frames held by a delay fault included)."""
        self._drive([])

    def _drive(self, pairs: list[tuple[Frontend, str]]) -> None:
        """Pump the links until every ``(front-end, qid)`` in ``pairs``
        has its result -- with no pairs, until the plane is idle.

        Loopback front-ends only see backend replies when pumped, so the
        loop interleaves the two.  A plane that goes idle while a link
        still holds delayed frames jumps the clock to their release.  A
        plane that goes idle with queries still missing resolves them as
        **explicit NULL failures** (the Section 7 contract) when some
        link has lost frames, and raises otherwise: without a lost
        frame, a stuck query is a plane bug, not an injected fault.
        """
        stall_fails = 0
        while True:
            missing = [qid for fe, qid in pairs if qid not in fe.results]
            if pairs and not missing:
                return
            delivered = sum(t.pump() for t in self.transports)
            if delivered or self.cluster.engine.pending:
                continue
            releases = [
                release
                for release in (t.pending_release() for t in self.transports)
                if release is not None
            ]
            if releases:
                self.cluster.engine.run(until=min(releases))
                continue
            if not missing:
                return
            if stall_fails < 3 and any(t.drops for t in self.transports):
                # The cascade may take a second pass: NULL-resolved probes
                # re-dispatch, and the same fault may eat the re-dispatch.
                for fe in self.frontends:
                    fe.on_link_failure(
                        None, "in-flight frames lost to link faults"
                    )
                stall_fails += 1
                continue
            raise QueryTimeoutError(
                f"{len(missing)} queries did not complete "
                f"(loopback plane went idle)"
            )

    def apply_link_fault(self, spec: Any) -> None:
        """Map one campaign ``faults:`` entry onto the front-end links.

        ``spec`` is a :class:`~repro.campaigns.schema.LinkFaultSpec`;
        state faults (drop/delay/duplicate/partition) carry their own
        expiry (``until = now + duration``), so nothing needs a matching
        clear event, and ``reset`` is an instantaneous event with an
        optional dead window.
        """
        if spec.link == "all":
            targets = list(self.transports)
        else:
            if spec.link >= len(self.transports):
                raise ValueError(
                    f"fault names link {spec.link} but the plane has "
                    f"{len(self.transports)} front-end links"
                )
            targets = [self.transports[spec.link]]
        for transport in targets:
            if spec.kind == "reset":
                transport.reset_link(spec.duration)
            else:
                transport.inject(
                    LinkFault(
                        spec.kind,
                        direction=spec.direction,
                        p=spec.p,
                        delay=spec.delay,
                        until=self.now + spec.duration,
                    )
                )

    def probe_duplicates(self) -> int:
        return sum(
            t.dup_counts.get(mt.SIZE_PROBE, 0) for t in self.transports
        )


def build_plane(
    plane: str,
    num_nodes: int,
    seed: int = 0,
    num_frontends: int = 2,
    latency: str = "zero",
    config: Optional[MoaraConfig] = None,
    frontend_config: Optional[FrontendConfig] = None,
) -> CampaignPlane:
    """Factory keyed by the CLI's ``--plane`` choice."""
    planes = {"sim": SimPlane, "loopback": LoopbackPlane}
    if plane not in planes:
        raise ValueError(
            f"unknown plane {plane!r}; use one of {sorted(planes)}"
        )
    return planes[plane](
        num_nodes,
        seed=seed,
        num_frontends=num_frontends,
        latency=latency,
        config=config,
        frontend_config=frontend_config,
    )
