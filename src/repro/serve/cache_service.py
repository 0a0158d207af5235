"""The standalone shared group-size cache service.

One process hosts a :class:`repro.core.plan_cache.SharedGroupSizeCache`
— the *same class* the in-process sharded plane uses, not a re-implementation
— and speaks its single-writer / probe-registry protocol over TCP so that
front-end shards in different processes still get the tier's guarantees:

* one wire probe per group **cluster-wide** (a shard that misses while
  another shard's probe is in flight subscribes to that probe's answer
  through the service instead of duplicating it);
* single-writer-per-group for piggybacked estimates (the group's
  consistent-hash owner shard wins; everyone else's stale writes drop);
* one churn feed for adaptive TTLs (the service observes overlay
  membership once, not once per shard).

The in-process tier remains the **default** backend — a front-end server
started without ``--cache`` builds its own private
:class:`~repro.core.plan_cache.GroupSizeCache` exactly like a standalone
simulated front-end.  The service is the opt-in piece that makes N
front-end *processes* behave like the one-process sharded plane.

Each front-end keeps **two** connections:

* an *RPC* connection (``hello {mode: "rpc", shard}``) carrying strictly
  request/response traffic (``get``/``put``/``open``/``join``/
  ``resolve``/``stats``/…).  The front-end's cache calls are synchronous,
  so a call that reaches the service blocks one localhost round-trip
  (:class:`repro.serve.protocol.SyncRpcChannel`).  Few do: ``get`` and
  ``put`` replies carry a *lease* (the entry's cost, its remaining TTL
  and whether the caller is the key's single writer), and
  :class:`RemoteSizeTier` answers from its leases while they are live —
  a warm query makes no RPC at all.
* a *subscription* connection (``hello {mode: "sub", shard}``) on which
  the service pushes ``resolved {key, cost}`` frames when a probe this
  shard subscribed to is answered by its prober (or released NULL by
  churn), and the lease-coherence frames: ``drop {key}`` to every other
  shard when a write changes a cost, ``flush`` to everyone when
  ownership moves (a new shard joined the ring) or entries vanish
  (``clear``/``purge``/LRU eviction).

Time: clients' clocks are not comparable, so the service timestamps
everything (entry TTLs, probe joinability) with **its own** clock.  The
simulator's same-synchronous-burst joinability rule becomes a wall-clock
window here (``join_window`` seconds) via the
:meth:`~repro.core.plan_cache.SharedGroupSizeCache._joinable` hook —
the registry logic around it is untouched shared code.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, NamedTuple, Optional

from repro.core.adaptive_ttl import AdaptiveTTL
from repro.core.plan_cache import (
    CacheStats,
    ShardedSizeCache,
    SharedGroupSizeCache,
    _SharedProbe,
)
from repro.core.shard_router import FrontendShardRouter
from repro.serve.protocol import (
    FrameError,
    SyncRpcChannel,
    encode_frame,
    flush_pushed,
    read_frame,
)
from repro.serve.resilience import CircuitBreaker, DeadlineExceeded

__all__ = ["CacheService", "RemoteSizeTier"]

#: default cross-shard probe-join window (seconds).  Generous relative
#: to a localhost probe round-trip, small relative to any TTL: a probe
#: older than this is presumed stuck and a fresh one is sent instead —
#: the same bias the simulator's same-burst rule encodes.
DEFAULT_JOIN_WINDOW = 0.25

#: most leases a client holds before it flushes (the service tier's own
#: ``maxsize``: more live leases than that cannot exist).
_L1_MAX = 4096


class _Lease(NamedTuple):
    """A client's copy of one service entry (times on the client's clock)."""

    cost: float
    expires_at: float
    #: an owner's unchanged ``put`` is skipped before this (half-life).
    refresh_at: float
    #: is the holding shard the key's single writer?
    owner: bool


class _ServiceTier(SharedGroupSizeCache):
    """The shared tier with service-time probe joinability.

    Everything — the entry store, per-shard stats, the single-writer
    rule, the probe registry — is inherited.  Only "is this in-flight
    probe fresh enough to subscribe to?" changes meaning: remote shards
    have no common event counter, so freshness is a wall-clock window on
    the service's clock.
    """

    def __init__(self, *args: Any, join_window: float, clock: Callable[[], float], **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.join_window = join_window
        self._clock = clock

    def _joinable(self, probe: _SharedProbe, seq: int) -> bool:
        return (self._clock() - probe.opened_at) <= self.join_window

    def lease(self, key: str, now: float, shard: int) -> dict[str, Any]:
        """What ``shard`` may cache of ``key``: the live entry's cost,
        its *remaining* TTL (a duration: clocks are not comparable, the
        client re-anchors it on its own) and whether ``shard`` is the
        key's single writer.  ``lease`` is None when there is no live
        entry to hold a lease on."""
        entry = self._entries.get(key)
        if entry is None or now > entry[1]:
            return {"cost": None, "lease": None, "owner": False}
        return {
            "cost": entry[0],
            "lease": entry[1] - now,
            "owner": shard == self.router.owner(key),
        }

    def version(self, key: str) -> tuple[Optional[float], int]:
        """``key``'s stored cost and the eviction count: what a write
        must leave unchanged for every lease out there to stay true."""
        entry = self._entries.get(key)
        return (entry[0] if entry else None, self.stats.evictions)


class CacheService:
    """Serve a :class:`SharedGroupSizeCache` tier on a TCP port."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        num_shards: Optional[int] = None,
        ttl: float = 60.0,
        ttl_min: float = 5.0,
        adaptive: bool = True,
        churn_window: float = 30.0,
        join_window: float = DEFAULT_JOIN_WINDOW,
        overlay_addr: Optional[tuple[str, int]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self._t0 = time.monotonic()
        #: None = learn the shard set from client HELLOs (the router is
        #: rebuilt via from_members as shards introduce themselves);
        #: an int pins the ring to shards 0..N-1 up front.
        self._fixed_shards = num_shards
        self._members: set[int] = (
            set(range(num_shards)) if num_shards else set()
        )
        router = (
            FrontendShardRouter(num_shards)
            if num_shards
            else FrontendShardRouter.from_members(set())
        )
        self.tier = _ServiceTier(
            router=router,
            ttl=ttl,
            ttl_policy=AdaptiveTTL.if_enabled(
                adaptive, ttl_min, ttl, churn_window
            ),
            join_window=join_window,
            clock=self.now,
        )
        self.overlay_addr = overlay_addr
        self._server: Optional[asyncio.base_events.Server] = None
        #: shard -> subscription writers (pushes fan out to all of them).
        self._subs: dict[int, set[asyncio.StreamWriter]] = {}
        #: every live client connection (RPC and sub) — severed on
        #: close(), so clients of a dead service see a dead socket
        #: instead of a ghost that keeps answering from stale state.
        self._writers: set[asyncio.StreamWriter] = set()
        #: subscription writers with pushes buffered, awaiting the
        #: current handler's flush (only these are drained).
        self._pushed: set[asyncio.StreamWriter] = set()
        self._observer_task: Optional[asyncio.Task] = None

    def now(self) -> float:
        return time.monotonic() - self._t0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.overlay_addr is not None:
            self._observer_task = asyncio.ensure_future(
                self._observe_overlay()
            )

    async def close(self) -> None:
        if self._observer_task is not None:
            self._observer_task.cancel()
            try:
                await self._observer_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            # Sever clients first: wait_closed() waits for them (3.12.1+).
            for writer in list(self._writers):
                writer.close()
            await self._server.wait_closed()

    async def _observe_overlay(self) -> None:
        """Subscribe to the overlay service's membership pushes so churn
        feeds the tier's adaptive TTLs exactly once cluster-wide."""
        assert self.overlay_addr is not None
        try:
            reader, writer = await asyncio.open_connection(*self.overlay_addr)
            writer.write(encode_frame({"kind": "hello", "role": "observer"}))
            await writer.drain()
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                if frame.get("kind") == "members":
                    self.tier.on_membership_change(self.now())
        except (ConnectionError, FrameError, asyncio.CancelledError, OSError):
            pass

    # -- shard membership ----------------------------------------------

    def _admit_shard(self, shard: int) -> None:
        if self._fixed_shards is not None or shard in self._members:
            return
        self._members.add(shard)
        # Owner assignments follow the live shard set, as the ring
        # daemon's router does on the front-end side.
        self.tier.router = FrontendShardRouter.from_members(self._members)
        # Ownership moved: every lease's "am I the writer?" bit is stale.
        self._push_all({"kind": "flush"})

    # -- push fan-out --------------------------------------------------

    def _push(self, shard: int, frame: bytes) -> None:
        for writer in self._subs.get(shard, ()):
            if not writer.is_closing():
                self._pushed.add(writer)
                writer.write(frame)

    def _push_resolved(
        self, shard: int, key: str, cost: Optional[float]
    ) -> None:
        self._push(
            shard, encode_frame({"kind": "resolved", "key": key, "cost": cost})
        )

    def _push_all(
        self, obj: dict[str, Any], skip: Optional[int] = None
    ) -> None:
        """Push one lease-coherence frame to every subscriber (but
        ``skip``, the shard whose own write caused it)."""
        frame = encode_frame(obj)
        for shard in self._subs:
            if shard != skip:
                self._push(shard, frame)

    def _release(self, callbacks: list, key: str, cost: Optional[float]) -> None:
        now = self.now()
        for callback in callbacks:
            callback(key, cost, now)

    # -- connections ---------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sub_shard: Optional[int] = None
        self._writers.add(writer)
        try:
            hello = await read_frame(reader)
            if hello is None or hello.get("kind") != "hello":
                writer.write(
                    encode_frame({"kind": "error", "message": "expected hello"})
                )
                await writer.drain()
                return
            shard = int(hello.get("shard", 0))
            self._admit_shard(shard)
            if hello.get("mode") == "sub":
                # Registered before the welcome goes out: a client that
                # has read its welcome is owed every later push.
                sub_shard = shard
                self._subs.setdefault(shard, set()).add(writer)
            writer.write(
                encode_frame(
                    {
                        "kind": "welcome",
                        "ttl": self.tier.ttl,
                        "join_window": self.tier.join_window,
                    }
                )
            )
            await writer.drain()
            await flush_pushed(self._pushed)
            if sub_shard is not None:
                # Subscription connections are push-only from here on;
                # block until the peer goes away.
                while await read_frame(reader) is not None:
                    pass
                return
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                writer.write(encode_frame(self._handle_rpc(frame)))
                await writer.drain()
                # The handler may have queued pushes on sub writers.
                await flush_pushed(self._pushed)
        except (FrameError, ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            self._pushed.discard(writer)
            if sub_shard is not None:
                self._subs.get(sub_shard, set()).discard(writer)
            writer.close()

    # -- RPC dispatch --------------------------------------------------

    def _handle_rpc(self, frame: dict[str, Any]) -> dict[str, Any]:
        kind = frame.get("kind")
        tier = self.tier
        now = self.now()
        try:
            if kind == "get":
                key, shard = frame["key"], frame["shard"]
                tier.get(key, now, shard)
                return {"kind": "value", **tier.lease(key, now, shard)}
            if kind == "put":
                key, shard = frame["key"], frame["shard"]
                before = tier.version(key)
                applied = tier.put(key, frame["cost"], now, shard)
                self._invalidate(key, before, shard)
                return {
                    "kind": "ok",
                    "applied": applied,
                    **tier.lease(key, now, shard),
                }
            if kind == "open":
                # seq is meaningless across processes; joinability is
                # wall-clock (opened_at=now) on this service's clock.
                tier.open_probe(
                    frame["key"], frame["shard"], frame["tag"], 0, now
                )
                return {"kind": "ok"}
            if kind == "join":
                shard = frame["shard"]
                joined = tier.join_probe(
                    frame["key"],
                    shard,
                    0,
                    lambda key, cost, _now, s=shard: self._push_resolved(
                        s, key, cost
                    ),
                )
                return {"kind": "ok", "joined": joined}
            if kind == "resolve":
                key = frame["key"]
                before = tier.version(key)
                released = tier.resolve_probe(
                    key, frame["tag"], frame["cost"], now
                )
                self._invalidate(key, before, frame.get("shard"))
                if released is not None:
                    self._release(released, key, frame["cost"])
                return {"kind": "ok", "resolved": released is not None}
            if kind == "churn":
                tier.on_membership_change(now)
                return {"kind": "ok"}
            if kind == "purge":
                removed = tier.purge(now)
                self._push_all({"kind": "flush"})
                return {"kind": "ok", "removed": removed}
            if kind == "clear":
                tier.clear()
                self._push_all({"kind": "flush"})
                return {"kind": "ok"}
            if kind == "stats":
                return {"kind": "ok", "stats": self.stats_snapshot()}
        except (KeyError, ValueError, TypeError) as exc:
            return {"kind": "error", "message": f"{kind}: {exc}"}
        return {"kind": "error", "message": f"unknown rpc kind {kind!r}"}

    def _invalidate(
        self, key: str, before: tuple[Optional[float], int], writer: Any
    ) -> None:
        """Push what a write just made stale.  A changed cost drops that
        key's lease at every shard but the writer's (its reply carries
        the fresh one); a cold fill changes nothing anyone can hold a
        lease on.  An LRU eviction removed some *other* key's entry from
        under its leases: flush, it is rare."""
        cost, evictions = self.tier.version(key)
        if evictions != before[1]:
            self._push_all({"kind": "flush"})
        elif before[0] is not None and cost != before[0]:
            self._push_all({"kind": "drop", "key": key}, skip=writer)

    def stats_snapshot(self) -> dict[str, Any]:
        tier = self.tier
        return {
            "entries": len(tier),
            "hits": tier.stats.hits,
            "misses": tier.stats.misses,
            "expirations": tier.stats.expirations,
            "evictions": tier.stats.evictions,
            "hit_rate": tier.stats.hit_rate,
            "probe_joins": tier.probe_joins,
            "publishes": tier.publishes,
            "single_writer_drops": tier.single_writer_drops,
            "shards": sorted(self._members),
            "by_shard": {
                shard: {"hits": stats.hits, "misses": stats.misses}
                for shard, stats in sorted(tier.shard_stats.items())
            },
        }


class RemoteSizeTier:
    """A front-end's client handle on a remote :class:`CacheService`.

    Duck-types the slice of the :class:`SharedGroupSizeCache` surface the
    front-end actually touches (``view``/``get``/``put``/``open_probe``/
    ``join_probe``/``resolve_probe``/``stats_for``/
    ``on_membership_change``), so ``Frontend(shared_sizes=tier)`` cannot
    tell a socket from the in-process object.  RPCs block on
    :class:`~repro.serve.protocol.SyncRpcChannel`; probe resolutions for
    joined probes arrive as pushes on the subscription connection, which
    :meth:`start` wires into the owning event loop.

    **The L1.**  Every ``get``/``put`` reply grants a *lease* on the
    key: the service entry's cost, its remaining TTL (a duration,
    re-anchored here on the ``now`` the caller passed *into* the call,
    i.e. before the round trip — so a lease never outlives the entry it
    copies) and whether this shard is the key's single writer.  While a
    lease is live, ``get`` answers from it; a ``put`` from a non-owner
    is dropped here (the decision the service's single-writer rule would
    have made, counted in :attr:`local_writer_drops`); a ``put`` from
    the owner with an *unchanged* cost is skipped until less than half
    the lease remains (refresh-ahead: the service entry can only expire
    earlier than an RPC per answer would have kept it, never later),
    while a *changed* cost always goes to the service, so the
    adaptive-TTL churn observation sees exactly what it saw before.

    Coherence rides the subscription connection (``drop {key}`` /
    ``flush``, see the module docstring), and leases are granted only
    while that stream is up: when it dies the L1 is flushed and the RPC
    side is severed with it, so the next call replays the handshake and
    re-subscribes.  Ordering, for a cost that shard A changes while
    shard B fills a lease: the service handles RPCs one at a time and
    writes A's ``drop`` to B's stream *before* it answers A.  B's fill
    is a synchronous RPC made on B's loop thread, which also reads B's
    stream — so B processes the ``drop`` only after the call that
    filled the lease has returned.  If the service saw B's RPC first, B
    holds the old cost and the ``drop`` that follows removes it: a
    reader can see a superseded cost for one push latency, no longer.
    If it saw A's write first, B's reply already carries the new cost
    and the ``drop`` arrives *after* that fresher fill: it removes a
    good lease, which costs one extra miss and nothing else.  A
    ``drop`` is never processed before a stale fill it should have
    removed.

    Degradation: if the service link drops, ``get`` misses, ``put`` and
    ``open_probe`` are no-ops, and ``join_probe`` returns False — the
    front-end falls back to exactly its private-cache behaviour (it
    probes for itself).  Results stay correct; only probe dedup and
    cross-shard freshness are lost until the service returns.

    Recovery: a :class:`~repro.serve.resilience.CircuitBreaker` gates
    every RPC.  Consecutive link failures trip it, turning further
    calls into instant misses (no connect timeout per query); when it
    half-opens, the one admitted probe call re-runs the HELLO handshake
    — which re-registers this shard with the service's router — and
    restarts the subscription connection.  Degradation is bounded by
    the breaker's reset window instead of lasting forever.
    """

    def __init__(
        self,
        host: str,
        port: int,
        shard: int,
        network: Any = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.shard = shard
        #: the shard's RemoteNetwork (for the clock and burst counter);
        #: optional so the tier can be used standalone in tests.
        self.network = network
        self.rpc = SyncRpcChannel(host, port)
        self.ttl = 60.0
        self._stats = CacheStats()
        self.breaker = breaker or CircuitBreaker()
        self.reconnects = 0
        #: key -> callbacks waiting on a joined probe's push.
        self._callbacks: dict[str, list[Callable]] = {}
        #: the L1, on the clock of the ``now`` arguments (the transport's).
        self._leases: dict[str, _Lease] = {}
        #: leases are granted only while the push stream that keeps
        #: them coherent is up.
        self._pushes_live = False
        self.l1_hits = 0
        self.local_writer_drops = 0
        self.refreshes_skipped = 0
        self.l1_flushes = 0
        self._sub_task: Optional[asyncio.Task] = None
        self._sub_writer: Optional[asyncio.StreamWriter] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Open both connections and start the push reader task."""
        self._loop = asyncio.get_running_loop()
        self.rpc.connect()
        hello = self.rpc.request(
            {"kind": "hello", "mode": "rpc", "shard": self.shard}
        )
        self.ttl = hello.get("ttl", self.ttl)
        await self._open_sub()
        self.breaker.record_success()

    async def close(self) -> None:
        if self._sub_task is not None:
            self._sub_task.cancel()
            try:
                await self._sub_task
            except asyncio.CancelledError:
                pass
        if self._sub_writer is not None:
            self._sub_writer.close()
        self.rpc.close()

    async def _open_sub(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        writer.write(
            encode_frame({"kind": "hello", "mode": "sub", "shard": self.shard})
        )
        await writer.drain()
        welcome = await read_frame(reader)
        if welcome is None or welcome.get("kind") != "welcome":
            writer.close()
            raise ConnectionError(f"cache service refused us: {welcome!r}")
        if self._sub_writer is not None:
            self._sub_writer.close()
        self._sub_writer = writer
        self._pushes_live = True
        self._sub_task = asyncio.ensure_future(self._read_pushes(reader))

    def _revive(self) -> None:
        """Re-open the RPC connection after an outage.

        The HELLO handshake is what registers this shard with the
        service (and, for a restarted service learning its members from
        scratch, what rebuilds the router), so a bare reconnect is not
        enough — every revival replays it.  The subscription connection
        restarts on the owning event loop.
        """
        self.rpc.connect()
        hello = self.rpc.request(
            {"kind": "hello", "mode": "rpc", "shard": self.shard}
        )
        self.ttl = hello.get("ttl", self.ttl)
        self.reconnects += 1
        if self.network is not None and self.network.stats is not None:
            self.network.stats.link_reconnects += 1
        self._schedule_resub()

    def _schedule_resub(self) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return

        def _spawn() -> None:
            if self._sub_task is None or self._sub_task.done():
                self._sub_task = asyncio.ensure_future(self._resub())

        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            _spawn()
        else:
            loop.call_soon_threadsafe(_spawn)

    async def _resub(self) -> None:
        try:
            await self._open_sub()
        except (ConnectionError, OSError):
            # The RPC revival succeeded moments ago; if the sub side
            # lost the race with another outage, the next revival
            # (breaker half-open) retries it.
            pass

    async def _read_pushes(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                kind = frame.get("kind")
                if kind == "resolved":
                    self._on_resolved(frame["key"], frame["cost"])
                elif kind == "drop":
                    self._leases.pop(frame["key"], None)
                elif kind == "flush":
                    self._flush_leases()
        except (ConnectionError, FrameError, asyncio.CancelledError):
            pass
        finally:
            # The push stream is gone, and with it the only thing that
            # kept the leases true.  Sever the RPC side too: the next
            # call then replays the handshake and re-subscribes, instead
            # of running without pushes until the RPC link happens to
            # fail on its own.
            self._pushes_live = False
            self._flush_leases()
            self.rpc.close()
            # Every joined probe this shard is waiting on would
            # otherwise wait forever.  Release them NULL — the front-end
            # re-probes for itself (Section 7's fail-not-hang contract,
            # applied to the cache tier).
            pending, self._callbacks = self._callbacks, {}
            now = self._now()
            for key, callbacks in pending.items():
                for callback in callbacks:
                    callback(key, None, now)

    def _on_resolved(self, key: str, cost: Optional[float]) -> None:
        callbacks = self._callbacks.pop(key, ())
        if self.network is not None:
            # A push is an inbound event: it ends the current synchronous
            # burst, like any delivery on the overlay link.
            self.network.bump_burst()
        now = self._now()
        for callback in callbacks:
            callback(key, cost, now)

    def _now(self) -> float:
        return self.network.now if self.network is not None else 0.0

    def _request(self, frame: dict[str, Any]) -> Optional[dict[str, Any]]:
        if not self.breaker.allow():
            return None  # open breaker: degrade instantly, no connect wait
        deadline = (
            self.network.active_deadline if self.network is not None else None
        )
        try:
            if not self.rpc.connected:
                self._revive()
            reply = self.rpc.request(frame, deadline=deadline)
        except DeadlineExceeded:
            # The *caller's* budget ran out — says nothing about the
            # service's health, so the breaker doesn't hear about it.
            if self.network is not None and self.network.stats is not None:
                self.network.stats.deadline_expired += 1
            return None
        except (ConnectionError, OSError):
            self.breaker.record_failure()
            return None
        self.breaker.record_success()
        return reply

    def link_health(self) -> dict[str, Any]:
        """Per-link state for ``/stats`` (see ``docs/API.md``)."""
        state = "connected" if self.rpc.connected else "degraded"
        if self.breaker.state == CircuitBreaker.OPEN:
            state = "breaker-open"
        return {
            "state": state,
            "reconnects": self.reconnects,
            "l1_flushes": self.l1_flushes,
            "breaker": self.breaker.snapshot(),
        }

    def l1_stats(self) -> dict[str, int]:
        """The L1's counters for ``/stats`` ``size_cache``."""
        return {
            "l1_hits": self.l1_hits,
            "local_writer_drops": self.local_writer_drops,
            "refreshes_skipped": self.refreshes_skipped,
            "l1_entries": len(self._leases),
        }

    # -- the L1 --------------------------------------------------------

    def _flush_leases(self) -> None:
        self._leases.clear()
        self.l1_flushes += 1

    def _live(self, key: str, now: float) -> Optional[_Lease]:
        lease = self._leases.get(key)
        return lease if lease is not None and now <= lease.expires_at else None

    def _hold(
        self, key: str, reply: Optional[dict[str, Any]], now: float
    ) -> Optional[float]:
        """Take the lease a ``get``/``put`` reply grants on ``key`` (or
        give up the one we held, when it grants none); returns the
        entry's cost.  ``now`` is the caller's clock from *before* the
        round trip."""
        ttl = reply.get("lease") if reply else None
        if ttl is None or not self._pushes_live:
            self._leases.pop(key, None)
        else:
            if len(self._leases) >= _L1_MAX:
                self._flush_leases()  # always safe: it only costs misses
            self._leases[key] = _Lease(
                reply["cost"], now + ttl, now + ttl / 2, reply["owner"]
            )
        return reply.get("cost") if reply else None

    # -- SharedGroupSizeCache surface ----------------------------------

    @property
    def enabled(self) -> bool:
        return self.ttl > 0

    def view(self, shard: int) -> ShardedSizeCache:
        return ShardedSizeCache(self, shard)  # type: ignore[arg-type]

    def stats_for(self, shard: int) -> CacheStats:
        # Client-local counters (what *this* process observed); the
        # service keeps the authoritative cluster-wide ledger.
        return self._stats

    def __len__(self) -> int:
        reply = self._request({"kind": "stats"})
        return reply["stats"]["entries"] if reply else 0

    def get(self, key: str, now: float, shard: int = 0) -> Optional[float]:
        lease = self._live(key, now)
        if lease is not None:
            self.l1_hits += 1
            cost: Optional[float] = lease.cost
        else:
            cost = self._hold(
                key,
                self._request({"kind": "get", "key": key, "shard": shard}),
                now,
            )
        if cost is None:
            self._stats.misses += 1
        else:
            self._stats.hits += 1
        return cost

    def put(self, key: str, cost: float, now: float, shard: int = 0) -> bool:
        lease = self._live(key, now)
        if lease is not None:
            if not lease.owner:
                # A live entry and we are not its writer: the service
                # would drop this write, so it never leaves.
                self.local_writer_drops += 1
                return False
            if cost == lease.cost and now < lease.refresh_at:
                # Nothing to tell the service but "still true", and the
                # entry has more than half its life left.
                self.refreshes_skipped += 1
                return True
        reply = self._request(
            {"kind": "put", "key": key, "cost": cost, "shard": shard}
        )
        self._hold(key, reply, now)
        return bool(reply and reply.get("applied"))

    def open_probe(
        self, key: str, shard: int, tag: str, seq: int, now: float = 0.0
    ) -> None:
        self._request(
            {"kind": "open", "key": key, "shard": shard, "tag": tag}
        )

    def join_probe(
        self, key: str, shard: int, seq: int, callback: Callable
    ) -> bool:
        reply = self._request({"kind": "join", "key": key, "shard": shard})
        if not (reply and reply.get("joined")):
            return False
        self._callbacks.setdefault(key, []).append(callback)
        return True

    def resolve_probe(
        self, key: str, tag: str, cost: Optional[float], now: float
    ) -> Optional[list]:
        # Whatever the answer, what we held for the key is superseded
        # (the service tells the *other* shards).
        self._leases.pop(key, None)
        reply = self._request(
            {
                "kind": "resolve",
                "key": key,
                "tag": tag,
                "cost": cost,
                "shard": self.shard,
            }
        )
        if reply and reply.get("resolved"):
            # Remote waiters are served by service pushes; locally there
            # is nothing left to call, but a non-None return tells the
            # front-end the answer was published (skip the plain put).
            return []
        return None

    def on_membership_change(self, now: float) -> None:
        # The service watches the overlay itself (one churn feed
        # cluster-wide); per-shard notifications would double-count.
        pass

    def purge(self, now: float) -> int:
        reply = self._request({"kind": "purge"})
        return reply.get("removed", 0) if reply else 0

    def clear(self) -> None:
        self._request({"kind": "clear"})
        self._flush_leases()

    def service_stats(self) -> Optional[dict[str, Any]]:
        reply = self._request({"kind": "stats"})
        return reply["stats"] if reply else None
