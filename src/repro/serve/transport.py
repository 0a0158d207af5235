"""Deployed-plane transports behind the :class:`~repro.sim.network.
FrontendTransport` seam.

Two implementations, both of which run an **unmodified**
:class:`repro.core.frontend.Frontend`:

* :class:`RemoteNetwork` — the real thing: a TCP link to the overlay
  service (:mod:`repro.serve.overlay_service`).  Outbound ``send`` calls
  are counted in a local :class:`~repro.sim.stats.MessageStats` ledger
  (exactly the counts-only accounting the simulated network does) and
  framed onto the socket; the reader task turns inbound frames back into
  :class:`~repro.sim.network.Message` objects, bumps the burst counter,
  and hands them to the front-end.  The clock is monotonic wall time.
* :class:`LocalLoopback` — the same topology with no sockets: the
  transport is wired straight to a frontend-less backend
  :class:`~repro.core.cluster.MoaraCluster` in the same process.
  Delivery is *deferred* (inbound messages queue until :meth:`~
  LocalLoopback.pump`), which reproduces the event-loop's
  never-re-entrant delivery discipline deterministically.  The link
  also carries scripted faults (:class:`LinkFault`: drop, delay,
  duplicate, partition, reset), seeded so a faulted run replays
  bit-identically.

:class:`repro.campaigns.planes.LoopbackPlane` assembles N loopback
front-ends over one backend into the full deployed-shape query plane.
"""

from __future__ import annotations

import asyncio
import contextlib
import heapq
import itertools
import random
import time
from collections import Counter
from typing import Any, Callable, Iterator, Optional

from repro.core.cluster import MoaraCluster
from repro.pastry.idspace import IdSpace
from repro.pastry.overlay import Overlay
from repro.serve.protocol import encode_frame, read_frame
from repro.serve.resilience import CircuitBreaker, Deadline, RetryPolicy
from repro.sim.network import Message
from repro.sim.stats import MessageStats

__all__ = [
    "LinkFault",
    "LocalLoopback",
    "OverlayMirror",
    "RemoteNetwork",
]


def _count_send(
    stats: MessageStats,
    src: int,
    dst: int,
    mtype: str,
    payload: dict[str, Any],
) -> None:
    """The simulated network's counts-only send accounting, shared by
    both deployed transports (kept in sync with ``Network.send``)."""
    stats.total_messages += 1
    stats.by_type[mtype] += 1
    stats.sent_by_node[src] += 1
    stats.received_by_node[dst] += 1
    tag = payload.get("qid")
    if tag is None:
        tag = payload.get("probe_id")
    if tag is not None and tag not in stats._closed_tags:
        stats.per_query[tag] += 1


class OverlayMirror:
    """A front-end's local replica of the overlay membership.

    Tree-root resolution (``overlay.root``) is a pure function of the
    live membership and the ID space, so a front-end that mirrors the
    member list routes identically to an in-process one — no per-query
    round-trip to ask "who is the root for this group?".  The overlay
    service streams membership deltas to keep the mirror current.
    """

    def __init__(self, space: IdSpace, members: list[int]) -> None:
        self.overlay = Overlay(space)
        if members:
            self.overlay.bulk_join(members)

    def apply(self, joined: set[int], left: set[int]) -> None:
        for node_id in left:
            if node_id in self.overlay:
                self.overlay.remove_node(node_id)
        for node_id in joined:
            if node_id not in self.overlay:
                self.overlay.add_node(node_id)


class RemoteNetwork:
    """:class:`FrontendTransport` over a TCP link to the overlay service.

    Use::

        net = RemoteNetwork("127.0.0.1", 7401, node_id=-1)
        await net.start()          # HELLO/WELCOME + membership snapshot
        fe = Frontend(net, net.overlay, node_id=net.node_id, ...)

    ``send`` never blocks (frames are buffered on the stream writer);
    inbound frames are dispatched by the reader task on the event loop,
    so the front-end's handlers always run on the loop thread.
    """

    def __init__(
        self,
        host: str,
        port: int,
        node_id: int,
        stats: Optional[MessageStats] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        reconnect: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.node_id = node_id
        self.stats = stats or MessageStats()
        self.mirror: Optional[OverlayMirror] = None
        self._frontend: Any = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._reconnect_task: Optional[asyncio.Task] = None
        self._t0 = time.monotonic()
        self._burst = 0
        self._origin: Any = None  # the last welcome's share-stamp origin
        self._rolls = itertools.count()
        self.connected = False
        self._closing = False
        #: reconnect pacing (full-jitter backoff; unbounded attempts by
        #: default — the link heals whenever the service comes back).
        self.retry = retry or RetryPolicy()
        #: link-state surface: trips open the instant the socket dies
        #: (threshold 1 — there is nothing to probe except reconnecting),
        #: closes again on a successful re-attach.
        self.breaker = breaker or CircuitBreaker(failure_threshold=1)
        self.auto_reconnect = reconnect
        self.reconnects = 0
        self.reconnect_failures = 0
        #: the deadline scope: while set, outbound frames carry the
        #: remaining end-to-end budget and register their wire tag so
        #: response-triggered sends inherit the same budget.
        self._active_deadline: Optional[Deadline] = None
        #: wire tag -> budget of the query that sent it; an entry lives
        #: while the front-end has the tag in flight (released when it
        #: drains the tag), so the table is O(in-flight), not O(served).
        self._tag_deadlines: dict[str, Deadline] = {}
        #: table size that triggers the expiry sweep (a backstop for
        #: tags whose answer never came); doubles with the survivors.
        self._deadline_sweep_at = 512
        #: observers of membership deltas (the server wires health/stats
        #: surfaces in here; the attached front-end is always notified).
        self.on_members: list[Callable[[set[int], set[int]], None]] = []

    # -- FrontendTransport seam ---------------------------------------

    def attach(self, process: Any) -> None:
        self._frontend = process

    def send(
        self,
        src: int,
        dst: int,
        mtype: str,
        payload: Optional[dict[str, Any]] = None,
    ) -> None:
        if payload is None:
            payload = {}
        _count_send(self.stats, src, dst, mtype, payload)
        tag = payload.get("qid")
        if tag is None:
            tag = payload.get("probe_id")
        deadline = self._active_deadline
        if deadline is None and tag is not None:
            deadline = self._tag_deadlines.get(tag)
        # One clock read: a budget that runs out between a check and the
        # frame would reach the overlay spent, and be dropped unanswered.
        left = deadline.remaining() if deadline is not None else None
        if left is not None and left <= 0.0:
            # Nobody is waiting any more: don't burn the overlay's time.
            self.stats.record_drop()
            self.stats.deadline_expired += 1
            if tag is not None:
                self._fail_tags({tag}, "end-to-end deadline exceeded")
            return
        writer = self._writer
        if writer is None or writer.is_closing():
            # Overlay link down.  PR 6 treated this as "in flight and
            # lost" (a silent drop the caller only discovered by HTTP
            # timeout); now the send *fails*: the affected query resolves
            # NULL immediately, per the Section 7 contract.
            self.stats.record_drop()
            self.stats.link_send_failures += 1
            if tag is not None:
                self._fail_tags({tag}, "overlay link down")
            return
        frame = {
            "kind": "wire",
            "src": src,
            "dst": dst,
            "mtype": mtype,
            "payload": payload,
        }
        if deadline is not None:
            frame["deadline"] = left
            if tag is not None:
                self._register_deadline(tag, deadline)
        writer.write(encode_frame(frame))

    # -- deadline propagation ------------------------------------------

    @property
    def active_deadline(self) -> Optional[Deadline]:
        """The deadline scope currently in force (None outside a query);
        side-channel RPCs (the cache tier) cap their hops with it."""
        return self._active_deadline

    @contextlib.contextmanager
    def deadline_scope(self, deadline: Optional[Deadline]) -> Iterator[None]:
        """While active, outbound frames carry ``deadline``'s remaining
        budget (and tag-register it, so the sends triggered later by the
        responses — e.g. the FRONTEND_QUERY fan-out after a SIZE_RESPONSE
        — stay under the same end-to-end budget)."""
        previous = self._active_deadline
        self._active_deadline = deadline
        try:
            yield
        finally:
            self._active_deadline = previous

    def _register_deadline(self, tag: str, deadline: Deadline) -> None:
        table = self._tag_deadlines
        table[tag] = deadline
        if len(table) > self._deadline_sweep_at:
            # Only tags nobody drained (a lost answer) are left to expire
            # here, and they resolve NULL: nothing else would end them.
            # The threshold doubles with what survives, so the sweep is
            # amortised O(1) per registration however many queries are
            # in flight.
            expired = {t for t, d in table.items() if d.expired}
            self._tag_deadlines = table = {
                t: d for t, d in table.items() if t not in expired
            }
            self._deadline_sweep_at = max(512, 2 * len(table))
            if expired:
                self._fail_tags(expired, "end-to-end deadline exceeded")

    def _fail_tags(self, tags: Optional[set[str]], reason: str) -> None:
        """Resolve in-flight front-end work for ``tags`` as NULL (all of
        it when None).  Deferred to the next loop tick when a loop is
        running, so a failure surfacing mid-``submit`` never re-enters
        the front-end's state machine."""
        if self._frontend is None:
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            self._resolve_null(tags, reason)
            return
        loop.call_soon(self._resolve_null, tags, reason)

    def _resolve_null(self, tags: Optional[set[str]], reason: str) -> None:
        self._frontend.on_link_failure(tags, reason)
        # The front-end has drained these tags; their budgets go with
        # them (kept until now so the rest of the burst that failed the
        # tag is still refused by the same expired budget).
        if tags is None:
            self._tag_deadlines.clear()
        else:
            for tag in tags:
                self._tag_deadlines.pop(tag, None)

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    @property
    def burst_seq(self) -> int:
        return self._burst

    def issue_origin(self) -> str:
        # Suffixed with a roll count: a new origin needs no handshake.
        return f"{self._origin}.{next(self._rolls)}"

    def bump_burst(self) -> None:
        """Advance the synchronous-burst counter (an inbound event was
        processed by something other than the overlay link — e.g. the
        cache-service subscription channel)."""
        self._burst += 1

    @property
    def overlay(self) -> Overlay:
        if self.mirror is None:
            raise RuntimeError("RemoteNetwork.start() has not completed")
        return self.mirror.overlay

    # -- link lifecycle ------------------------------------------------

    async def _connect(
        self,
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter, dict[str, Any]]:
        """One HELLO/WELCOME handshake; returns the fresh link + snapshot."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        writer.write(
            encode_frame(
                {"kind": "hello", "role": "frontend", "node_id": self.node_id}
            )
        )
        await writer.drain()
        welcome = await read_frame(reader)
        if welcome is None or welcome.get("kind") != "welcome":
            writer.close()
            raise ConnectionError(f"overlay service refused us: {welcome!r}")
        self._origin = welcome["origin"]
        return reader, writer, welcome

    async def start(self) -> None:
        """Connect, introduce ourselves, and load the membership snapshot."""
        reader, writer, welcome = await self._connect()
        self._reader, self._writer = reader, writer
        space = welcome["space"]
        self.mirror = OverlayMirror(
            IdSpace(bits=space["bits"], digit_bits=space["digit_bits"]),
            welcome["members"],
        )
        self.connected = True
        self.breaker.record_success()
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @property
    def link_state(self) -> str:
        """``connected`` / ``reconnecting`` / ``down`` (for ``/stats``)."""
        if self.connected:
            return "connected"
        if self._reconnect_task is not None and not self._reconnect_task.done():
            return "reconnecting"
        return "down"

    def link_health(self) -> dict[str, Any]:
        """The per-link health surface exposed by the front-end server."""
        return {
            "state": self.link_state,
            "reconnects": self.reconnects,
            "reconnect_failures": self.reconnect_failures,
            "send_failures": self.stats.link_send_failures,
            "breaker": self.breaker.snapshot(),
        }

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                kind = frame["kind"]
                if kind == "wire":
                    self._burst += 1
                    payload = frame["payload"]
                    message = Message(
                        frame["mtype"],
                        frame["src"],
                        frame["dst"],
                        payload,
                        sent_at=self.now,
                    )
                    if self._frontend is not None:
                        tag = payload.get("qid")
                        if tag is None:
                            tag = payload.get("probe_id")
                        scope = (
                            self._tag_deadlines.get(tag)
                            if tag is not None
                            else None
                        )
                        # Sends triggered while handling this response
                        # (cover fan-out after a probe answer) inherit
                        # the originating query's end-to-end budget.
                        with self.deadline_scope(scope):
                            self._frontend.handle_message(message)
                        if scope is not None and not self.stats.tagged(tag):
                            # That was the tag's last answer (the
                            # front-end drained its message count):
                            # nothing can inherit this budget any more.
                            self._tag_deadlines.pop(tag, None)
                elif kind == "members":
                    self._burst += 1
                    joined = set(frame["joined"])
                    left = set(frame["left"])
                    assert self.mirror is not None
                    self.mirror.apply(joined, left)
                    if self._frontend is not None:
                        self._frontend.on_membership_change(joined, left)
                    for listener in self.on_members:
                        listener(joined, left)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.connected = False
            if not self._closing:
                self._on_link_lost()

    def _on_link_lost(self) -> None:
        """The overlay socket died: fail (don't lose) everything in
        flight, trip the breaker, and start the backoff-paced reconnect."""
        trips_before = self.breaker.trips
        self.breaker.record_failure()
        self.stats.breaker_trips += self.breaker.trips - trips_before
        # Frames queued on the dead writer are gone; pending queries
        # resolve NULL now instead of hanging until their HTTP timeout.
        self._fail_tags(None, "overlay link lost")
        if self.auto_reconnect and (
            self._reconnect_task is None or self._reconnect_task.done()
        ):
            self._reconnect_task = asyncio.ensure_future(
                self._reconnect_loop()
            )

    async def _reconnect_loop(self) -> None:
        """Re-dial with full-jitter backoff until the service answers,
        then re-attach: fresh membership snapshot diffed into the mirror
        (notifying the front-end, which NULL-resolves work stuck on
        roots that departed during the outage) and a new reader task."""
        try:
            for pause in self.retry.attempts():
                await asyncio.sleep(pause)
                if self._closing:
                    return
                try:
                    reader, writer, welcome = await self._connect()
                except (OSError, ConnectionError):
                    self.reconnect_failures += 1
                    continue
                self._reader, self._writer = reader, writer
                assert self.mirror is not None
                current = set(self.mirror.overlay.node_ids)
                fresh = set(welcome["members"])
                joined, left = fresh - current, current - fresh
                self.mirror.apply(joined, left)
                self.connected = True
                self.reconnects += 1
                self.stats.link_reconnects += 1
                self.breaker.record_success()
                self._reader_task = asyncio.ensure_future(self._read_loop())
                if joined or left:
                    if self._frontend is not None:
                        self._frontend.on_membership_change(joined, left)
                    for listener in self.on_members:
                        listener(joined, left)
                return
        except asyncio.CancelledError:
            pass

    async def close(self) -> None:
        self._closing = True
        self.connected = False
        for task in (self._reconnect_task, self._reader_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass


#: link fault kinds, in the order they are consulted per frame (a reset
#: window preempts everything; a partition/drop eats the frame before
#: delay or duplicate get a say).
FAULT_KINDS = ("reset", "partition", "drop", "delay", "duplicate")
DIRECTIONS = ("outbound", "inbound", "both")


class LinkFault:
    """One active fault on one direction of one loopback link."""

    __slots__ = ("kind", "direction", "p", "delay", "until")

    def __init__(
        self,
        kind: str,
        direction: str = "both",
        p: float = 1.0,
        delay: float = 0.0,
        until: Optional[float] = None,
    ) -> None:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown fault direction {direction!r}")
        self.kind = kind
        self.direction = direction
        self.p = p
        self.delay = delay
        #: plane-time expiry; None = active for the life of the link
        self.until = until

    def matches(self, direction: str, now: float) -> bool:
        if self.until is not None and now >= self.until:
            return False
        return self.direction in (direction, "both")


class LocalLoopback:
    """Deployed-shape transport wired straight to an in-process backend.

    The front-end behaves exactly as it would behind
    :class:`RemoteNetwork` — sends are counted in a private ledger and
    *queued*, inbound delivery happens strictly between bursts — but the
    "wire" is a list and the "overlay service" is the backend cluster in
    the same process.  The link attaches itself to the backend network
    under the front-end's id and queues what arrives; :meth:`pump`
    delivers it (or use :class:`repro.campaigns.planes.LoopbackPlane`,
    which does).

    The link can also misbehave like a real overlay link under a
    scripted fault (:meth:`inject` / :meth:`reset_link`): frames are
    dropped, delayed, duplicated, one-way partitioned, or the whole link
    is reset mid-flight.  Faults are deterministic from ``seed`` (one
    private ``random.Random`` per link, consulted in frame order), and a
    link with no active fault draws no random numbers.  Outbound, a send
    during a reset window *fails fast* — the affected query resolves
    NULL via :meth:`repro.core.frontend.Frontend.on_link_failure`, the
    dead-socket behaviour of :class:`RemoteNetwork` — while a partition
    eats the frame silently (the sender cannot tell).  Held (delayed)
    frames release on the backend's simulated clock during :meth:`pump`;
    :meth:`pending_release` lets a driver advance the clock to the next
    release instead of declaring the plane stuck.
    """

    def __init__(
        self,
        backend: MoaraCluster,
        node_id: int,
        burst_counter: Optional[list[int]] = None,
        seed: int = 0,
    ) -> None:
        self.backend = backend
        self.node_id = node_id
        self.stats = MessageStats()
        self._frontend: Any = None
        #: plane-wide delivery counter (a shared one-element list):
        #: cross-shard probe joins compare ``created_seq`` values, so
        #: every transport of one plane must read the *same* counter —
        #: the loopback analog of the engine's global event count.
        self._burst = burst_counter if burst_counter is not None else [0]
        self._events: list[tuple] = []
        self._rng = random.Random(seed)
        self._faults: list[LinkFault] = []
        self._dead_until = float("-inf")
        self._seq = itertools.count()
        #: held (delayed) frames: (release_at, seq, direction, item)
        self._held: list[tuple] = []
        #: queued NULL-resolutions delivered on the next pump, so a send
        #: failing mid-``submit`` never re-enters the front-end
        self._pending_failures: list[tuple[Optional[set], str]] = []
        #: extra copies injected per message type (the probe-budget
        #: oracle subtracts these: a duplicated SIZE_PROBE is the wire's
        #: doing, not a front-end regression)
        self.dup_counts: Counter = Counter()
        self.drops = 0
        self.resets = 0
        backend.network.attach(self)
        backend.overlay.add_listener(self._queue_membership)

    # -- FrontendTransport seam ---------------------------------------

    def attach(self, process: Any) -> None:
        self._frontend = process

    def send(
        self,
        src: int,
        dst: int,
        mtype: str,
        payload: Optional[dict[str, Any]] = None,
    ) -> None:
        if payload is None:
            payload = {}
        _count_send(self.stats, src, dst, mtype, payload)
        now = self.now
        if now < self._dead_until:
            # Reset window: the socket is gone, the sender *knows* — the
            # affected query fails fast instead of waiting out a timeout.
            self.stats.record_drop()
            self.stats.link_send_failures += 1
            self.drops += 1
            tag = payload.get("qid") or payload.get("probe_id")
            if tag is not None:
                self._pending_failures.append(({tag}, "link reset"))
            return
        fate, delay = self._fate("outbound", now)
        if fate == "drop":
            self.stats.record_drop()
            self.drops += 1
            return
        if fate == "delay":
            heapq.heappush(
                self._held,
                (now + delay, next(self._seq), "out", (src, dst, mtype, payload)),
            )
            return
        self.backend.network.send(src, dst, mtype, payload)
        if fate == "duplicate":
            self.dup_counts[mtype] += 1
            self.backend.network.send(src, dst, mtype, payload)

    @property
    def now(self) -> float:
        # Sharing the backend's simulated clock keeps loopback runs
        # deterministic and time-comparable with the simulated plane.
        return self.backend.engine.now

    @property
    def burst_seq(self) -> int:
        # Plane-wide deliveries plus backend engine events: a probe or
        # share opened before *any* event was processed anywhere stops
        # being joinable, matching the simulated plane's global rule.
        return self._burst[0] + self.backend.engine.events_processed

    def issue_origin(self) -> int:
        return self.backend.network.issue_origin()

    # -- fault scripting ----------------------------------------------

    def inject(self, fault: LinkFault) -> None:
        """Activate a drop/delay/duplicate/partition fault until its
        ``until``; ``reset`` faults go through :meth:`reset_link` (they
        are an event, not a state)."""
        if fault.kind == "reset":
            self.reset_link(
                0.0 if fault.until is None else max(0.0, fault.until - self.now)
            )
        else:
            self._faults.append(fault)

    def reset_link(self, duration: float = 0.0) -> None:
        """Kill the link now: every held frame is lost, everything in
        flight fails (NULL resolution), and for ``duration`` seconds
        further sends fail fast — the loopback analog of a TCP RST
        followed by :class:`RemoteNetwork`'s reconnect window."""
        self.resets += 1
        lost = len(self._held)
        self._held.clear()
        self.drops += lost
        for _ in range(lost):
            self.stats.record_drop()
        self._dead_until = max(self._dead_until, self.now + duration)
        self._pending_failures.append((None, "link reset"))

    def _fate(self, direction: str, now: float) -> tuple[str, float]:
        """Decide one frame's fate from the active faults (first match
        in FAULT_KINDS order wins; duplicate composes with delivery)."""
        self._faults = [
            f for f in self._faults if f.until is None or now < f.until
        ]
        for kind in ("partition", "drop"):
            for fault in self._faults:
                if fault.kind == kind and fault.matches(direction, now):
                    if kind == "partition" or self._rng.random() < fault.p:
                        return "drop", 0.0
        for fault in self._faults:
            if fault.kind == "delay" and fault.matches(direction, now):
                if self._rng.random() < fault.p:
                    return "delay", fault.delay
        for fault in self._faults:
            if fault.kind == "duplicate" and fault.matches(direction, now):
                if self._rng.random() < fault.p:
                    return "duplicate", 0.0
        return "deliver", 0.0

    # -- delivery ------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        """Backend-side arrival: queue the frame for the next pump."""
        self._events.append(("wire", message))

    def _queue_membership(self, joined: set[int], left: set[int]) -> None:
        # Control plane: membership deltas model the overlay service's
        # push stream, which link faults do not script.
        self._events.append(("members", set(joined), set(left)))

    def _receive(self, message: Message) -> None:
        """Apply the inbound faults to one frame, then deliver it."""
        now = self.now
        if now < self._dead_until:
            self.stats.record_drop()
            self.drops += 1
            return
        fate, delay = self._fate("inbound", now)
        if fate == "drop":
            self.stats.record_drop()
            self.drops += 1
            return
        if fate == "delay":
            heapq.heappush(
                self._held, (now + delay, next(self._seq), "in", message)
            )
            return
        self._frontend.handle_message(message)
        if fate == "duplicate":
            self.dup_counts[message.mtype] += 1
            self._frontend.handle_message(message)

    def pending_release(self) -> Optional[float]:
        """Earliest held-frame release time (None when nothing is held)."""
        return self._held[0][0] if self._held else None

    def pump(self) -> int:
        """Run the backend engine until idle, then deliver the queued
        inbound events, the held frames now due, and the queued link
        failures.  Returns the number delivered (the activity signal)."""
        self.backend.run_until_idle()
        delivered = 0
        while self._events:
            event = self._events.pop(0)
            self._burst[0] += 1
            delivered += 1
            if self._frontend is None:
                continue
            if event[0] == "wire":
                self._receive(event[1])
            else:
                self._frontend.on_membership_change(event[1], event[2])
        now = self.now
        while self._held and self._held[0][0] <= now:
            _, _, direction, item = heapq.heappop(self._held)
            delivered += 1
            if direction == "out":
                self.backend.network.send(*item)
            else:
                self._frontend.handle_message(item)
        while self._pending_failures:
            tags, reason = self._pending_failures.pop(0)
            delivered += 1
            if self._frontend is not None:
                self._frontend.on_link_failure(tags, reason)
        return delivered
