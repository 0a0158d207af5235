"""Simulated message-passing network.

The network delivers :class:`Message` objects between registered
:class:`Process` instances, charging wire delay and per-node service time
according to the configured :class:`~repro.sim.latency.LatencyModel`, and
recording every send in :class:`~repro.sim.stats.MessageStats`.

Queueing model: a node serializes its sends (a k-way fan-out costs k send
service times at the sender) and serializes the ingestion of arrivals.  This
is what lets the LAN/WAN models reproduce the fan-out- and straggler-
dominated latencies of the paper's Emulab and PlanetLab experiments.

Byte accounting is lazy: a :class:`Message` no longer walks its payload at
construction.  ``message.size`` is computed (and cached) on first access,
and the network only touches it when its :class:`MessageStats` runs with
``detailed_bytes=True`` -- the default counts-only mode skips payload
walks entirely, which is what the paper's message-count metrics need.
"""

from __future__ import annotations

import itertools
from typing import Any, Hashable, Iterable, Optional, Protocol, runtime_checkable

from repro.sim.engine import Engine
from repro.sim.latency import LatencyModel, ZeroLatencyModel
from repro.sim.stats import MessageStats

__all__ = [
    "FrontendTransport",
    "Message",
    "Network",
    "Process",
    "estimate_size",
]

_BASE_HEADER_BYTES = 40  # rough IP+UDP+framing overhead per message

#: bound ``object.__new__`` used by the network's inlined Message
#: construction (skips the ``__init__`` call frame on the hot path).
_new_message = object.__new__


def estimate_size(value: Any) -> int:
    """Rough serialized size in bytes of a payload value.

    Used only for byte accounting; the paper reports message counts, so this
    is informational.
    """
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, dict):
        return sum(estimate_size(k) + estimate_size(v) for k, v in value.items()) + 4
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(estimate_size(item) for item in value) + 4
    # Fall back to the repr for unusual payloads (e.g., partial aggregates).
    return len(repr(value))


@runtime_checkable
class Process(Protocol):
    """Anything that can be attached to the network."""

    node_id: int

    def handle_message(self, message: "Message") -> None:
        """Process one delivered message."""


@runtime_checkable
class FrontendTransport(Protocol):
    """The transport seam the query plane's :class:`~repro.core.frontend.
    Frontend` is written against.

    This protocol is the *entire* surface a front-end needs from the
    world, which is what lets the simulated plane (this module's
    :class:`Network`) and the deployed asyncio plane
    (:class:`repro.serve.transport.RemoteNetwork` /
    :class:`repro.serve.transport.LocalLoopback`) share the
    planner/cache/router code verbatim:

    * :meth:`attach` / :meth:`send` — register the front-end for inbound
      :class:`Message` delivery and emit wire messages toward tree roots;
    * :attr:`stats` — the :class:`~repro.sim.stats.MessageStats` ledger
      every send and query completion is recorded in;
    * :attr:`now` — the transport's clock (simulated seconds on the
      engine, monotonic wall seconds in a deployed front-end);
    * :attr:`burst_seq` — a counter that advances whenever an inbound
      event is processed.  Probe/sub-query joins are only legal within
      one ``burst_seq`` value ("same synchronous burst"), which is the
      rule that stops a lost response from poisoning later queries;
    * :meth:`issue_origin` — a share-stamp ``origin`` no other front-end
      incarnation holds (see :mod:`repro.core.messages`).
    """

    stats: MessageStats

    def attach(self, process: Process) -> None: ...

    def send(
        self,
        src: int,
        dst: int,
        mtype: str,
        payload: Optional[dict[str, Any]] = None,
    ) -> Any: ...

    @property
    def now(self) -> float: ...

    @property
    def burst_seq(self) -> int: ...

    def issue_origin(self) -> Hashable: ...


class Message:
    """A single network message.

    ``size`` is computed lazily from the payload on first access and cached
    (pass an explicit non-zero ``size`` to pin it).  Constructing a message
    therefore costs no payload walk -- the simulator's hottest allocation
    site stays O(1).
    """

    __slots__ = ("mtype", "src", "dst", "payload", "sent_at", "_size")

    def __init__(
        self,
        mtype: str,
        src: int,
        dst: int,
        payload: Optional[dict[str, Any]] = None,
        size: int = 0,
        sent_at: float = 0.0,
    ) -> None:
        self.mtype = mtype
        self.src = src
        self.dst = dst
        self.payload = {} if payload is None else payload
        self.sent_at = sent_at
        self._size: Optional[int] = size if size else None

    @property
    def size(self) -> int:
        """Estimated wire size in bytes (header + payload), computed lazily."""
        size = self._size
        if size is None:
            size = _BASE_HEADER_BYTES + estimate_size(self.payload)
            self._size = size
        return size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.mtype!r}, {self.src}->{self.dst}, "
            f"payload={self.payload!r}, sent_at={self.sent_at})"
        )


class Network:
    """Delivers messages between processes over a latency model."""

    def __init__(
        self,
        engine: Engine,
        latency_model: Optional[LatencyModel] = None,
        stats: Optional[MessageStats] = None,
    ) -> None:
        self.engine = engine
        self.latency_model = latency_model or ZeroLatencyModel()
        self.stats = stats or MessageStats()
        # Hot-path bindings to the stats' counter objects (their identity
        # survives MessageStats.reset, which clears them in place): saves
        # one attribute hop per counter per send.
        stats_obj = self.stats
        self._by_type = stats_obj.by_type
        self._sent_by_node = stats_obj.sent_by_node
        self._received_by_node = stats_obj.received_by_node
        self._per_query = stats_obj.per_query
        self._closed_tags = stats_obj._closed_tags
        self._processes: dict[int, Process] = {}
        self._crashed: set[int] = set()
        self._sender_free: dict[int, float] = {}
        self._receiver_free: dict[int, float] = {}
        #: the delivery callback bound ONCE: ``self._deliver`` creates a
        #: fresh bound-method object per access, and it is scheduled once
        #: per message.
        self._deliver_cb = self._deliver
        self._fast_path = isinstance(self.latency_model, ZeroLatencyModel)
        self._const_send_service = self.latency_model.constant_send_service
        self._const_receive_service = self.latency_model.constant_receive_service
        self._pair_delay_cache = self.latency_model.pair_delay_cache
        self._fused = bool(
            self.latency_model.fuse_delivery
            and self._const_receive_service is not None
        )
        self._origins = itertools.count(1)

    @property
    def now(self) -> float:
        """The transport clock (:class:`FrontendTransport` seam)."""
        return self.engine.now

    @property
    def burst_seq(self) -> int:
        """Synchronous-burst counter (:class:`FrontendTransport` seam):
        the engine's processed-event count, which only advances between
        bursts of same-tick submissions."""
        return self.engine.events_processed

    def issue_origin(self) -> int:
        """A share-stamp origin, unique for the life of the nodes' memory."""
        return next(self._origins)

    def set_latency_model(self, model: LatencyModel) -> None:
        """Swap the latency model (e.g., after node ids are known)."""
        self.latency_model = model
        self._fast_path = isinstance(model, ZeroLatencyModel)
        # Models with node-independent service times publish them as
        # constants so the per-message path skips two method calls.
        self._const_send_service = model.constant_send_service
        self._const_receive_service = model.constant_receive_service
        self._pair_delay_cache = model.pair_delay_cache
        # Models with a deterministic constant receive service opt into
        # fused delivery: the receiver-serialized ready time is computed
        # at send time and the arrive+deliver event pair collapses to one.
        self._fused = bool(
            model.fuse_delivery and self._const_receive_service is not None
        )

    def attach(self, process: Process) -> None:
        """Register a process under its ``node_id``."""
        node_id = process.node_id
        if node_id in self._processes:
            raise ValueError(f"node {node_id} already attached")
        self._processes[node_id] = process
        self._crashed.discard(node_id)

    def detach(self, node_id: int) -> None:
        """Remove a process entirely (graceful leave)."""
        self._processes.pop(node_id, None)
        self._crashed.discard(node_id)

    def crash(self, node_id: int) -> None:
        """Mark a node as failed; its in-flight and future messages drop."""
        if node_id in self._processes:
            self._crashed.add(node_id)

    def recover(self, node_id: int) -> None:
        """Bring a crashed node back."""
        self._crashed.discard(node_id)

    def is_alive(self, node_id: int) -> bool:
        """True if the node is attached and not crashed."""
        return node_id in self._processes and node_id not in self._crashed

    def filter_alive(self, node_ids: Iterable[int]) -> set[int]:
        """The subset of ``node_ids`` that is attached and not crashed.

        One call for a whole fan-out target set instead of one
        :meth:`is_alive` call per target (hot path: query forwarding).
        When every target is alive the *input set itself* is returned --
        callers must treat the result as read-only."""
        processes = self._processes
        crashed = self._crashed
        if not crashed:
            if isinstance(node_ids, (set, frozenset)):
                # C-level subset probe; the common no-failures case does
                # no per-element Python work and allocates nothing.
                if processes.keys() >= node_ids:
                    return node_ids
                return {n for n in node_ids if n in processes}
            return {n for n in node_ids if n in processes}
        return {n for n in node_ids if n in processes and n not in crashed}

    @property
    def node_ids(self) -> list[int]:
        """All attached node ids (crashed or not)."""
        return list(self._processes)

    @property
    def live_node_ids(self) -> list[int]:
        """Attached node ids that are not crashed."""
        return [n for n in self._processes if n not in self._crashed]

    def process_for(self, node_id: int) -> Process:
        """Look up the process object for a node id."""
        return self._processes[node_id]

    def send(
        self,
        src: int,
        dst: int,
        mtype: str,
        payload: Optional[dict[str, Any]] = None,
    ) -> Message:
        """Send one message; returns the Message for inspection in tests.

        The send is always counted in stats (the bytes left ``src`` whether
        or not ``dst`` is alive on arrival), matching the paper's message
        accounting.
        """
        engine = self.engine
        now = engine.now
        if payload is None:
            payload = {}
        # Inlined Message construction (bypasses the __init__ frame on the
        # simulator's hottest allocation site; keep in sync with Message).
        message = _new_message(Message)
        message.mtype = mtype
        message.src = src
        message.dst = dst
        message.payload = payload
        message.sent_at = now
        message._size = None
        # Per-query attribution: any payload carrying a query or probe id is
        # charged to that id's tag (see MessageStats.per_query).  One lookup
        # on the hot path; "absent" (-> probe_id fallback) is distinguished
        # from a falsy-but-present qid, which is attributed as-is.
        tag = payload.get("qid")
        if tag is None:
            tag = payload.get("probe_id")
        # Inlined MessageStats.record_send (this is the single hottest call
        # site in the simulator); counts-only mode never materializes
        # message.size (no payload walk).
        stats = self.stats
        stats.total_messages += 1
        if stats.detailed_bytes:
            stats.total_bytes += message.size
        self._by_type[mtype] += 1
        self._sent_by_node[src] += 1
        self._received_by_node[dst] += 1
        if tag is not None and tag not in self._closed_tags:
            self._per_query[tag] += 1
        crashed = self._crashed
        if crashed and src in crashed:
            # A crashed node cannot actually emit traffic.
            stats.record_drop()
            return message
        if self._fast_path:
            # Zero-latency delivery lands at the current tick: the
            # engine's same-tick FIFO absorbs it with no heap operation.
            engine.post1_at(now, self._deliver_cb, message)
            return message
        model = self.latency_model
        depart = self._sender_free.get(src, 0.0)
        if depart < now:
            depart = now
        svc = self._const_send_service
        depart += svc if svc is not None else model.send_service_time(src)
        self._sender_free[src] = depart
        # Probe the model's per-pair memo inline (saves a method call on
        # every warm pair); a miss computes and fills it.
        cache = self._pair_delay_cache
        if cache is not None:
            delay = cache.get((src, dst) if src <= dst else (dst, src))
            if delay is None:
                delay = model.wire_delay(src, dst)
        else:
            delay = model.wire_delay(src, dst)
        arrival = depart + delay
        if self._fused:
            # Fused arrive+deliver: the receive-side serialization is a
            # published constant, so the ready time is computable here and
            # the message schedules as ONE delivery event instead of an
            # arrive event that re-schedules a deliver event.
            stats.fused_deliveries += 1
            rsvc = self._const_receive_service
            if rsvc:
                ready = self._receiver_free.get(dst, 0.0)
                if ready < arrival:
                    ready = arrival
                ready += rsvc
                self._receiver_free[dst] = ready
                engine.post1_at(ready, self._deliver_cb, message)
            else:
                engine.post1_at(arrival, self._deliver_cb, message)
        else:
            engine.post1_at(arrival, self._arrive, message)
        return message

    def send_many(
        self,
        src: int,
        dsts: list[int],
        mtype: str,
        payload: Optional[dict[str, Any]] = None,
    ) -> None:
        """Fan one payload out to several destinations (shared dict).

        Semantically identical to calling :meth:`send` per destination --
        receivers treat payloads as read-only, so sharing the dict is safe
        -- but the per-message constants (tag extraction, counter and
        model bindings, crash check) are hoisted out of the loop: query
        fan-out is the simulator's dominant traffic.
        """
        if payload is None:
            payload = {}
        engine = self.engine
        now = engine.now
        tag = payload.get("qid")
        if tag is None:
            tag = payload.get("probe_id")
        stats = self.stats
        detailed = stats.detailed_bytes
        by_type = self._by_type
        sent_by_node = self._sent_by_node
        received_by_node = self._received_by_node
        count_tag = tag is not None and tag not in self._closed_tags
        per_query = self._per_query
        # Aggregate counters don't depend on the destination: bump them
        # once per burst instead of once per message (nothing observes
        # the stats mid-call, so the final counts are identical).
        n = len(dsts)
        if n == 0:
            return
        stats.total_messages += n
        by_type[mtype] += n
        sent_by_node[src] += n
        if count_tag:
            per_query[tag] += n
        if src in self._crashed:
            # Byte parity with send(): the per-message size is charged
            # even though a crashed sender's traffic never departs.
            if detailed:
                size = _BASE_HEADER_BYTES + estimate_size(payload)
                stats.total_bytes += size * n
            stats.dropped_messages += n
            for dst in dsts:
                received_by_node[dst] += 1
            return
        if self._fast_path:
            # Same-tick fan-out: every delivery lands at `now`, so the
            # whole burst schedules as ONE batch entry (the engine fires
            # one event per item, in order, with per-item accounting --
            # burst_seq advances exactly as it would for N single posts).
            items = engine.batch_list()
            for dst in dsts:
                message = _new_message(Message)
                message.mtype = mtype
                message.src = src
                message.dst = dst
                message.payload = payload
                message.sent_at = now
                message._size = None
                if detailed:
                    stats.total_bytes += message.size
                received_by_node[dst] += 1
                items.append(message)
            stats.batched_messages += n
            engine.post_batch_at(now, self._deliver_cb, items)
            return
        model = self.latency_model
        svc = self._const_send_service
        cache = self._pair_delay_cache
        fused = self._fused
        rsvc = self._const_receive_service
        receiver_free = self._receiver_free
        post1 = engine.post1_at
        deliver = self._deliver_cb
        depart = self._sender_free.get(src, 0.0)
        if depart < now:
            depart = now
        for dst in dsts:
            message = _new_message(Message)
            message.mtype = mtype
            message.src = src
            message.dst = dst
            message.payload = payload
            message.sent_at = now
            message._size = None
            if detailed:
                stats.total_bytes += message.size
            received_by_node[dst] += 1
            depart += svc if svc is not None else model.send_service_time(src)
            if cache is not None:
                delay = cache.get((src, dst) if src <= dst else (dst, src))
                if delay is None:
                    delay = model.wire_delay(src, dst)
            else:
                delay = model.wire_delay(src, dst)
            arrival = depart + delay
            if fused:
                # Fused arrive+deliver, as in send().
                stats.fused_deliveries += 1
                if rsvc:
                    ready = receiver_free.get(dst, 0.0)
                    if ready < arrival:
                        ready = arrival
                    ready += rsvc
                    receiver_free[dst] = ready
                    post1(ready, deliver, message)
                else:
                    post1(arrival, deliver, message)
            else:
                post1(arrival, self._arrive, message)
        self._sender_free[src] = depart

    def _arrive(self, message: Message) -> None:
        """Arrival at the destination NIC: queue behind earlier arrivals."""
        dst = message.dst
        if dst not in self._processes or dst in self._crashed:
            self.stats.record_drop()
            return
        now = self.engine.now
        ready = self._receiver_free.get(dst, 0.0)
        if ready < now:
            ready = now
        svc = self._const_receive_service
        ready += svc if svc is not None else self.latency_model.receive_service_time(dst)
        self._receiver_free[dst] = ready
        if ready <= now:
            self._deliver(message)
        else:
            self.engine.post1_at(ready, self._deliver_cb, message)

    def _deliver(self, message: Message) -> None:
        dst = message.dst
        process = self._processes.get(dst)
        crashed = self._crashed
        if process is None or (crashed and dst in crashed):
            self.stats.record_drop()
            return
        process.handle_message(message)
