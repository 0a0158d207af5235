"""The overlay service: the Moara overlay behind a TCP wire.

One process hosts the overlay — the Pastry ring, the per-group
aggregation trees, the node agents, and the discrete-event engine that
drives them — and speaks the *existing* protocol messages
(``SIZE_PROBE``, ``FRONTEND_QUERY``, ``SIZE_RESPONSE``,
``FRONTEND_RESPONSE``; see :mod:`repro.core.messages`) with remote
front-ends over length-prefixed pickle frames
(:mod:`repro.serve.protocol`).

A remote front-end's HELLO attaches a proxy process to the simulated
network under the front-end's node id; from then on the simulator cannot
tell the difference between an in-process front-end and a socket.  Each
inbound wire message first syncs the engine clock to wall time (so TTLs
and timers behave), injects the message, and drains the engine; every
reply the proxies capture is framed straight back out.

Frame kinds (request → reply):

* ``hello {role: "frontend"|"observer", node_id}`` → ``welcome {node_id,
  origin, members, space, now}`` — a fresh share-stamp ``origin`` per
  front-end hello (:mod:`repro.core.messages`); observers get membership
  pushes only (the cache service subscribes this way to feed overlay
  churn into its adaptive TTLs exactly once, not once per shard).
* ``wire {src, dst, mtype, payload}`` → (no direct reply; responses
  arrive as ``wire`` frames when the overlay answers)
* ``members {joined, left}`` — pushed to every connection on churn.
* ``admin {op, ...}`` → ``ok {...}`` — operational surface used by the
  CLI, tests, and the deploy-smoke job: ``set_group``, ``set_attribute``,
  ``set_attribute_all``, ``stats``, ``members``, ``join_node``,
  ``leave_node``, ``crash_node``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Optional

from repro.core.cluster import MoaraCluster
from repro.serve.protocol import (
    FrameError,
    encode_frame,
    flush_pushed,
    read_frame,
)
from repro.sim.network import Message

__all__ = ["OverlayService"]


class _RemoteFrontendProxy:
    """A remote front-end's seat on the simulated network."""

    __slots__ = ("node_id", "writer", "written", "stats")

    def __init__(
        self, node_id: int, writer: asyncio.StreamWriter, service: "OverlayService"
    ) -> None:
        self.node_id = node_id
        self.writer = writer
        #: the service's set of writers with frames to flush.
        self.written = service._written
        self.stats = service.cluster.stats

    def handle_message(self, message: Message) -> None:
        # A reply ends its tag; the front-end drains only its own ledger.
        tag = message.payload.get("qid") or message.payload.get("probe_id")
        if tag is not None:
            self.stats.pop_tag(tag)
        # Called synchronously while the engine drains; frames buffer on
        # the stream writer and are flushed by the connection handler.
        if not self.writer.is_closing():
            self.written.add(self.writer)
            self.writer.write(
                encode_frame(
                    {
                        "kind": "wire",
                        "src": message.src,
                        "dst": message.dst,
                        "mtype": message.mtype,
                        "payload": message.payload,
                    }
                )
            )


class OverlayService:
    """Host a (typically frontend-less) cluster backend on a TCP port."""

    def __init__(
        self,
        cluster: MoaraCluster,
        host: str = "127.0.0.1",
        port: int = 0,
        wall_clock: bool = True,
    ) -> None:
        self.cluster = cluster
        self.host = host
        self.port = port
        #: advance the engine to wall time before each injection, so
        #: TTL'd caches and timers age in real seconds.  Off, the engine
        #: only moves when events demand it (deterministic test mode).
        self.wall_clock = wall_clock
        self._t0 = time.monotonic()
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: set[asyncio.StreamWriter] = set()
        #: connections that asked for membership pushes (front-ends and
        #: observers; ``role: "admin"`` connections are strict
        #: request/reply so a SyncRpcChannel can drive them).
        self._push_writers: set[asyncio.StreamWriter] = set()
        self._proxies: dict[int, _RemoteFrontendProxy] = {}
        #: writers an engine drain buffered frames on, awaiting the
        #: connection handler's flush (only these are drained).
        self._written: set[asyncio.StreamWriter] = set()
        cluster.overlay.add_listener(self._on_membership)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            # Sever clients first: wait_closed() waits for them (3.12.1+).
            for writer in list(self._writers):
                writer.close()
            await self._server.wait_closed()

    async def reset_links(self) -> int:
        """Drop every client connection without stopping the service —
        the test hook for a transport-level link reset.  Each handler's
        teardown detaches its proxy; clients are expected to reconnect
        under their own backoff."""
        writers = list(self._writers)
        for writer in writers:
            writer.close()
        return len(writers)

    # -- engine driving ------------------------------------------------

    def _sync_clock(self) -> None:
        if not self.wall_clock:
            return
        target = time.monotonic() - self._t0
        if target > self.cluster.engine.now:
            self.cluster.engine.run(until=target)

    def _drain_engine(self) -> None:
        self.cluster.run_until_idle()

    # -- membership fan-out --------------------------------------------

    def _on_membership(self, joined: set[int], left: set[int]) -> None:
        if not (joined or left):
            return
        frame = encode_frame(
            {"kind": "members", "joined": sorted(joined), "left": sorted(left)}
        )
        for writer in self._push_writers:
            if not writer.is_closing():
                self._written.add(writer)
                writer.write(frame)

    # -- connections ---------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        proxy: Optional[_RemoteFrontendProxy] = None
        try:
            hello = await read_frame(reader)
            if hello is None or hello.get("kind") != "hello":
                writer.write(
                    encode_frame(
                        {"kind": "error", "message": "expected hello"}
                    )
                )
                await writer.drain()
                return
            if hello.get("role") == "frontend":
                node_id = hello["node_id"]
                if node_id in self._proxies or self.cluster.network.is_alive(
                    node_id
                ):
                    writer.write(
                        encode_frame(
                            {
                                "kind": "error",
                                "message": f"node id {node_id} is taken",
                            }
                        )
                    )
                    await writer.drain()
                    return
                proxy = _RemoteFrontendProxy(node_id, writer, self)
                self.cluster.network.attach(proxy)
                self._proxies[node_id] = proxy
            space = self.cluster.overlay.space
            self._writers.add(writer)
            if hello.get("role") in ("frontend", "observer"):
                self._push_writers.add(writer)
            writer.write(
                encode_frame(
                    {
                        "kind": "welcome",
                        "node_id": proxy.node_id if proxy else None,
                        "origin": self.cluster.network.issue_origin() if proxy else None,
                        "members": self.cluster.overlay.node_ids,
                        "space": {
                            "bits": space.bits,
                            "digit_bits": space.digit_bits,
                        },
                        "now": self.cluster.engine.now,
                    }
                )
            )
            await writer.drain()
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                kind = frame.get("kind")
                if kind == "wire":
                    self._sync_clock()
                    # Deadline propagation: the front-end stamps frames
                    # with the caller's *remaining* budget at send time.
                    # Budget already spent (queueing, a retry, a slow
                    # link) means nobody is waiting — drop, don't work.
                    budget = frame.get("deadline")
                    if budget is not None and budget <= 0:
                        self.cluster.stats.record_drop()
                        self.cluster.stats.deadline_expired += 1
                        continue
                    self.cluster.network.send(
                        frame["src"],
                        frame["dst"],
                        frame["mtype"],
                        frame["payload"],
                    )
                    self._drain_engine()
                    # Flush what the drain buffered, on the links it
                    # buffered it on.
                    await flush_pushed(self._written)
                elif kind == "admin":
                    reply = self._handle_admin(frame)
                    writer.write(encode_frame(reply))
                    await writer.drain()
                else:
                    writer.write(
                        encode_frame(
                            {
                                "kind": "error",
                                "message": f"unknown frame kind {kind!r}",
                            }
                        )
                    )
                    await writer.drain()
        except (FrameError, ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            self._push_writers.discard(writer)
            self._written.discard(writer)
            if proxy is not None:
                # The front-end is gone: detach its seat so undeliverable
                # replies drop, exactly like a departed simulated client.
                self._proxies.pop(proxy.node_id, None)
                self.cluster.network.detach(proxy.node_id)
            writer.close()

    # -- admin surface -------------------------------------------------

    def _handle_admin(self, frame: dict[str, Any]) -> dict[str, Any]:
        op = frame.get("op")
        cluster = self.cluster
        try:
            if op == "set_group":
                cluster.set_group(
                    frame["attr"],
                    frame["members"],
                    frame.get("member_value", True),
                    frame.get("other_value", False),
                )
                return {"kind": "ok"}
            if op == "set_attribute":
                cluster.set_attribute(
                    frame["node"], frame["name"], frame["value"]
                )
                return {"kind": "ok"}
            if op == "set_attribute_all":
                cluster.set_attribute_all(frame["name"], frame["value"])
                return {"kind": "ok"}
            if op == "members":
                return {"kind": "ok", "members": cluster.overlay.node_ids}
            if op == "stats":
                stats = cluster.stats
                return {
                    "kind": "ok",
                    "stats": {
                        "total_messages": stats.total_messages,
                        "dropped_messages": stats.dropped_messages,
                        "by_type": dict(stats.by_type),
                        "nodes": len(cluster.overlay),
                        "engine_now": cluster.engine.now,
                        "engine_events": cluster.engine.events_processed,
                        "root_subscriptions": stats.root_subscriptions,
                    },
                }
            if op == "join_node":
                node_id = cluster.join_node(frame.get("node"))
                self._drain_engine()
                return {"kind": "ok", "node": node_id}
            if op == "leave_node":
                cluster.leave_node(frame["node"])
                self._drain_engine()
                return {"kind": "ok"}
            if op == "crash_node":
                cluster.crash_node(
                    frame["node"], frame.get("detection_delay", 0.0)
                )
                self._drain_engine()
                return {"kind": "ok"}
        except (KeyError, ValueError) as exc:
            return {"kind": "error", "message": f"{op}: {exc}"}
        return {"kind": "error", "message": f"unknown admin op {op!r}"}
