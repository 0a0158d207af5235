"""The ring daemon: heartbeat-driven front-end shard membership.

The deployed query plane's :class:`~repro.core.shard_router.
FrontendShardRouter` needs a live member list — which front-end shards
exist and are healthy — and every participant (front-ends routing
queries, the ops surface, tests) must agree on it.  The ring daemon is
that one source of truth:

* A front-end connects, says ``hello {role: "shard", name}``, and is
  assigned a **stable shard id**: the name→shard mapping is persistent
  for the daemon's lifetime and ids are never reused, so a front-end
  that restarts under the same name gets the same id back — and with it,
  via the router's ``shard:<id>:<replica>`` virtual points, **exactly
  the arcs of the key space it owned before**.
* Liveness is heartbeats on the same connection.  A shard that misses
  heartbeats for ``suspect_after`` seconds is *suspected*: its points
  leave the ring (each key it owned remaps to the next surviving point —
  the consistent-hash ~1/N remap), but its record is kept so a
  recovering shard re-joins as itself.  After ``dead_after`` seconds the
  record is dropped entirely.  A clean connection close is a *graceful
  leave*: immediate removal, mapping retained.
* Every membership change bumps an **epoch** and pushes the full member
  list to all connections.  :class:`RingClient` rebuilds its local
  router from each epoch (``FrontendShardRouter.from_members``), so all
  front-ends route by the same ring a few milliseconds after any change.

The daemon holds no query state; if it dies, front-ends keep routing by
their last epoch and re-register when it returns.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Callable, Optional

from repro.core.shard_router import FrontendShardRouter
from repro.serve.protocol import FrameError, encode_frame, read_frame
from repro.serve.resilience import RetryPolicy

__all__ = ["RingClient", "RingDaemon"]


class _ShardRecord:
    __slots__ = ("name", "shard", "last_seen", "status")

    def __init__(self, name: str, shard: int, last_seen: float) -> None:
        self.name = name
        self.shard = shard
        self.last_seen = last_seen
        self.status = "alive"  # alive | suspect | left


class RingDaemon:
    """Serve shard-membership epochs on a TCP port."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        suspect_after: float = 3.0,
        dead_after: float = 10.0,
        tick: float = 0.25,
    ) -> None:
        if suspect_after <= 0 or dead_after < suspect_after:
            raise ValueError(
                "need 0 < suspect_after <= dead_after for sane demotions"
            )
        self.host = host
        self.port = port
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.tick = tick
        self.epoch = 0
        self._records: dict[str, _ShardRecord] = {}
        #: high-water shard id; ids are never reused, even after death.
        self._next_shard = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._monitor_task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._monitor_task = asyncio.ensure_future(self._monitor())

    async def close(self) -> None:
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            # Sever clients first: wait_closed() waits for them (3.12.1+).
            for writer in list(self._writers):
                writer.close()
            await self._server.wait_closed()

    # -- membership ----------------------------------------------------

    def alive_shards(self) -> set[int]:
        return {
            record.shard
            for record in self._records.values()
            if record.status == "alive"
        }

    def members_snapshot(self) -> list[dict[str, Any]]:
        return [
            {
                "shard": record.shard,
                "name": record.name,
                "status": record.status,
            }
            for record in sorted(
                self._records.values(), key=lambda r: r.shard
            )
        ]

    def _register(self, name: str) -> _ShardRecord:
        record = self._records.get(name)
        now = time.monotonic()
        changed = record is None or record.status != "alive"
        if record is None:
            record = _ShardRecord(name, self._next_shard, now)
            self._next_shard += 1
            self._records[name] = record
        else:
            record.last_seen = now
        record.status = "alive"
        if changed or self.epoch == 0:
            self._bump_epoch()
        return record

    def _bump_epoch(self) -> None:
        self.epoch += 1
        frame = encode_frame(
            {
                "kind": "epoch",
                "epoch": self.epoch,
                "members": self.members_snapshot(),
            }
        )
        for writer in self._writers:
            if not writer.is_closing():
                writer.write(frame)

    async def _monitor(self) -> None:
        while True:
            await asyncio.sleep(self.tick)
            now = time.monotonic()
            changed = False
            for name in list(self._records):
                record = self._records[name]
                silence = now - record.last_seen
                if record.status == "alive" and silence >= self.suspect_after:
                    record.status = "suspect"
                    changed = True
                if silence >= self.dead_after:
                    # Forget the record but never the id: _next_shard
                    # already moved past it, so the name coming back
                    # later is a *new* shard with fresh arcs.
                    del self._records[name]
                    changed = True
            if changed:
                self._bump_epoch()
                for writer in list(self._writers):
                    if not writer.is_closing():
                        try:
                            await writer.drain()
                        except (ConnectionError, OSError):
                            pass

    # -- connections ---------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        record: Optional[_ShardRecord] = None
        try:
            hello = await read_frame(reader)
            if hello is None or hello.get("kind") != "hello":
                writer.write(
                    encode_frame({"kind": "error", "message": "expected hello"})
                )
                await writer.drain()
                return
            if hello.get("role") == "shard":
                # Register (and push the new epoch to *existing*
                # connections) before this writer joins the push set, so
                # its own first frame is the welcome below.
                record = self._register(str(hello["name"]))
            writer.write(
                encode_frame(
                    {
                        "kind": "welcome",
                        "shard": record.shard if record else None,
                        "epoch": self.epoch,
                        "members": self.members_snapshot(),
                    }
                )
            )
            await writer.drain()
            self._writers.add(writer)
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                kind = frame.get("kind")
                if kind == "heartbeat" and record is not None:
                    record.last_seen = time.monotonic()
                    if record.status == "suspect":
                        # Recovered before dead_after: same id, same arcs.
                        record.status = "alive"
                        self._bump_epoch()
                        await writer.drain()
                elif kind == "members":
                    writer.write(
                        encode_frame(
                            {
                                "kind": "epoch",
                                "epoch": self.epoch,
                                "members": self.members_snapshot(),
                            }
                        )
                    )
                    await writer.drain()
        except (FrameError, ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            if record is not None and self._records.get(record.name) is record:
                if record.status != "left":
                    # Graceful leave: drop from the ring now, remember
                    # the name→shard mapping for a future re-join.
                    record.status = "left"
                    self._bump_epoch()
            writer.close()


class RingClient:
    """A front-end's registration with the ring daemon.

    After :meth:`start`, :attr:`shard` is this front-end's stable id and
    :attr:`router` is a live :class:`FrontendShardRouter` rebuilt from
    every epoch push; :attr:`on_change` callbacks fire after each
    rebuild.  A background task heartbeats roughly every
    ``heartbeat_every`` seconds — **jittered ±20%** so a fleet of
    shards started together never phase-locks its heartbeats (nor its
    reconnect storms) onto the daemon.

    If the daemon link drops, the client keeps routing by its last
    epoch and rejoins under backoff (:class:`~repro.serve.resilience.
    RetryPolicy`, full jitter) **with the same name**: the daemon's
    persistent name→shard map hands back the same id, and with it the
    same ring arcs — a restart is invisible to the key space.
    """

    def __init__(
        self,
        host: str,
        port: int,
        name: str,
        heartbeat_every: float = 1.0,
        retry: Optional[RetryPolicy] = None,
        reconnect: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name
        self.heartbeat_every = heartbeat_every
        self.retry = retry or RetryPolicy()
        self.auto_reconnect = reconnect
        self.shard: Optional[int] = None
        self.epoch = 0
        self.members: list[dict[str, Any]] = []
        self.router = FrontendShardRouter.from_members(set())
        self.on_change: list[Callable[[], None]] = []
        self.connected = False
        self.reconnects = 0
        #: seeded per-name so each shard jitters differently but a
        #: given deployment replays the same schedule.
        self._rng = random.Random(name)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._tasks: list[asyncio.Task] = []
        self._closing = False

    async def start(self) -> None:
        await self._connect()
        self._tasks = [
            asyncio.ensure_future(self._read_epochs()),
            asyncio.ensure_future(self._heartbeat()),
        ]

    async def _connect(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        writer.write(
            encode_frame({"kind": "hello", "role": "shard", "name": self.name})
        )
        await writer.drain()
        welcome = await read_frame(reader)
        if welcome is None or welcome.get("kind") != "welcome":
            writer.close()
            raise ConnectionError(f"ring daemon refused us: {welcome!r}")
        self._reader = reader
        self._writer = writer
        self.shard = welcome["shard"]
        # A restarted daemon counts epochs from scratch; trust the
        # welcome unconditionally rather than comparing across lifetimes.
        self.epoch = 0
        self._apply(welcome["epoch"], welcome["members"])
        self.connected = True

    async def close(self) -> None:
        self._closing = True
        for task in self._tasks:
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

    def _apply(self, epoch: int, members: list[dict[str, Any]]) -> None:
        if epoch <= self.epoch and self.members:
            return
        self.epoch = epoch
        self.members = members
        self.router = FrontendShardRouter.from_members(
            m["shard"] for m in members if m["status"] == "alive"
        )
        for callback in self.on_change:
            callback()

    async def _read_epochs(self) -> None:
        while True:
            try:
                while True:
                    frame = await read_frame(self._reader)
                    if frame is None:
                        break
                    if frame.get("kind") == "epoch":
                        self._apply(frame["epoch"], frame["members"])
            except asyncio.CancelledError:
                return
            except (ConnectionError, FrameError, OSError):
                pass
            self.connected = False
            if self._closing or not self.auto_reconnect:
                return
            if not await self._rejoin():
                return

    async def _rejoin(self) -> bool:
        """Backoff-governed re-registration under the same name."""
        try:
            for pause in self.retry.attempts():
                await asyncio.sleep(pause)
                if self._closing:
                    return False
                try:
                    await self._connect()
                except (ConnectionError, OSError):
                    continue
                self.reconnects += 1
                return True
        except asyncio.CancelledError:
            pass
        return False

    async def _heartbeat(self) -> None:
        try:
            while not self._closing:
                await asyncio.sleep(
                    self.heartbeat_every * self._rng.uniform(0.8, 1.2)
                )
                writer = self._writer
                if writer is None or writer.is_closing() or not self.connected:
                    continue  # mid-rejoin: keep ticking, skip the beat
                try:
                    writer.write(encode_frame({"kind": "heartbeat"}))
                    await writer.drain()
                except (ConnectionError, OSError):
                    self.connected = False
        except asyncio.CancelledError:
            pass
