"""Framing for the fleet's internal TCP links.

Every internal link in the deployed query plane — front-end ↔ overlay
service, front-end ↔ cache service, anything ↔ ring daemon — speaks the
same trivial protocol: **length-prefixed pickle frames**.  A frame is a
4-byte big-endian payload length followed by the pickled object (always
a ``dict`` with a ``"kind"`` key).

Why pickle and not JSON: the overlay link carries the simulator's
existing message payloads *verbatim* — :class:`~repro.core.predicates.
Predicate` trees, :class:`~repro.core.query.Query` objects, and partial
aggregates (top-k heaps, histogram buckets) — and re-encoding them
lossily is exactly the kind of forked logic the deployment refactor
exists to avoid.  The cost is the usual one: **pickle is only safe
between trusted peers**.  The fleet protocol is an *internal* protocol
(bind the services to localhost or a private network, as you would a
memcached tier); the public, untrusted surface is the front-end's
HTTP/JSON API only.  See ``docs/DEPLOYMENT.md`` ("Trust model").

Two client shapes are provided:

* coroutine framing (:func:`read_frame` / :func:`write_frame` /
  :func:`encode_frame`) for the asyncio services, and
* :class:`SyncRpcChannel`, a blocking-socket request/response channel
  used by the front-end's cache-service client: the shared-cache calls
  (``get``/``put``/``join_probe``/…) are *synchronous* in the shared
  front-end code, so a call that has to reach the service pays one
  localhost round-trip inline (the client's lease-holding L1 keeps
  those off the warm query path, see
  :class:`repro.serve.cache_service.RemoteSizeTier`).
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import struct
import threading
from typing import Any, Optional

from repro.serve.resilience import Deadline, DeadlineExceeded

__all__ = [
    "FrameError",
    "MAX_FRAME_BYTES",
    "SyncRpcChannel",
    "encode_frame",
    "flush_pushed",
    "read_frame",
    "write_frame",
]

_LEN = struct.Struct(">I")

#: refuse frames larger than this (a corrupt length prefix otherwise
#: turns into an attempted multi-gigabyte read).
MAX_FRAME_BYTES = 32 * 1024 * 1024


class FrameError(ConnectionError):
    """A malformed or oversized frame arrived on a fleet link."""


def encode_frame(obj: dict[str, Any]) -> bytes:
    """One wire frame: 4-byte length prefix + pickled object."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(payload)} bytes exceeds the cap")
    return _LEN.pack(len(payload)) + payload


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict[str, Any]]:
    """Read one frame; returns None on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise FrameError("connection closed mid-frame") from exc
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds the cap")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid-frame") from exc
    return pickle.loads(payload)


async def write_frame(
    writer: asyncio.StreamWriter, obj: dict[str, Any]
) -> None:
    """Write one frame and drain (backpressure-aware push path)."""
    writer.write(encode_frame(obj))
    await writer.drain()


async def flush_pushed(pushed: set[asyncio.StreamWriter]) -> None:
    """Drain (and forget) the links a handler buffered push frames on
    while serving some *other* connection — those and no others.  One
    of them dying is its own handler's business and must not sever the
    caller's link."""
    writers = list(pushed)
    pushed.clear()
    for writer in writers:
        if not writer.is_closing():
            try:
                await writer.drain()
            except ConnectionError:
                pass


class SyncRpcChannel:
    """Blocking request/response channel over one TCP connection.

    Requests and replies are strictly paired, serialized by a lock (the
    front-end server calls this from a single event-loop thread, but the
    lock makes the channel safe for the one-process fleet's extra
    threads too).  All shared-cache RPCs ride this; the cache service's
    *push* traffic (cross-shard probe resolutions) arrives on a separate
    asyncio subscription connection instead, so pushes never desequence
    the RPC stream.
    """

    def __init__(
        self, host: str, port: int, timeout: float = 5.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None

    def connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _recv_exactly(self, count: int) -> bytes:
        assert self._sock is not None
        chunks = []
        while count:
            chunk = self._sock.recv(count)
            if not chunk:
                raise FrameError("connection closed mid-frame")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def request(
        self,
        obj: dict[str, Any],
        deadline: Optional[Deadline] = None,
    ) -> dict[str, Any]:
        """Send one frame, block for the reply frame.

        A reply frame of kind ``"error"`` is raised as
        :class:`FrameError` — the service refused the request.

        ``deadline`` caps the hop to the caller's remaining end-to-end
        budget: an already-expired deadline raises
        :class:`~repro.serve.resilience.DeadlineExceeded` without
        touching the socket, the per-hop socket timeout is clamped to
        the remaining budget, and the remaining budget rides the frame
        (``obj["deadline"]``) so the service can drop work nobody is
        still waiting for.
        """
        with self._lock:
            if deadline is not None:
                if deadline.expired:
                    raise DeadlineExceeded(
                        "RPC abandoned: end-to-end budget exhausted"
                    )
                obj = dict(obj, deadline=deadline.remaining())
            if self._sock is None:
                self.connect()
            assert self._sock is not None
            if deadline is not None:
                self._sock.settimeout(deadline.cap(self.timeout))
            try:
                self._sock.sendall(encode_frame(obj))
                (length,) = _LEN.unpack(self._recv_exactly(_LEN.size))
                if length > MAX_FRAME_BYTES:
                    raise FrameError(
                        f"frame of {length} bytes exceeds the cap"
                    )
                reply = pickle.loads(self._recv_exactly(length))
            except (OSError, FrameError):
                # A dead channel must not be reused half-synchronized.
                self.close()
                raise
            finally:
                if deadline is not None and self._sock is not None:
                    self._sock.settimeout(self.timeout)
        if reply.get("kind") == "error":
            raise FrameError(reply.get("message", "service error"))
        return reply
