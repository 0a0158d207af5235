"""Closing a socket service with a client still connected.

From Python 3.12.1 ``Server.wait_closed()`` waits for every accepted
connection to close, so a service that awaits it *before* closing its
client writers hangs for as long as an idle client stays connected.  Each
service must sever its clients first; the client then reads EOF.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.cluster import MoaraCluster
from repro.serve.cache_service import CacheService
from repro.serve.overlay_service import OverlayService
from repro.serve.protocol import encode_frame, read_frame
from repro.serve.ring_daemon import RingDaemon


def _overlay() -> tuple[OverlayService, dict]:
    cluster = MoaraCluster(num_nodes=8, num_frontends=0, seed=1)
    return OverlayService(cluster, wall_clock=False), {"role": "observer"}


def _cache() -> tuple[CacheService, dict]:
    return CacheService(ttl=60.0), {"mode": "rpc", "shard": 0}


def _ring() -> tuple[RingDaemon, dict]:
    return RingDaemon(), {"role": "observer"}


@pytest.mark.parametrize("build", [_overlay, _cache, _ring], ids=["overlay", "cache", "ring"])
def test_close_severs_an_idle_client(build) -> None:
    service, hello = build()

    async def scenario() -> None:
        await service.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        try:
            writer.write(encode_frame({"kind": "hello", **hello}))
            await writer.drain()
            welcome = await asyncio.wait_for(read_frame(reader), 1.0)
            assert welcome is not None and welcome["kind"] == "welcome"
            started = time.perf_counter()
            await asyncio.wait_for(service.close(), 1.0)
            assert await asyncio.wait_for(reader.read(), 1.0) == b""  # EOF
            assert time.perf_counter() - started < 1.0
        finally:
            writer.close()

    asyncio.run(scenario())
