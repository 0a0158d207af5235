"""A real ``FrontendServer`` against a real ``OverlayService``, one loop.

Without a cache service the front-end makes no blocking RPC, so both
ends can share one event loop: real sockets and frames, no threads, and
fast enough for tier-1.
"""

from __future__ import annotations

import asyncio
import time

from repro.core.cluster import MoaraCluster
from repro.serve.frontend_server import FrontendServer
from repro.serve.overlay_service import OverlayService

TEXTS = [
    "SELECT COUNT(*) WHERE web = true",
    "SELECT COUNT(*) WHERE web = true OR db = true",
    "SELECT MAX(load) WHERE web = true AND db = true",
]


def _backend() -> MoaraCluster:
    cluster = MoaraCluster(num_nodes=40, num_frontends=0, seed=5)
    ids = cluster.overlay.node_ids
    cluster.set_group("web", ids[:12])
    cluster.set_group("db", ids[8:20])
    cluster.set_attribute_all("load", 2.0)
    return cluster


def _run(cluster: MoaraCluster, scenario) -> None:
    async def main() -> None:
        overlay = OverlayService(cluster, wall_clock=False)
        await overlay.start()
        server = FrontendServer(("127.0.0.1", overlay.port))
        try:
            await server.start()
            await scenario(server)
        finally:
            await server.close()
            await overlay.close()

    asyncio.run(main())


def test_the_overlay_hosts_ledger_is_flat_across_remote_queries() -> None:
    """The front-end drains a tag in its own ledger only; the host has to
    drain its copy when the reply leaves, or it keeps one entry per query."""
    cluster = _backend()
    sizes = []

    async def scenario(server: FrontendServer) -> None:
        for index in range(1000):
            _, result = await server._run_query(TEXTS[index % len(TEXTS)], 5.0)
            assert not result.failed
            if index in (99, 999):
                sizes.append(len(cluster.stats.per_query))

    _run(cluster, scenario)
    assert sizes[1] <= sizes[0], sizes


def test_close_ends_keepalive_connections() -> None:
    """``close`` used to stop the listener only: an idle keep-alive client
    kept its handler parked (and, from Python 3.12.1, ``wait_closed``
    waiting for it)."""

    async def scenario(server: FrontendServer) -> None:
        reader, writer = await asyncio.open_connection(
            server.http_host, server.http_port
        )
        writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
        head = await reader.readuntil(b"\r\n\r\n")
        assert b"200 OK" in head and b"keep-alive" in head
        length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        await reader.readexactly(length)
        started = time.perf_counter()
        await server.close()
        assert await asyncio.wait_for(reader.read(), 1.0) == b""  # EOF
        assert time.perf_counter() - started < 1.0
        assert not server._http_tasks
        writer.close()

    _run(_backend(), scenario)
