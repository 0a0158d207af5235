"""``python -m repro.serve`` — launch the deployed query plane.

One subcommand per process role::

    python -m repro.serve overlay  --port 7400 --nodes 256 --group web:40
    python -m repro.serve cache    --port 7401 --overlay 127.0.0.1:7400
    python -m repro.serve ring     --port 7402
    python -m repro.serve frontend --port 8080 --overlay 127.0.0.1:7400 \
        --cache 127.0.0.1:7401 --ring 127.0.0.1:7402 --name fe-a
    python -m repro.serve fleet    --frontends 2 --nodes 128 --group g:20

Every ``--flag`` falls back to a ``MOARA_SERVE_<FLAG>`` environment
variable (``MOARA_SERVE_OVERLAY``, ``MOARA_SERVE_CACHE``,
``MOARA_SERVE_RING``, ``MOARA_SERVE_PORT``, ``MOARA_SERVE_HOST``), so a
process manager can configure a whole fleet through its environment.
See ``docs/DEPLOYMENT.md`` for topologies and a runbook.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from typing import Optional

from repro.core.cluster import MoaraCluster
from repro.serve.cache_service import CacheService
from repro.serve.fleet import Fleet
from repro.serve.frontend_server import FrontendServer
from repro.serve.overlay_service import OverlayService
from repro.serve.ring_daemon import RingDaemon


def _env(flag: str, default: Optional[str] = None) -> Optional[str]:
    return os.environ.get(f"MOARA_SERVE_{flag.upper()}", default)


def _addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default=_env("host", "127.0.0.1"), help="bind address"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=int(_env("port", "0") or 0),
        help="bind port (0 = auto-assign, printed on boot)",
    )


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=128)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--group",
        action="append",
        default=[],
        metavar="NAME:COUNT",
        help="pre-create a group of the first COUNT nodes (repeatable)",
    )


def _build_cluster(args: argparse.Namespace) -> MoaraCluster:
    cluster = MoaraCluster(
        num_nodes=args.nodes, seed=args.seed, num_frontends=0
    )
    for spec in args.group:
        name, _, count = spec.partition(":")
        members = cluster.overlay.node_ids[: int(count or 0)]
        cluster.set_group(name, members)
    return cluster


async def _serve_forever(service: object, banner: str) -> None:
    await service.start()  # type: ignore[attr-defined]
    print(banner.format(port=service.port), flush=True)  # type: ignore[attr-defined]
    try:
        await asyncio.Event().wait()
    finally:
        await service.close()  # type: ignore[attr-defined]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__.split("\n")[0]
    )
    sub = parser.add_subparsers(dest="role", required=True)

    p_overlay = sub.add_parser("overlay", help="host the Moara overlay")
    _add_common(p_overlay)
    _add_backend(p_overlay)

    p_cache = sub.add_parser("cache", help="shared group-size cache tier")
    _add_common(p_cache)
    p_cache.add_argument(
        "--overlay",
        default=_env("overlay"),
        help="overlay service host:port (feeds churn-adaptive TTLs)",
    )
    p_cache.add_argument("--ttl", type=float, default=60.0)
    p_cache.add_argument("--join-window", type=float, default=0.25)

    p_ring = sub.add_parser("ring", help="front-end membership daemon")
    _add_common(p_ring)
    p_ring.add_argument("--suspect-after", type=float, default=3.0)
    p_ring.add_argument("--dead-after", type=float, default=10.0)

    p_fe = sub.add_parser("frontend", help="HTTP/JSON query front-end")
    _add_common(p_fe)
    p_fe.add_argument(
        "--overlay", default=_env("overlay"), help="overlay host:port"
    )
    p_fe.add_argument(
        "--cache",
        default=_env("cache"),
        help="cache service host:port (omit = private in-process cache)",
    )
    p_fe.add_argument(
        "--ring",
        default=_env("ring"),
        help="ring daemon host:port (omit = static --shard id)",
    )
    p_fe.add_argument("--shard", type=int, default=0)
    p_fe.add_argument("--name", default=_env("name"))
    p_fe.add_argument("--query-timeout", type=float, default=10.0)

    p_fleet = sub.add_parser("fleet", help="whole fleet from one command")
    _add_common(p_fleet)
    _add_backend(p_fleet)
    p_fleet.add_argument("--frontends", type=int, default=2)
    p_fleet.add_argument("--no-cache-service", action="store_true")
    p_fleet.add_argument("--ring-daemon", action="store_true")

    args = parser.parse_args(argv)

    if args.role == "overlay":
        service = OverlayService(
            _build_cluster(args), host=args.host, port=args.port
        )
        asyncio.run(
            _serve_forever(service, "overlay service listening on {port}")
        )
    elif args.role == "cache":
        service = CacheService(
            host=args.host,
            port=args.port,
            ttl=args.ttl,
            join_window=args.join_window,
            overlay_addr=_addr(args.overlay) if args.overlay else None,
        )
        asyncio.run(
            _serve_forever(service, "cache service listening on {port}")
        )
    elif args.role == "ring":
        service = RingDaemon(
            host=args.host,
            port=args.port,
            suspect_after=args.suspect_after,
            dead_after=args.dead_after,
        )
        asyncio.run(
            _serve_forever(service, "ring daemon listening on {port}")
        )
    elif args.role == "frontend":
        if not args.overlay:
            parser.error("frontend needs --overlay (or MOARA_SERVE_OVERLAY)")
        server = FrontendServer(
            _addr(args.overlay),
            http_host=args.host,
            http_port=args.port,
            shard=args.shard,
            name=args.name,
            cache_addr=_addr(args.cache) if args.cache else None,
            ring_addr=_addr(args.ring) if args.ring else None,
            query_timeout=args.query_timeout,
        )

        async def _serve_frontend() -> None:
            await server.start()
            print(
                f"frontend {server.name} (shard {server.shard}) "
                f"serving HTTP on {server.http_port}",
                flush=True,
            )
            try:
                await asyncio.Event().wait()
            finally:
                await server.close()

        asyncio.run(_serve_frontend())
    elif args.role == "fleet":
        fleet = Fleet(
            _build_cluster(args),
            num_frontends=args.frontends,
            cache_service=not args.no_cache_service,
            ring_daemon=args.ring_daemon,
            host=args.host,
            base_http_port=args.port,
        )
        with fleet:
            print(
                "fleet up: frontends on ports "
                + ", ".join(str(p) for p in fleet.http_ports),
                flush=True,
            )
            try:
                import threading

                threading.Event().wait()
            except KeyboardInterrupt:
                pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
