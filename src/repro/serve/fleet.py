"""Run the whole deployed query plane from one call.

Production runs one process per role (``python -m repro.serve <role>``);
tests, the ledger and the CI deploy-smoke job want the same fleet
without an orchestrator.  :class:`Fleet` hosts the overlay service (the
caller's cluster), cache service and ring daemon in the calling process,
**one thread + one event loop each**, and each front-end — the same
:class:`FrontendServer` — in **an OS process of its own**: callers of
different front-ends share no interpreter lock, and a front-end can
really crash.  Real localhost sockets, real frames, real HTTP.

``start`` forks the front-ends *first*, while the caller is still
single-threaded (so start a fleet before spawning threads of your own),
and re-raises a child's start-up failure after tearing down whatever had
started.  EOF on a child's pipe (``close``, or the host dying in any
way) ends the child.

Typical use::

    cluster = MoaraCluster(num_nodes=64, num_frontends=0, seed=7)
    cluster.set_group("g", range(20))
    with Fleet(cluster, num_frontends=2) as fleet:
        fleet.http_query(0, "SELECT COUNT(*) WHERE g = true")["value"]  # 20

The backend cluster is built (and its groups/attributes set) in the
caller's thread *before* ``start``; afterwards it belongs to the overlay
service's loop and must only be touched through admin ops
(:meth:`Fleet.admin`).
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import os
import pickle
import signal
import socket
import sys
import threading
from typing import Any, NoReturn, Optional

from repro.core.cluster import MoaraCluster
from repro.core.frontend import FrontendConfig, ProbePolicy
from repro.serve.cache_service import CacheService
from repro.serve.frontend_server import FrontendServer
from repro.serve.overlay_service import OverlayService
from repro.serve.protocol import SyncRpcChannel
from repro.serve.ring_daemon import RingDaemon

__all__ = ["Fleet", "ServiceThread"]


class ServiceThread:
    """A daemon thread running one component's event loop."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def call(self, coro: Any, timeout: float = 30.0) -> Any:
        """Run a coroutine on this component's loop; block for the result."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout)

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5.0)
        if not self.loop.is_running():
            self.loop.close()


class _FrontendProcess:
    """A forked front-end: its pid and the host's end of its pipe."""

    def __init__(self, **server_kwargs: Any) -> None:
        self.pipe, child_end = socket.socketpair()
        self.pid = os.fork()
        if self.pid == 0:
            _frontend_main(child_end, server_kwargs)
        child_end.close()

    def start(self, **addrs: Any) -> int:
        """Tell the child the service addresses; returns its HTTP port."""
        self.pipe.settimeout(30.0)
        self.pipe.sendall(pickle.dumps(addrs))
        with self.pipe.makefile("rb") as replies:
            reply = pickle.load(replies)  # EOFError: the child is gone
        if isinstance(reply, Exception):
            raise reply
        return reply

    def stop(self, grace: float = 5.0) -> None:
        """End the child and reap it.  EOF on the pipe asks it to close;
        SIGKILL follows after ``grace`` seconds (0: a crash, don't ask)."""
        if self.pipe.fileno() < 0:
            return  # already reaped
        try:
            if grace:
                self.pipe.shutdown(socket.SHUT_WR)
                self.pipe.settimeout(grace)
                while self.pipe.recv(4096):  # b"": the child has exited
                    pass
        except OSError:  # timed out, or the child died first
            pass
        os.kill(self.pid, signal.SIGKILL)  # unreaped: the pid is still the child's
        os.waitpid(self.pid, 0)
        self.pipe.close()


def _frontend_main(pipe: socket.socket, kwargs: dict[str, Any]) -> NoReturn:
    """The forked child; never returns into the caller's frames."""
    try:
        # Nothing inherited but stdio is ours (a copy of a sibling's pipe
        # would keep it from seeing EOF); frozen, the heap stays shared.
        gc.freeze()
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the host's to handle
        os.closerange(3, pipe.fileno())
        os.closerange(pipe.fileno() + 1, os.sysconf("SC_OPEN_MAX"))
        sys.stdout = sys.stderr = open(2, "w", 1, closefd=False)
        with pipe.makefile("rb") as orders:
            addrs = pickle.load(orders)  # EOFError: the host gave up
        asyncio.run(_serve(pipe, FrontendServer(**addrs, **kwargs)))
    except EOFError:
        pass
    except BaseException:  # noqa: BLE001 — report it, then leave below
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(0)


async def _serve(pipe: socket.socket, server: FrontendServer) -> None:
    try:
        await server.start()
        reply: Any = server.http_port
    except Exception as exc:  # noqa: BLE001 — the host re-raises it
        reply = exc
    pipe.sendall(pickle.dumps(reply))
    if not isinstance(reply, Exception):
        pipe.setblocking(False)  # b"" = EOF: the host closed its end, or died
        await asyncio.get_running_loop().sock_recv(pipe, 1)
    await server.close()


class Fleet:
    """The full deployed topology on localhost."""

    def __init__(
        self,
        cluster: MoaraCluster,
        num_frontends: int = 2,
        cache_service: bool = True,
        ring_daemon: bool = False,
        frontend_config: Optional[FrontendConfig] = None,
        probe_policy: ProbePolicy = ProbePolicy.COMPOSITE,
        query_timeout: float = 10.0,
        host: str = "127.0.0.1",
        base_http_port: int = 0,
    ) -> None:
        if num_frontends < 1:
            raise ValueError("fleet needs at least one front-end")
        self.cluster = cluster
        self.num_frontends = num_frontends
        self.with_cache = cache_service
        self.with_ring = ring_daemon
        self.frontend_config = frontend_config
        self.probe_policy = probe_policy
        self.query_timeout = query_timeout
        self.host = host
        #: first front-end's HTTP port; shard i binds base+i (0 = auto).
        self.base_http_port = base_http_port
        self.overlay: Optional[OverlayService] = None
        self.cache: Optional[CacheService] = None
        self.ring: Optional[RingDaemon] = None
        self.http_ports: list[int] = []
        self.pids: list[int] = []  #: front-end process ids, by shard
        #: hosted services by role, in boot order: (thread, service).
        self._services: dict[str, tuple[ServiceThread, Any]] = {}
        self._frontends: list[_FrontendProcess] = []
        self._admin: Optional[SyncRpcChannel] = None

    # -- lifecycle -----------------------------------------------------

    def _host(self, role: str, service: Any) -> tuple[str, int]:
        thread = ServiceThread(role)
        self._services[role] = (thread, service)
        thread.call(service.start())
        return (self.host, service.port)

    def _cache_service(self, port: int = 0) -> CacheService:
        assert self.overlay is not None
        fc = self.frontend_config or FrontendConfig()
        return CacheService(
            host=self.host,
            port=port,
            ttl=fc.size_cache_ttl,
            ttl_min=fc.size_cache_ttl_min,
            adaptive=fc.adaptive_size_ttl,
            churn_window=fc.churn_window,
            overlay_addr=(self.host, self.overlay.port),
        )

    def start(self) -> "Fleet":
        try:
            for shard in range(self.num_frontends):  # before any thread
                frontend = _FrontendProcess(
                    http_host=self.host,
                    http_port=self.base_http_port and self.base_http_port + shard,
                    shard=shard,
                    config=self.frontend_config,
                    probe_policy=self.probe_policy,
                    query_timeout=self.query_timeout,
                )
                self._frontends.append(frontend)
                self.pids.append(frontend.pid)
            self.overlay = OverlayService(self.cluster, host=self.host)
            addrs = {"overlay_addr": self._host("overlay-service", self.overlay)}
            if self.with_cache:
                self.cache = self._cache_service()
                addrs["cache_addr"] = self._host("cache-service", self.cache)
            if self.with_ring:
                self.ring = RingDaemon(host=self.host)
                addrs["ring_addr"] = self._host("ring-daemon", self.ring)
            for frontend in self._frontends:
                self.http_ports.append(frontend.start(**addrs))
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Tear down whatever is running; safe to call twice."""
        if self._admin is not None:
            self._admin.close()
        # Reverse boot order: front-ends drain first, services last.
        while self._frontends:
            self._frontends.pop().stop()
        while self._services:
            _role, (thread, service) = self._services.popitem()
            try:
                thread.call(service.close(), timeout=5.0)
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
            thread.stop()

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- failure injection (recovery tests) ----------------------------

    def kill_frontend(self, shard: int) -> None:
        """SIGKILL one front-end process: a crash, not a close."""
        self._frontends[shard].stop(grace=0)

    def restart_cache(self) -> None:
        """Kill the cache service and boot a fresh one on the same port.

        The new service starts empty and learns its shard set from the
        HELLOs the front-ends' circuit breakers replay when they
        half-open — no front-end is told anything.
        """
        thread, dead = self._services["cache-service"]
        try:
            thread.call(dead.close(), timeout=5.0)
        except Exception:  # noqa: BLE001 — it may already be half-dead
            pass
        self.cache = self._cache_service(dead.port)
        self._services["cache-service"] = (thread, self.cache)
        thread.call(self.cache.start())

    def reset_overlay_links(self) -> int:
        """Abruptly close every overlay-service client connection (the
        fleet analog of a switch eating the TCP sessions); front-ends
        reconnect and re-attach on their own.  Returns links cut."""
        thread, overlay = self._services["overlay-service"]
        return thread.call(overlay.reset_links())

    # -- client helpers (blocking; used by tests and the smoke job) ----

    def http(
        self,
        shard: int,
        method: str,
        path: str,
        body: Optional[dict[str, Any]] = None,
        timeout: float = 30.0,
    ) -> tuple[int, dict[str, Any]]:
        """One blocking HTTP round-trip to a front-end; JSON in/out."""
        conn = http.client.HTTPConnection(
            self.host, self.http_ports[shard], timeout=timeout
        )
        try:
            payload = json.dumps(body) if body is not None else None
            conn.request(
                method,
                path,
                body=payload,
                headers={"Content-Type": "application/json"}
                if payload
                else {},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def http_query(
        self, shard: int, query: str, timeout: Optional[float] = None
    ) -> dict[str, Any]:
        """POST /query to one front-end; raises on non-200."""
        body: dict[str, Any] = {"query": query}
        if timeout is not None:
            body["timeout"] = timeout
        status, reply = self.http(shard, "POST", "/query", body)
        if status != 200:
            raise RuntimeError(f"query failed ({status}): {reply}")
        return reply

    def admin(self, op: str, **kwargs: Any) -> dict[str, Any]:
        """An overlay-service admin op (set_group, stats, join_node, …)."""
        assert self.overlay is not None
        if self._admin is None or not self._admin.connected:
            self._admin = SyncRpcChannel(self.host, self.overlay.port)
            self._admin.connect()
            welcome = self._admin.request({"kind": "hello", "role": "admin"})
            if welcome.get("kind") != "welcome":
                raise ConnectionError(f"admin hello refused: {welcome!r}")
        return self._admin.request({"kind": "admin", "op": op, **kwargs})
