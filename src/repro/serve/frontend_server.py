"""The asyncio front-end server: HTTP/JSON in, Moara protocol out.

One process runs one **unmodified** :class:`repro.core.frontend.Frontend`
— the same planner, plan cache, size cache, probe dedup, and sub-query
sharing the simulator exercises — behind two wires:

* **north**: a deliberately small HTTP/1.1 server (stdlib asyncio
  streams; the repo adds no dependencies, so this mirrors the shape an
  aiohttp app would have without importing one) exposing the public
  JSON API — ``POST /query``, ``POST /subscribe`` and the
  ``/subscriptions/{sid}`` family (standing queries, see
  ``docs/STANDING_QUERIES.md``), ``GET /groups/{name}/size``,
  ``GET /healthz``, ``GET /stats``, ``GET /ring``.  See ``docs/API.md``
  for the full contract.
* **south**: a :class:`repro.serve.transport.RemoteNetwork` link to the
  overlay service, and optionally a :class:`repro.serve.cache_service.
  RemoteSizeTier` link to the shared-cache service and a
  :class:`repro.serve.ring_daemon.RingClient` registration.  Without
  ``cache_addr`` the front-end keeps a private in-process size cache
  (the default backend); without ``ring_addr`` the shard id is whatever
  ``shard`` says and the router is static.

Everything — HTTP handling, overlay frames, cache pushes, ring epochs —
runs on one event loop.  The only blocking calls are the shared-cache
RPCs (sub-millisecond localhost round-trips), and a warm query makes
none: :class:`~repro.serve.cache_service.RemoteSizeTier` answers from
leases it holds on the service's entries and only goes to the service
on a miss, a changed cost, or a refresh.

Query completion is callback→future: ``Frontend.submit`` takes a
callback, the server resolves an ``asyncio.Future`` from it, and the
HTTP handler awaits the future under the request timeout.  A timeout
maps to **504** with the query id, the query keeps running south of the
timeout, and a retry of the same text will usually join its in-flight
execution (sub-query sharing) rather than re-paying for it.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import resource
import urllib.parse
from typing import Any, Optional

from repro.core.errors import (
    MoaraError,
    ParseError,
    PlanningError,
    QueryTimeoutError,
)
from repro.core.frontend import Frontend, FrontendConfig, ProbePolicy
from repro.core.parser import parse_query
from repro.core.planner import SemanticContext
from repro.core.query import QueryResult
from repro.serve.cache_service import RemoteSizeTier
from repro.serve.resilience import Deadline
from repro.serve.ring_daemon import RingClient
from repro.serve.transport import RemoteNetwork

__all__ = ["FrontendServer", "jsonable"]

_MAX_REQUEST_BYTES = 1 * 1024 * 1024
_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def jsonable(value: Any) -> Any:
    """Coerce an aggregate value into JSON-representable types.

    Aggregates can surface tuples (top-k pairs), sets (distinct values),
    and nested containers; JSON has none of those.  Anything unknown
    falls back to ``repr`` rather than failing the response.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(item) for item in value), key=repr)
    if isinstance(value, dict):
        return {str(key): jsonable(val) for key, val in value.items()}
    return repr(value)


def result_to_json(qid: str, result: QueryResult) -> dict[str, Any]:
    """The ``POST /query`` response body (see docs/API.md)."""
    return {
        "qid": qid,
        "value": jsonable(result.value),
        "cover": list(result.cover),
        "contributors": result.contributors,
        "latency": result.latency,
        "probe_latency": result.probe_latency,
        "message_cost": result.message_cost,
        "shared": result.shared,
        "plan_cached": result.plan_cached,
        "root_shared": result.root_shared,
        "short_circuited": result.short_circuited,
        "probed_costs": dict(result.probed_costs),
        "failed": result.failed,
        "failure": result.failure,
    }


def _process_payload() -> dict[str, Any]:
    """This process's pid and peak resident set (``ru_maxrss``: KB)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"pid": os.getpid(), "rss_mb": round(peak_kb / 1024, 1)}


class FrontendServer:
    """One front-end shard: HTTP/JSON API over an unmodified Frontend."""

    def __init__(
        self,
        overlay_addr: tuple[str, int],
        http_host: str = "127.0.0.1",
        http_port: int = 0,
        shard: int = 0,
        name: Optional[str] = None,
        cache_addr: Optional[tuple[str, int]] = None,
        ring_addr: Optional[tuple[str, int]] = None,
        config: Optional[FrontendConfig] = None,
        probe_policy: ProbePolicy = ProbePolicy.COMPOSITE,
        query_timeout: float = 10.0,
    ) -> None:
        self.overlay_addr = overlay_addr
        self.http_host = http_host
        self.http_port = http_port
        self.shard = shard
        self.name = name or f"frontend-{shard}"
        self.cache_addr = cache_addr
        self.ring_addr = ring_addr
        self.config = config
        self.probe_policy = probe_policy
        self.query_timeout = query_timeout
        self.network: Optional[RemoteNetwork] = None
        self.frontend: Optional[Frontend] = None
        self.tier: Optional[RemoteSizeTier] = None
        self.ring: Optional[RingClient] = None
        self.queries_served = 0
        self.queries_failed = 0
        #: standing subscriptions owned by HTTP clients, by sid.
        self.subscriptions: dict[str, Any] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._http_tasks: set[Any] = set()  # live HTTP connection handlers

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        if self.ring_addr is not None:
            self.ring = RingClient(*self.ring_addr, name=self.name)
            await self.ring.start()
            assert self.ring.shard is not None
            self.shard = self.ring.shard
        # Front-end node ids are negative (-1, -2, …) so they can never
        # collide with overlay node ids, same convention as the simulator.
        self.network = RemoteNetwork(
            *self.overlay_addr, node_id=-1 - self.shard
        )
        await self.network.start()
        if self.cache_addr is not None:
            self.tier = RemoteSizeTier(
                *self.cache_addr, shard=self.shard, network=self.network
            )
            await self.tier.start()
        self.frontend = Frontend(
            self.network,
            self.network.overlay,
            node_id=self.network.node_id,
            probe_policy=self.probe_policy,
            semantics=SemanticContext(),
            config=self.config,
            shard_id=self.shard,
            shared_sizes=self.tier,  # type: ignore[arg-type]
        )
        self._server = await asyncio.start_server(
            self._serve_http, self.http_host, self.http_port
        )
        self.http_port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            # wait_closed() waits for keep-alive connections (3.12.1+).
            handlers = list(self._http_tasks)
            for task in handlers:
                task.cancel()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
        if self.tier is not None:
            await self.tier.close()
        if self.ring is not None:
            await self.ring.close()
        if self.network is not None:
            await self.network.close()

    # -- HTTP plumbing -------------------------------------------------

    async def _serve_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._http_tasks.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ValueError as exc:
                    # Unparseable head or oversized declared body: answer
                    # once, then close (the stream position is unknown).
                    status = 413 if "too large" in str(exc) else 400
                    self._write_response(
                        writer, status, {"error": str(exc)}, True
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                try:
                    status, payload = await self._dispatch(method, path, body)
                except MoaraError as exc:
                    self.queries_failed += 1
                    status, payload = 400, {"error": str(exc)}
                except Exception as exc:  # noqa: BLE001 — boundary
                    self.queries_failed += 1
                    status, payload = 500, {"error": repr(exc)}
                close = headers.get("connection", "").lower() == "close"
                extra = (
                    {"Retry-After": str(self._retry_after())}
                    if status == 503
                    else None
                )
                self._write_response(writer, status, payload, close, extra)
                await writer.drain()
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass
        finally:
            self._http_tasks.discard(task)
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[tuple[str, str, dict[str, str], bytes]]:
        try:
            raw = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between requests
            raise
        except asyncio.LimitOverrunError as exc:
            raise ValueError("request head too large") from exc
        head = raw.decode("latin-1").split("\r\n")
        try:
            method, target, _version = head[0].split(" ", 2)
        except ValueError as exc:
            raise ValueError(f"malformed request line: {head[0]!r}") from exc
        headers: dict[str, str] = {}
        for line in head[1:]:
            if not line:
                continue
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_REQUEST_BYTES:
            raise ValueError("request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    def _retry_after(self) -> int:
        """Seconds a 503'd client should wait before retrying: the
        overlay breaker's next half-open probe, rounded up (whole
        seconds, per the HTTP ``Retry-After`` delta form)."""
        wait = 1.0
        if self.network is not None:
            wait = max(wait, self.network.breaker.retry_after())
        return max(1, math.ceil(wait))

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        close: bool,
        extra_headers: Optional[dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        extra = "".join(
            f"{key}: {value}\r\n"
            for key, value in (extra_headers or {}).items()
        )
        writer.write(
            (
                f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'close' if close else 'keep-alive'}\r\n"
                f"{extra}"
                "\r\n"
            ).encode("latin-1")
            + body
        )

    # -- routing -------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        path, _, query_string = path.partition("?")
        if path == "/query":
            if method != "POST":
                return 405, {"error": "POST /query"}
            return await self._handle_query(body)
        if path == "/subscribe":
            if method != "POST":
                return 405, {"error": "POST /subscribe"}
            return self._handle_subscribe(body)
        if path.startswith("/subscriptions/"):
            rest = path[len("/subscriptions/") :]
            if rest.endswith("/updates"):
                if method != "GET":
                    return 405, {"error": "GET /subscriptions/{sid}/updates"}
                return self._handle_updates(
                    rest[: -len("/updates")], query_string
                )
            if rest.endswith("/renew"):
                if method != "POST":
                    return 405, {"error": "POST /subscriptions/{sid}/renew"}
                return self._handle_renew(rest[: -len("/renew")], body)
            if method != "DELETE":
                return 405, {"error": "DELETE /subscriptions/{sid}"}
            return self._handle_unsubscribe(rest)
        if path.startswith("/groups/") and path.endswith("/size"):
            if method != "GET":
                return 405, {"error": "GET /groups/{name}/size"}
            return await self._handle_group_size(
                path[len("/groups/") : -len("/size")]
            )
        if path == "/healthz":
            return self._handle_healthz()
        if path == "/stats":
            return 200, self._stats_payload()
        if path == "/ring":
            return 200, self._ring_payload()
        return 404, {"error": f"no route for {method} {path}"}

    # -- endpoints -----------------------------------------------------

    async def _run_query(
        self, text: str, timeout: float
    ) -> tuple[str, QueryResult]:
        assert self.frontend is not None and self.network is not None
        if not self.network.connected:
            raise ConnectionError("overlay link down")
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()

        def on_result(result: QueryResult) -> None:
            # Completion can be synchronous (short-circuit, warm caches)
            # or arrive later from the overlay reader task — either way
            # we are on the loop thread, and exactly one result wins.
            if not fut.done():
                fut.set_result(result)

        # The request timeout becomes an end-to-end deadline at
        # admission: every southbound hop this query triggers (overlay
        # frames, cache RPCs, retries) carries the *remaining* budget
        # and is dropped once it is spent.  See docs/API.md.
        deadline = Deadline.after(timeout)
        with self.network.deadline_scope(deadline):
            qid = self.frontend.submit(text, callback=on_result)
        try:
            result = await asyncio.wait_for(fut, deadline.remaining())
        except asyncio.TimeoutError:
            raise QueryTimeoutError(qid) from None
        return qid, result

    async def _handle_query(self, body: bytes) -> tuple[int, dict[str, Any]]:
        try:
            request = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"request body is not JSON: {exc}"}
        text = request.get("query")
        if not isinstance(text, str) or not text.strip():
            return 400, {"error": 'body must be {"query": "SELECT ..."}'}
        timeout = float(request.get("timeout", self.query_timeout))
        try:
            qid, result = await self._run_query(text, timeout)
        except (ParseError, PlanningError) as exc:
            self.queries_failed += 1
            return 400, {"error": str(exc), "kind": type(exc).__name__}
        except QueryTimeoutError as exc:
            self.queries_failed += 1
            return 504, {
                "error": f"query {exc} exceeded {timeout:.1f}s",
                "qid": str(exc),
                "retry": (
                    "the query is still executing; an identical retry "
                    "joins the in-flight execution instead of re-paying"
                ),
            }
        except ConnectionError:
            self.queries_failed += 1
            return 503, {"error": "overlay link down; retry after reconnect"}
        if result.failed:
            # The query resolved as an *explicit* failure (link lost
            # mid-flight): distinguishable from a timeout — the plane
            # knows the answer is NULL, not late.
            self.queries_failed += 1
            return 503, {
                "error": result.failure or "query failed on a lost link",
                "qid": qid,
                "failed": True,
            }
        self.queries_served += 1
        return 200, result_to_json(qid, result)

    # -- standing subscriptions ---------------------------------------

    def _handle_subscribe(self, body: bytes) -> tuple[int, dict[str, Any]]:
        """``POST /subscribe``: register a standing query.

        Registration is synchronous (cover choice uses cached sizes
        only), so the response carries the subscription id immediately;
        folded updates accumulate server-side and are pulled with
        ``GET /subscriptions/{sid}/updates``.  See docs/API.md and
        docs/STANDING_QUERIES.md.
        """
        assert self.frontend is not None and self.network is not None
        try:
            request = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"request body is not JSON: {exc}"}
        text = request.get("query")
        if not isinstance(text, str) or not text.strip():
            return 400, {"error": 'body must be {"query": "SELECT ..."}'}
        lease = float(request.get("lease", 0.0))
        if lease < 0:
            return 400, {"error": '"lease" must be >= 0'}
        if not self.network.connected:
            return 503, {"error": "overlay link down; retry after reconnect"}
        try:
            handle = self.frontend.subscribe(text, lease=lease)
        except (ParseError, PlanningError) as exc:
            return 400, {"error": str(exc), "kind": type(exc).__name__}
        self.subscriptions[handle.sub_id] = handle
        return 200, {
            "sid": handle.sub_id,
            "query": text,
            "cover": list(handle.cover),
            "lease": lease,
            "static": handle.static,
            "seq": handle.update_seq,
        }

    def _handle_updates(
        self, sid: str, query_string: str
    ) -> tuple[int, dict[str, Any]]:
        """``GET /subscriptions/{sid}/updates?since=N``: drain folds.

        Returns every retained fold with ``seq > since`` (the handle
        keeps a bounded history; ``dropped`` counts folds that aged out
        before any poll — a consumer seeing it grow is polling too
        slowly for its gap-free replay to be possible).
        """
        handle = self.subscriptions.get(sid)
        if handle is None:
            return 404, {"error": f"unknown subscription {sid!r}"}
        params = urllib.parse.parse_qs(query_string)
        try:
            since = int(params.get("since", ["0"])[0])
        except ValueError:
            return 400, {"error": '"since" must be an integer'}
        updates = [
            {
                "seq": seq,
                "value": jsonable(result.value),
                "cover": list(result.cover),
                "contributors": result.contributors,
                "latency": result.latency,
            }
            for seq, result in handle.updates_since(since)
        ]
        return 200, {
            "sid": sid,
            "active": handle.active,
            "expired": handle.expired,
            "seq": handle.update_seq,
            "dropped": handle.updates_dropped,
            "updates": updates,
        }

    def _handle_renew(
        self, sid: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        """``POST /subscriptions/{sid}/renew``: extend the lease."""
        assert self.frontend is not None
        handle = self.subscriptions.get(sid)
        if handle is None:
            return 404, {"error": f"unknown subscription {sid!r}"}
        if not handle.active:
            return 400, {
                "error": f"subscription {sid!r} is no longer active",
                "expired": handle.expired,
            }
        try:
            request = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"request body is not JSON: {exc}"}
        lease = request.get("lease")
        if lease is not None:
            lease = float(lease)
            if lease < 0:
                return 400, {"error": '"lease" must be >= 0'}
        self.frontend.standing.renew(handle, lease=lease)
        return 200, {"sid": sid, "lease": handle.lease}

    def _handle_unsubscribe(self, sid: str) -> tuple[int, dict[str, Any]]:
        """``DELETE /subscriptions/{sid}``: cancel and forget."""
        assert self.frontend is not None
        handle = self.subscriptions.pop(sid, None)
        if handle is None:
            return 404, {"error": f"unknown subscription {sid!r}"}
        self.frontend.standing.cancel(handle)
        return 200, {"sid": sid, "cancelled": True}

    async def _handle_group_size(
        self, name: str
    ) -> tuple[int, dict[str, Any]]:
        assert self.frontend is not None and self.network is not None
        text = f"SELECT COUNT(*) WHERE {name} = true"
        # Parse first so a bad group name is a 400, not a wire query.
        key = parse_query(text).predicate.canonical()
        cost = self.frontend.size_cache.get(key, self.network.now)
        if cost is not None:
            # The cached probe cost is the paper's 2·n_p: half of it is
            # the group's *tree span* (every node the sub-query would
            # touch), an upper-bound estimate of membership — cheap but
            # not exact, hence "exact": false.  See docs/API.md.
            return 200, {
                "group": name,
                "size": int(cost / 2),
                "source": "cache",
                "exact": False,
            }
        try:
            _, result = await self._run_query(text, self.query_timeout)
        except QueryTimeoutError as exc:
            return 504, {"error": f"size query {exc} timed out"}
        except ConnectionError:
            return 503, {"error": "overlay link down; retry after reconnect"}
        if result.failed:
            return 503, {"error": result.failure, "failed": True}
        return 200, {
            "group": name,
            "size": int(result.value or 0),
            "source": "query",
            "exact": True,
        }

    def _handle_healthz(self) -> tuple[int, dict[str, Any]]:
        assert self.network is not None
        connected = self.network.connected
        payload = {
            "status": "ok" if connected else "degraded",
            "name": self.name,
            "shard": self.shard,
            "overlay_connected": connected,
            "overlay_link": self.network.link_state,
            "overlay_nodes": len(self.network.overlay)
            if self.network.mirror
            else 0,
            "cache_service": self.tier is not None
            and self.tier.rpc.connected,
            "ring_epoch": self.ring.epoch if self.ring else None,
            **_process_payload(),
        }
        if not connected:
            # Not-ready: tell pollers when the next reconnect attempt
            # is worth waiting for (mirrors the Retry-After header).
            payload["retry_after"] = self._retry_after()
        return (200 if connected else 503), payload

    def _stats_payload(self) -> dict[str, Any]:
        assert self.frontend is not None and self.network is not None
        fe, stats = self.frontend, self.network.stats
        payload: dict[str, Any] = {
            "name": self.name,
            "shard": self.shard,
            "node_id": fe.node_id,
            "queries_served": self.queries_served,
            "queries_failed": self.queries_failed,
            "messages": {
                "total": stats.total_messages,
                "dropped": stats.dropped_messages,
                "by_type": dict(stats.by_type),
            },
            "links": self._links_payload(),
            "resilience": {
                "link_reconnects": stats.link_reconnects,
                "link_send_failures": stats.link_send_failures,
                "breaker_trips": stats.breaker_trips,
                "deadline_expired": stats.deadline_expired,
                "failed_queries": stats.failed_queries,
            },
            "size_cache": {
                "hits": fe.size_cache.stats.hits,
                "misses": fe.size_cache.stats.misses,
                "shared_tier": self.tier is not None,
            },
            "shared_probe_joins": stats.shared_probe_joins,
            **_process_payload(),
        }
        if fe.plan_cache is not None:
            payload["plan_cache"] = {
                "entries": len(fe.plan_cache),
                "hits": fe.plan_cache.stats.hits,
                "misses": fe.plan_cache.stats.misses,
            }
        if self.tier is not None:
            payload["size_cache"].update(self.tier.l1_stats())
            payload["cache_service"] = self.tier.service_stats()
        return payload

    def _links_payload(self) -> dict[str, Any]:
        """Per-link health: state, reconnects, breaker (docs/API.md)."""
        assert self.network is not None
        links: dict[str, Any] = {"overlay": self.network.link_health()}
        if self.tier is not None:
            links["cache"] = self.tier.link_health()
        if self.ring is not None:
            links["ring"] = {
                "state": "connected" if self.ring.connected else "reconnecting",
                "reconnects": self.ring.reconnects,
                "epoch": self.ring.epoch,
            }
        return links

    def _ring_payload(self) -> dict[str, Any]:
        if self.ring is None:
            return {
                "static": True,
                "shard": self.shard,
                "members": [{"shard": self.shard, "status": "alive"}],
            }
        return {
            "static": False,
            "shard": self.shard,
            "epoch": self.ring.epoch,
            "members": self.ring.members,
        }
