"""The two socket-fleet workloads, driven from outside over real HTTP.

The system under test runs in a child process (``fleet_host.py``).  This
process is the load generator: one keep-alive ``http.client`` connection
per front-end, closed loop (the next request of a connection leaves when
its previous answer has arrived), because Moara's callers -- dashboards,
operator scripts, the paper's front-end -- wait for each answer.

Nothing here can hang: the child is killed on every error path and when
the workload's wall cap expires, sockets have timeouts, and an op that
times out or dies with the child counts as failed.
"""

from __future__ import annotations

import http.client
import json
import select
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Mapping, Optional

from repro.core.parser import parse_query
from repro.core.planner import plan_predicate
from repro.serve.cache_service import RemoteSizeTier
from repro.serve.frontend_server import jsonable, result_to_json
from repro.serve.protocol import SyncRpcChannel

import layers
from measure import LEDGER_DIR, block_percentile, percentile
from oracle import Oracle, spec_stores, truth
from sim_plane import build_cluster, count_layers, ratio
from spans import Tracer

__all__ = ["FleetHost", "RUNNERS"]

_HOST = "127.0.0.1"
#: seconds the child may take to build its cluster and boot the fleet.
_BOOT_TIMEOUT = 120.0
#: per-request socket timeout (the front-end answers 504 after 10 s itself).
_REQUEST_TIMEOUT = 15.0
#: hard wall cap on one measured phase beyond its ``seconds``.
_CAP_SLACK = 60.0


class FleetHost:
    """The child process hosting the fleet; always killable, never waited on
    without a timeout."""

    def __init__(self, spec: Mapping[str, Any]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(LEDGER_DIR / "fleet_host.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            assert self.proc.stdin is not None
            self.proc.stdin.write(json.dumps(spec).encode("utf-8") + b"\n")
            self.proc.stdin.flush()
            ready = self._read_line(_BOOT_TIMEOUT)
        except BaseException:
            self.kill()
            raise
        self.overlay_port: int = ready["overlay_port"]
        self.cache_port: int = ready["cache_port"]
        self.http_ports: list[int] = ready["http_ports"]
        self.phases: dict[str, float] = ready["phases"]

    def _read_line(self, timeout: float) -> dict[str, Any]:
        assert self.proc.stdout is not None
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else b""
        if not line:
            raise RuntimeError("fleet host did not answer (dead, or slower than the timeout)")
        return json.loads(line)

    def close(self) -> Optional[float]:
        """Ask the child to exit; returns its peak RSS in MB (None if it had
        to be killed)."""
        rss = None
        try:
            assert self.proc.stdin is not None
            self.proc.stdin.close()
            rss = self._read_line(10.0)["peak_rss_mb"]
            self.proc.wait(timeout=30.0)
        except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired):
            pass
        finally:
            self.kill()
        return rss

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass


class _Client:
    """One keep-alive HTTP connection to one front-end."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = http.client.HTTPConnection(_HOST, port, timeout=_REQUEST_TIMEOUT)

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> tuple[int, bytes]:
        """One round trip; status 0 stands for a transport failure."""
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # the next request re-opens the connection
            return 0, b""

    def query(self, text: str) -> tuple[float, Optional[Any]]:
        """POST /query.  Returns (wall seconds request-bytes-out to
        answer-bytes-in, answer value or None when the op failed)."""
        body = json.dumps({"query": text}).encode("utf-8")
        started = time.perf_counter()
        status, payload = self.request("POST", "/query", body)
        wall = time.perf_counter() - started
        if status != 200:
            return wall, None
        reply = json.loads(payload)
        return wall, None if reply.get("failed") else (reply["value"],)

    def stats(self) -> dict[str, Any]:
        status, payload = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats on port {self.port} failed ({status})")
        return json.loads(payload)

    def close(self) -> None:
        self.conn.close()


class _Admin:
    """Blocking admin channel to the overlay service (stats, members)."""

    def __init__(self, port: int) -> None:
        self.channel = SyncRpcChannel(_HOST, port)
        self.channel.connect()
        welcome = self.channel.request({"kind": "hello", "role": "admin"})
        if welcome.get("kind") != "welcome":
            raise ConnectionError(f"admin hello refused: {welcome!r}")

    def op(self, op: str) -> dict[str, Any]:
        return self.channel.request({"kind": "admin", "op": op})

    def close(self) -> None:
        self.channel.close()


def _boot(spec: Mapping[str, Any]) -> tuple[FleetHost, list[_Client], float]:
    """Start a host and warm it: every group tree and size estimate through
    each front-end, then (repeated-template workloads) each template's plan."""
    host = FleetHost(spec)
    try:
        clients = [_Client(port) for port in host.http_ports]
        started = time.perf_counter()
        for client, ops in zip(clients, spec["connections"]):
            warm = [f"SELECT COUNT(*) WHERE {name} = true" for name in spec["groups"]]
            if len(spec["templates"]) <= 64:
                warm += [spec["templates"][t]["text"] for t in sorted(set(ops))]
            for text in warm:
                _, answer = client.query(text)
                if answer is None:
                    raise RuntimeError(f"warm-up query failed: {text}")
        return host, clients, time.perf_counter() - started
    except BaseException:
        host.kill()
        raise


def _closed_loop(
    client: _Client, ops: list[int], texts: list[str], deadline: float, stop: threading.Event
) -> list[tuple[float, float, int, Optional[Any]]]:
    """Drive one connection until the deadline: (done_at, wall, template, answer)."""
    done = []
    index = 0
    while time.perf_counter() < deadline and not stop.is_set():
        template = ops[index % len(ops)]
        wall, answer = client.query(texts[template])
        done.append((time.perf_counter(), wall, template, answer))
        index += 1
    return done


def _sum_stats(payloads: list[dict[str, Any]]) -> dict[str, float]:
    """The counters of both front-ends' ``/stats`` this benchmark reads."""
    total: dict[str, float] = {}

    def add(key: str, value: Any) -> None:
        total[key] = total.get(key, 0) + (value or 0)

    for payload in payloads:
        add("plan_hits", payload.get("plan_cache", {}).get("hits"))
        add("plan_misses", payload.get("plan_cache", {}).get("misses"))
        add("size_hits", payload["size_cache"]["hits"])
        add("size_misses", payload["size_cache"]["misses"])
        for key in ("link_reconnects", "breaker_trips", "deadline_expired"):
            add(key, payload["resilience"][key])
    # The cache service's own ledger is global: read it once, not per shard.
    service = payloads[0].get("cache_service") or {}
    total["cache_rpcs"] = sum(
        service.get(key, 0) for key in ("hits", "misses", "publishes", "single_writer_drops")
    )
    return total


def run_fleet(
    spec: Mapping[str, Any], seconds: float, setups: int, tracer: Tracer, oracle: Oracle
) -> dict[str, Any]:
    texts = [t["text"] for t in spec["templates"]]
    setup_walls = []
    host = clients = None
    warmup_s = 0.0
    for _ in range(setups):
        if host is not None:
            for client in clients:
                client.close()
            host.close()
        started = time.perf_counter()
        with tracer.span("setup.fleet"):
            host, clients, warmup_s = _boot(spec)
        setup_walls.append(time.perf_counter() - started)
    assert host is not None and clients is not None

    stop = threading.Event()

    def abort() -> None:
        stop.set()
        host.kill()

    watchdog = threading.Timer(seconds + _CAP_SLACK, abort)
    watchdog.daemon = True
    watchdog.start()
    try:
        admin = _Admin(host.overlay_port)
        ids = admin.op("members")["members"]
        stats_before = _sum_stats([client.stats() for client in clients])
        overlay_before = admin.op("stats")["stats"]

        # -- the measured phase: two connections, closed loop ------------
        results: list[list] = [[] for _ in clients]
        started = time.perf_counter()
        deadline = started + seconds

        def drive(slot: int) -> None:
            results[slot] = _closed_loop(
                clients[slot], spec["connections"][slot], texts, deadline, stop
            )

        threads = [threading.Thread(target=drive, args=(slot,)) for slot in range(len(clients))]
        with tracer.span("loaded_phase"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        done = sorted((op for ops in results for op in ops), key=lambda op: op[0])
        wall = (done[-1][0] if done else time.perf_counter()) - started

        per_layer: dict[str, float] = dict(host.phases)
        per_layer["cluster.tree_warmup_s"] = warmup_s
        answered = [op for op in done if op[3] is not None]
        queries = len(answered)
        if not stop.is_set() and queries:
            overlay_after = admin.op("stats")["stats"]
            stats_after = _sum_stats([client.stats() for client in clients])
            delta = {key: stats_after[key] - stats_before[key] for key in stats_after}
            by_type = {
                mtype: count - overlay_before["by_type"].get(mtype, 0)
                for mtype, count in overlay_after["by_type"].items()
            }
            messages = overlay_after["total_messages"] - overlay_before["total_messages"]
            events = overlay_after["engine_events"] - overlay_before["engine_events"]
            per_layer.update(count_layers(by_type, queries, 0, 0, queries))
            per_layer.update(
                {
                    "plan_cache.hit_ratio": ratio(
                        delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]
                    ),
                    "size_cache.hit_ratio": ratio(
                        delta["size_hits"], delta["size_hits"] + delta["size_misses"]
                    ),
                    "cache_service.rpcs_per_query": delta["cache_rpcs"] / queries,
                    "resilience.link_reconnects": stats_after["link_reconnects"],
                    "resilience.breaker_trips": stats_after["breaker_trips"],
                    "resilience.deadline_expired": stats_after["deadline_expired"],
                    "tree.read_msgs_per_query": messages / queries,
                    "tree.walk_us_per_msg": ratio(wall * 1e6, messages),
                    "engine.events_per_s": events / wall,
                    "network.dropped": float(
                        overlay_after["dropped_messages"] - overlay_before["dropped_messages"]
                    ),
                }
            )
            if tracer.enabled:
                loaded_p50_us = block_percentile([op[1] * 1e6 for op in answered], 0.50)
                per_layer.update(
                    _traced_pass(
                        spec,
                        host,
                        clients[0],
                        admin,
                        tracer,
                        seconds / 4,
                        {**per_layer, "query_p50_us": loaded_p50_us},
                    )
                )
        admin.close()
    finally:
        watchdog.cancel()
        for client in clients:
            client.close()
        child_rss = host.close()

    # -- off the clock: every answer against the centralized recompute ---
    stores = spec_stores(spec, ids)
    members = {name: [ids[i] for i in idx] for name, idx in spec["groups"].items()}
    truths: dict[int, Any] = {}
    for _, _, template, answer in answered:
        if template not in truths:
            query = oracle.parse(texts[template])
            truths[template] = jsonable(
                truth(query, spec["templates"][template]["groups"], members, stores)
            )
        oracle.check("answer", answer[0], truths[template])

    latency_ms = [op[1] * 1e3 for op in answered]
    end_to_end = {}
    if queries:
        end_to_end = {
            "setup_s": statistics.median(setup_walls),
            "ops_per_s": queries / wall,
            "query_p50_ms": block_percentile(latency_ms, 0.50),
            "query_p95_ms": block_percentile(latency_ms, 0.95),
            "msgs_per_query": per_layer.get("tree.read_msgs_per_query", 0.0),
            "peak_rss_mb": child_rss or 0.0,
        }
        per_layer["frontend_server.query_p99_ms"] = percentile(latency_ms, 0.99)
    return {
        "attempted": len(done),
        "failed": len(done) - queries,
        "samples": queries,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "cluster": None,
    }


def _traced_pass(
    spec: Mapping[str, Any],
    host: FleetHost,
    client: _Client,
    admin: _Admin,
    tracer: Tracer,
    seconds: float,
    loaded: Mapping[str, float],
) -> dict[str, float]:
    """The unloaded, traced pass: one connection, each HTTP round trip
    followed by a stage replay of the same op in this process, then the
    serve-plane floor probes against the live fleet."""
    texts = [t["text"] for t in spec["templates"]]
    ops = spec["connections"][0]
    replica, _ids, _phases = build_cluster(spec, Tracer(enabled=False), num_frontends=2)
    round_trips: list[float] = []
    inproc: list[float] = []
    replay_s = 0.0
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        text = texts[ops[index % len(ops)]]
        with tracer.span("op", trace=index):
            with tracer.span("http_round_trip"):
                wall, answer = client.query(text)
            if answer is None:
                raise RuntimeError(f"traced query failed: {text}")
            round_trips.append(wall)
            started = time.perf_counter()
            with tracer.span("replay.parse"):
                query = parse_query(text)
            with tracer.span("replay.plan"):
                plan_predicate(query.predicate)
            with tracer.span("replay.inproc_query"):
                inproc_started = time.perf_counter()
                result = replica.query(text, frontend=0)
                inproc.append((time.perf_counter() - inproc_started) * 1e6)
            with tracer.span("replay.reply_json"):
                json.dumps(result_to_json("fe-1-1", result))
            replay_s += time.perf_counter() - started
        index += 1

    http_floor = layers.time_us(lambda: client.request("GET", "/healthz"), 60)
    admin_rtt = layers.time_us(lambda: admin.op("stats"), 40)
    tier = RemoteSizeTier(_HOST, host.cache_port, shard=0)
    tier.rpc.connect()
    tier.rpc.request({"kind": "hello", "mode": "rpc", "shard": 0})
    group = next(iter(spec["groups"]))
    key = parse_query(f"SELECT COUNT(*) WHERE {group} = true").predicate.canonical()
    cache_rpc = layers.time_us(lambda: tier.get(key, 0.0, 0), 60)
    tier.rpc.close()

    static = layers.probe_stateless(texts, spec["nodes"], spec["overlay_seed"])
    unloaded_us = statistics.median(round_trips) * 1e6
    inproc_us = statistics.median(inproc)
    tax_us = unloaded_us - inproc_us
    frames = sum(
        loaded.get(f"network.msgs.{mtype}", 0.0)
        for mtype in ("FRONTEND_QUERY", "FRONTEND_RESPONSE", "SIZE_PROBE", "SIZE_RESPONSE")
    )
    explained = (
        http_floor
        + (static["protocol.encode_us"] + static["protocol.decode_us"]) * frames
        + cache_rpc * loaded.get("cache_service.rpcs_per_query", 0.0)
        + admin_rtt
    )
    return {
        **static,
        **layers.probe_cluster(replica, [(0, texts[t]) for t in ops]),
        "frontend.inproc_query_us": inproc_us,
        "frontend_server.unloaded_p50_ms": unloaded_us / 1e3,
        "frontend_server.http_floor_us": http_floor,
        "overlay_service.admin_rtt_us": admin_rtt,
        "cache_service.rpc_us": cache_rpc,
        # What a query of the loaded phase waited for the other connection's:
        # the child serves both front-ends under one interpreter lock.
        "frontend_server.queue_wait_us": loaded["query_p50_us"] - unloaded_us,
        "transport.tax_us": tax_us,
        "transport.unattributed_us": tax_us - explained,
        "trace.overhead_pct": 100.0 * (replay_s + tracer.overhead_s) / sum(round_trips),
    }


RUNNERS = {"fleet_warm_dashboard": run_fleet, "fleet_heavy_composite": run_fleet}
