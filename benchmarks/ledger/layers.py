"""Per-layer micro-probes, run only in a traced run, after the timed phase.

Each probe times one layer from outside, through its public calls, on
inputs taken from the workload (its query texts, its overlay size).  A
probe reports the median of five batches, so one preempted batch does
not move it.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from typing import Any, Callable, Mapping, Sequence

from repro.core import MoaraCluster
from repro.core import messages as mt
from repro.core.aggregation import get_function, merge_partials
from repro.core.parser import parse_query
from repro.core.planner import plan_predicate
from repro.core.query import QueryResult
from repro.pastry.overlay import Overlay
from repro.serve.frontend_server import result_to_json
from repro.serve.protocol import encode_frame, read_frame
from repro.sim.engine import Engine

__all__ = ["inproc_query_us", "inputs_of", "probe_cluster", "probe_stateless", "time_us"]

_BATCHES = 5


def time_us(call: Callable[[], Any], number: int) -> float:
    """Median over five batches of the mean microseconds per ``call()``."""
    per_call = []
    for _ in range(_BATCHES):
        started = time.perf_counter()
        for _ in range(number):
            call()
        per_call.append((time.perf_counter() - started) / number * 1e6)
    return statistics.median(per_call)


def _representative_frames(text: str) -> tuple[dict[str, Any], dict[str, Any]]:
    """The FRONTEND_QUERY a front-end sends for ``text`` and the
    FRONTEND_RESPONSE a root sends back, as overlay-link wire frames."""
    query = parse_query(text)
    group = sorted(plan_predicate(query.predicate).all_groups(), key=lambda p: p.canonical())[0]
    key = group.canonical()
    request = {
        "kind": "wire",
        "src": -1,
        "dst": 2**63,
        "mtype": mt.FRONTEND_QUERY,
        "payload": {"qid": "sh-1-1", "query": query, "predicate": group, "cover": (key,)},
    }
    partial = merge_partials(
        query.function, [query.function.lift(float(i), 2**62 + i) for i in range(16)]
    )
    response = {
        "kind": "wire",
        "src": 2**63,
        "dst": -1,
        "mtype": mt.FRONTEND_RESPONSE,
        "payload": {
            "qid": "sh-1-1",
            "pred_key": key,
            "partial": partial,
            "contributors": 16,
            "subtree_recv": 31,
            "last_seen_seq": 7,
            "cost": 62.0,
        },
    }
    return request, response


def _decode_us(frames: Sequence[bytes], number: int) -> float:
    async def decode_all() -> float:
        per_call = []
        for _ in range(_BATCHES):
            reader = asyncio.StreamReader()
            for _ in range(number):
                for frame in frames:
                    reader.feed_data(frame)
            reader.feed_eof()
            started = time.perf_counter()
            while await read_frame(reader) is not None:
                pass
            per_call.append((time.perf_counter() - started) / (number * len(frames)) * 1e6)
        return statistics.median(per_call)

    return asyncio.run(decode_all())


def _bare_events_per_s(events: int = 100_000) -> float:
    def noop() -> None:
        pass

    rates = []
    for _ in range(_BATCHES):
        engine = Engine()
        started = time.perf_counter()
        for _ in range(events):
            engine.schedule(0.0, noop)
        engine.run()
        rates.append(events / (time.perf_counter() - started))
    return statistics.median(rates)


def probe_stateless(texts: Sequence[str], nodes: int, overlay_seed: int) -> dict[str, float]:
    """Layers that need no live cluster: parser, planner, codec, reply
    JSON, aggregation merge, the bare event kernel, overlay bulk join."""
    sample = list(dict.fromkeys(texts))[:200]
    queries = [parse_query(text) for text in sample]

    def cold_parse() -> None:
        # parse_query memoizes by text; a query's first parse is what costs.
        parse_query.cache_clear()
        for text in sample:
            parse_query(text)

    composite = max(sample, key=len)
    request, response = _representative_frames(composite)
    frames = [encode_frame(request), encode_frame(response)]
    result = QueryResult(
        query=parse_query(composite),
        value=1234.5,
        cover=[response["payload"]["pred_key"]],
        contributors=16,
        latency=0.004,
        message_cost=62,
        probed_costs={response["payload"]["pred_key"]: 62.0},
    )
    partials = {
        name: [get_function(name).lift(float(i % 97), i) for i in range(1000)]
        for name in ("count", "avg", "top3")
    }

    started = time.perf_counter()
    overlay = Overlay()
    overlay.bulk_join(overlay.generate_ids(nodes, seed=overlay_seed))
    bulk_join_s = time.perf_counter() - started

    return {
        "parser.parse_us": time_us(cold_parse, 5) / len(sample),
        "planner.plan_us": time_us(lambda: [plan_predicate(q.predicate) for q in queries], 3)
        / len(queries),
        "protocol.encode_us": time_us(lambda: (encode_frame(request), encode_frame(response)), 500)
        / 2,
        "protocol.decode_us": _decode_us(frames, 500),
        "protocol.frame_bytes": statistics.mean(len(frame) for frame in frames),
        "frontend_server.reply_json_us": time_us(
            lambda: json.dumps(result_to_json("fe-1-1", result)), 500
        ),
        "aggregation.merge_us": statistics.mean(
            time_us(lambda n=name: merge_partials(get_function(n), partials[n]), 20)
            for name in partials
        ),
        "engine.bare_events_per_s": _bare_events_per_s(),
        "overlay.bulk_join_s": bulk_join_s,
    }


def inproc_query_us(cluster: MoaraCluster, ops: Sequence[tuple[int, str]]) -> float:
    """Median wall microseconds of the ``(front-end, text)`` ops run in-process."""
    walls = []
    for shard, text in ops:
        started = time.perf_counter()
        cluster.query(text, frontend=shard)
        walls.append((time.perf_counter() - started) * 1e6)
    return statistics.median(walls)


def probe_cluster(cluster: MoaraCluster, ops: Sequence[tuple[int, str]]) -> dict[str, float]:
    """Layers that need a warm cluster: ``Frontend.submit`` alone, overlay
    routing and tree construction."""
    for shard, text in ops[:50]:  # make sure the probed texts are warm
        cluster.query(text, frontend=shard)
    submit_us = []
    for shard, text in ops[:200]:
        frontend = cluster.frontends[shard]
        started = time.perf_counter()
        qid = frontend.submit(text)
        submit_us.append((time.perf_counter() - started) * 1e6)
        cluster.run_until_idle()
        frontend.results.pop(qid, None)
    overlay = cluster.overlay
    ids = overlay.node_ids
    key = overlay.space.hash_name("ledger-route-probe")
    sources = ids[:: max(1, len(ids) // 200)]
    tree_ms = []
    for i in range(3):
        fresh = overlay.space.hash_name(f"ledger-tree-probe-{i}")
        started = time.perf_counter()
        overlay.tree(fresh)
        tree_ms.append((time.perf_counter() - started) * 1e3)
    return {
        "frontend.submit_us": statistics.median(submit_us),
        "overlay.route_us": time_us(lambda: [overlay.route(src, key) for src in sources], 3)
        / len(sources),
        "overlay.tree_build_ms": statistics.median(tree_ms),
    }


def inputs_of(spec: Mapping[str, Any]) -> list[str]:
    """Every query text a spec can issue (what the text probes run over)."""
    texts = [t["text"] for t in spec.get("templates", ())]
    for round_plan in spec.get("rounds", ())[:40]:
        texts.extend(q["text"] for q in round_plan["queries"])
    return texts
