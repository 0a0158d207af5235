"""The two in-process workloads: ``sim_scale_waves`` and ``sim_churn_mixed``.

Both drive a default-configured :class:`repro.core.MoaraCluster` (zero
latency model, interpreter-default GC) through its public API only and
time from outside.  Wire counts that must repeat exactly come from a
fixed *counted pass* (the first ``counted_*`` waves / rounds of the op
list, always completed); timings come from everything run until
``seconds`` have elapsed.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import Counter
from typing import Any, Callable, Mapping

from repro.core import MoaraCluster
from repro.core.errors import MoaraError

from measure import block_percentile, peak_rss_mb
from oracle import Oracle, spec_stores, truth
from spans import Tracer

__all__ = ["RUNNERS", "build_cluster", "count_layers", "ratio"]

#: message types reported per op (``network.msgs.<TYPE>``).
MESSAGE_TYPES = (
    "SIZE_PROBE",
    "SIZE_RESPONSE",
    "FRONTEND_QUERY",
    "FRONTEND_RESPONSE",
    "QUERY",
    "QUERY_RESPONSE",
    "STATUS_UPDATE",
    "SUB_INSTALL",
    "SUB_DELTA",
    "STANDING_UPDATE",
)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def build_cluster(
    spec: Mapping[str, Any], tracer: Tracer, num_frontends: int = 1
) -> tuple[MoaraCluster, list[int], dict[str, float]]:
    """Construct the overlay, install groups and ``load``, warm every group
    tree once.  Returns the cluster, its sorted node ids, and phase times."""
    phases: dict[str, float] = {}
    started = time.perf_counter()
    with tracer.span("setup.construct"):
        cluster = MoaraCluster(
            spec["nodes"], seed=spec["overlay_seed"], num_frontends=num_frontends
        )
    ids = list(cluster.node_ids)
    phases["cluster.construct_s"] = time.perf_counter() - started

    started = time.perf_counter()
    with tracer.span("setup.group_install"):
        for name, members in spec["groups"].items():
            cluster.set_group(name, [ids[i] for i in members])
        for i, node_id in enumerate(ids):
            cluster.set_attribute(node_id, "load", spec["load"][i])
        cluster.run_until_idle()
    phases["cluster.group_install_s"] = time.perf_counter() - started

    if num_frontends:
        started = time.perf_counter()
        with tracer.span("setup.tree_warmup"):
            for name in spec["groups"]:
                for shard in range(num_frontends):
                    cluster.query(f"SELECT COUNT(*) WHERE {name} = true", frontend=shard)
        phases["cluster.tree_warmup_s"] = time.perf_counter() - started
    return cluster, ids, phases


def _repeat_setup(
    setup: Callable[[], tuple[Any, dict[str, float]]], setups: int
) -> tuple[Any, dict[str, float], float]:
    """Set up ``setups`` times; keep the last, report the median wall."""
    walls = []
    state = phases = None
    for _ in range(setups):
        state = None  # drop the previous cluster before building the next
        gc.collect()
        started = time.perf_counter()
        state, phases = setup()
        walls.append(time.perf_counter() - started)
    assert phases is not None
    return state, phases, statistics.median(walls)


def count_layers(
    by_type: Mapping[str, int], queries: int, writes: int, resubscribes: int, ops: int
) -> dict[str, float]:
    """Per-layer ratios that are pure functions of the wire counts."""
    execs = by_type.get("FRONTEND_QUERY", 0)
    layers = {
        "tree.msgs_per_exec": ratio(
            by_type.get("QUERY", 0) + by_type.get("QUERY_RESPONSE", 0), execs
        ),
        "tree.sharing_factor": ratio(queries, execs),
        "frontend.size_probes_per_query": ratio(by_type.get("SIZE_PROBE", 0), queries),
        "standing.delta_msgs_per_write": ratio(
            by_type.get("SUB_DELTA", 0) + by_type.get("STANDING_UPDATE", 0), writes
        ),
        "standing.install_msgs_per_subscribe": ratio(by_type.get("SUB_INSTALL", 0), resubscribes),
    }
    for mtype in MESSAGE_TYPES:
        layers[f"network.msgs.{mtype}"] = ratio(by_type.get(mtype, 0), ops)
    return layers


def _frontend_cache_ratios(cluster: MoaraCluster) -> dict[str, float]:
    """Plan- and size-cache hit ratios since the last ``stats.reset()``."""
    plan_hits = sum(fe.plan_cache.stats.hits for fe in cluster.frontends if fe.plan_cache)
    plan_misses = sum(fe.plan_cache.stats.misses for fe in cluster.frontends if fe.plan_cache)
    size_hits = sum(cluster.stats.shard_size_hits.values())
    size_misses = sum(cluster.stats.shard_size_misses.values())
    return {
        "plan_cache.hit_ratio": ratio(plan_hits, plan_hits + plan_misses),
        "size_cache.hit_ratio": ratio(size_hits, size_hits + size_misses),
    }


def _reset_counters(cluster: MoaraCluster) -> None:
    cluster.stats.reset()
    for frontend in cluster.frontends:
        if frontend.plan_cache is not None:
            frontend.plan_cache.stats.reset()


# ----------------------------------------------------------------------
# sim_scale_waves
# ----------------------------------------------------------------------


def run_scale_waves(
    spec: Mapping[str, Any], seconds: float, setups: int, tracer: Tracer, oracle: Oracle
) -> dict[str, Any]:
    texts = [t["text"] for t in spec["templates"]]
    waves = spec["waves"]

    def setup() -> tuple[Any, dict[str, float]]:
        cluster, ids, phases = build_cluster(spec, tracer)
        # Let plan and size caches fill: one untimed wave (every later run
        # of the same texts is what a dashboard's steady state looks like).
        cluster.query_concurrent([texts[t] for t in waves[0]])
        return (cluster, ids), phases

    (cluster, ids), phases, setup_s = _repeat_setup(setup, setups)
    stores = spec_stores(spec, ids)
    members = {name: [ids[i] for i in idx] for name, idx in spec["groups"].items()}
    truths = [
        truth(oracle.parse(t["text"]), t["groups"], members, stores) for t in spec["templates"]
    ]

    _reset_counters(cluster)
    events_before = cluster.engine.events_processed
    counted: dict[str, Any] = {}
    wave_walls: list[float] = []
    full_collections: list[int] = []  # waves done when each gen-2 collection ended

    def on_collection(phase: str, info: Mapping[str, int]) -> None:
        if phase == "stop" and info["generation"] == 2:
            full_collections.append(len(wave_walls))

    queries = failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    gc.callbacks.append(on_collection)
    try:
        while index < spec["counted_waves"] or time.perf_counter() < deadline:
            wave = waves[index % len(waves)]
            batch = [texts[t] for t in wave]
            with tracer.span("wave", trace=index):
                started = time.perf_counter()
                try:
                    results = cluster.query_concurrent(batch)
                except MoaraError:
                    results = None
                wave_walls.append(time.perf_counter() - started)
            queries += len(batch)
            if results is None:
                failed += len(batch)
            else:
                for template, result in zip(wave, results):
                    if result.failed:
                        failed += 1
                    else:
                        oracle.check("answer", result.value, truths[template])
            index += 1
            if index == spec["counted_waves"]:
                counted = {
                    "queries": queries,
                    "messages": cluster.stats.total_messages,
                    "by_type": dict(cluster.stats.by_type),
                }
    finally:
        gc.callbacks.remove(on_collection)

    wall = sum(wave_walls)
    # With the collector at its defaults every ~9th wave pays a full
    # collection of the cluster's heap (~2x a wave's own time).  A window
    # that cuts a collector cycle in two gains or loses one such wave, a
    # +-2 % step in throughput, so timings are taken over whole cycles: from
    # the wave after the first full collection through the wave of the last.
    window = wave_walls
    if len(full_collections) > 2:
        window = wave_walls[full_collections[0] + 1 : full_collections[-1] + 1]
    wave_ms = [w * 1e3 for w in window]
    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": len(window) * len(waves[0]) / sum(window),
        # Every query of a wave is answered when its wave completes.
        "query_p50_ms": block_percentile(wave_ms, 0.50),
        "query_p95_ms": block_percentile(wave_ms, 0.95),
        "msgs_per_query": counted["messages"] / counted["queries"],
        "peak_rss_mb": peak_rss_mb(),
    }
    per_layer = dict(phases)
    per_layer.update(count_layers(counted["by_type"], counted["queries"], 0, 0, counted["queries"]))
    per_layer.update(_frontend_cache_ratios(cluster))
    per_layer.update(
        {
            "tree.read_msgs_per_query": end_to_end["msgs_per_query"],
            "tree.walk_us_per_msg": ratio(wall * 1e6, cluster.stats.total_messages),
            "engine.events_per_s": (cluster.engine.events_processed - events_before) / wall,
            "network.dropped": float(cluster.stats.dropped_messages),
            "trace.overhead_pct": 100.0 * tracer.overhead_s / wall,
        }
    )
    return {
        "attempted": queries,
        "failed": failed,
        "samples": len(wave_walls),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "cluster": cluster,
    }


# ----------------------------------------------------------------------
# sim_churn_mixed
# ----------------------------------------------------------------------


def run_churn_mixed(
    spec: Mapping[str, Any], seconds: float, setups: int, tracer: Tracer, oracle: Oracle
) -> dict[str, Any]:
    subscribe_walls: list[float] = []

    def setup() -> tuple[Any, dict[str, float]]:
        cluster, ids, phases = build_cluster(spec, tracer)
        frontend = cluster.frontends[0]
        handles = []
        subscribe_walls.clear()
        with tracer.span("setup.subscribe"):
            for sub in spec["subscriptions"]:
                started = time.perf_counter()
                handles.append(frontend.subscribe(sub["text"]))
                cluster.run_until_idle()
                subscribe_walls.append(time.perf_counter() - started)
        return (cluster, ids, handles), phases

    (cluster, ids, handles), phases, setup_s = _repeat_setup(setup, setups)
    frontend = cluster.frontends[0]
    sub_groups = [sub["groups"] for sub in spec["subscriptions"]]
    members = {name: {ids[i] for i in idx} for name, idx in spec["groups"].items()}
    # Membership of the overlay is static here, so the live stores are these
    # objects throughout; their *contents* change with every write and flip.
    stores = {node_id: node.attributes for node_id, node in cluster.nodes.items()}

    _reset_counters(cluster)
    stats = cluster.stats
    events_before = cluster.engine.events_processed
    by_type: Counter = Counter()
    totals = Counter()  # messages and op counts, split by phase
    counted: dict[str, Any] = {}
    latencies: list[float] = []
    write_s = query_s = 0.0
    failed = 0
    rounds = spec["rounds"]
    deadline = time.perf_counter() + seconds
    index = 0
    while index < spec["counted_rounds"] or time.perf_counter() < deadline:
        plan = rounds[index % len(rounds)]
        with tracer.span("round", trace=index):
            # -- write phase: first write to quiesce ---------------------
            messages_before = stats.total_messages
            with tracer.span("write_phase"):
                started = time.perf_counter()
                for node, value in plan["writes"]:
                    cluster.set_attribute(ids[node], "load", value)
                for node, name in plan["flips"]:
                    node_id = ids[node]
                    joining = node_id not in members[name]
                    cluster.set_attribute(node_id, name, joining)
                    (members[name].add if joining else members[name].discard)(node_id)
                resubscribe = plan["resubscribe"]
                if resubscribe is not None:
                    slot = resubscribe["slot"]
                    frontend.standing.cancel(handles[slot])
                    handles[slot] = frontend.subscribe(resubscribe["query"]["text"])
                    sub_groups[slot] = resubscribe["query"]["groups"]
                with tracer.span("quiesce"):
                    cluster.run_until_idle()
                write_s += time.perf_counter() - started
            totals["write_msgs"] += stats.total_messages - messages_before
            totals["writes"] += len(plan["writes"]) + len(plan["flips"])
            totals["resubscribes"] += resubscribe is not None
            totals["status_updates_on_write"] += stats.by_type["STATUS_UPDATE"] - by_type.get(
                "STATUS_UPDATE", 0
            )
            # -- off the clock: every folded standing value vs the truth --
            for handle, groups in zip(handles, sub_groups):
                expected = truth(handle.query, groups, members, stores)
                oracle.check("standing", handle.current_value(), expected)
            # -- query phase ---------------------------------------------
            messages_before = stats.total_messages
            answers = []
            with tracer.span("query_phase"):
                for query in plan["queries"]:
                    started = time.perf_counter()
                    try:
                        result = cluster.query(query["text"])
                    except MoaraError:
                        result = None
                    latencies.append(time.perf_counter() - started)
                    answers.append(result)
                query_s += sum(latencies[-len(answers) :])
            totals["query_msgs"] += stats.total_messages - messages_before
            totals["queries"] += len(answers)
        by_type = Counter(stats.by_type)
        for query, result in zip(plan["queries"], answers):
            if result is None or result.failed:
                failed += 1
            else:
                expected = truth(oracle.parse(query["text"]), query["groups"], members, stores)
                oracle.check("answer", result.value, expected)
        index += 1
        if index == spec["counted_rounds"]:
            counted = {"by_type": dict(by_type), **totals}

    wall = write_s + query_s
    ops = totals["queries"] + totals["writes"] + totals["resubscribes"]
    counted_writes = counted["writes"] + counted["resubscribes"]
    counted_ops = counted["queries"] + counted_writes
    latency_ms = [s * 1e3 for s in latencies]
    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": ops / wall,
        "query_p50_ms": block_percentile(latency_ms, 0.50),
        "query_p95_ms": block_percentile(latency_ms, 0.95),
        # Reads *and* maintenance per answered query: cost moved from the
        # query path into the write path cannot hide from this number.
        "msgs_per_query": (counted["query_msgs"] + counted["write_msgs"]) / counted["queries"],
        "peak_rss_mb": peak_rss_mb(),
    }
    per_layer = dict(phases)
    per_layer.update(
        count_layers(
            counted["by_type"],
            counted["queries"],
            counted_writes,
            counted["resubscribes"],
            counted_ops,
        )
    )
    per_layer.update(_frontend_cache_ratios(cluster))
    per_layer.update(
        {
            "tree.read_msgs_per_query": counted["query_msgs"] / counted["queries"],
            "standing.msgs_per_write": counted["write_msgs"] / counted_writes,
            "tree.status_updates_per_write": ratio(
                counted["status_updates_on_write"], counted_writes
            ),
            "tree.walk_us_per_msg": ratio(wall * 1e6, stats.total_messages),
            "engine.events_per_s": (cluster.engine.events_processed - events_before) / wall,
            "network.dropped": float(stats.dropped_messages),
            "trace.overhead_pct": 100.0 * tracer.overhead_s / wall,
            "standing.subscribe_ms": statistics.mean(subscribe_walls) * 1e3,
            "standing.write_phase_s": write_s,
            "standing.query_phase_s": query_s,
        }
    )
    return {
        "attempted": ops,
        "failed": failed,
        "samples": len(latencies),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "cluster": cluster,
    }


RUNNERS = {"sim_scale_waves": run_scale_waves, "sim_churn_mixed": run_churn_mixed}
