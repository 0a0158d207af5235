"""Seeded, pure input generation for the four ledger workloads.

Everything the system under test sees -- group membership, attribute
values, query texts and their order, the churn schedule -- is generated
here from ``(workload, seed)`` and nothing else.  This module imports no
code of the program, so the program receives only the generated ops; the
overlay itself (node ids) is a fixed deployment, not an input, so that a
seed changes the traffic and the group layout but not the datacenter.

A spec is plain JSON data.  Nodes are named by their index into the
overlay's sorted id list; the runners map indices to ids.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from typing import Any

__all__ = ["WORKLOADS", "canonical_bytes", "generate"]

#: why each workload exists (also BENCHMARK.json's ``why`` and the README).
WORKLOADS = {
    "fleet_warm_dashboard": (
        "socket fleet, tiny trees, 24 repeated templates: every plan and size is cached, "
        "so the serve plane (HTTP, pickle frames, cache RPCs, thread hops) is most of a query"
    ),
    "fleet_heavy_composite": (
        "socket fleet, 400-member groups, distinct three-group texts beyond the plan cache: "
        "planner and tree walk are most of a query, the serve plane the minority"
    ),
    "sim_scale_waves": (
        "in-process simulated plane, bench_scale shape in concurrent waves: isolates the event "
        "kernel, message fan-out and sub-query sharing, and carries the big set-up time"
    ),
    "sim_churn_mixed": (
        "in-process plane with writes beside reads: attribute writes, group flips, standing "
        "subscriptions and re-subscribes, one-shot queries through the same trees and caches"
    ),
}

#: fixed per-workload overlay (the deployment; see module docstring).
_OVERLAY_SEED = 190

_AGGREGATES = ("COUNT(*)", "SUM(load)", "MAX(load)", "AVG(load)")

# Sizes.  ``full`` is what BENCHMARK.json's numbers are measured on;
# ``smoke`` runs the same code paths in seconds and is never comparable.
_SIZES: dict[str, dict[str, dict[str, int]]] = {
    "fleet_warm_dashboard": {
        "full": dict(nodes=512, groups=16, group_size=16, templates=24, ops=3000),
        "smoke": dict(nodes=96, groups=8, group_size=8, templates=12, ops=120),
    },
    "fleet_heavy_composite": {
        "full": dict(nodes=4000, groups=24, group_size=400, texts=1200),
        "smoke": dict(nodes=300, groups=12, group_size=40, texts=60),
    },
    "sim_scale_waves": {
        "full": dict(
            nodes=5000, groups=16, group_size=250, templates=24, wave=500, waves=40, counted=20
        ),
        "smoke": dict(
            nodes=300, groups=16, group_size=8, templates=24, wave=100, waves=4, counted=2
        ),
    },
    "sim_churn_mixed": {
        "full": dict(nodes=2000, groups=16, group_size=100, subs=8, rounds=400, counted=100),
        "smoke": dict(nodes=200, groups=8, group_size=20, subs=4, rounds=20, counted=10),
    },
}

# Per churn round (sim_churn_mixed).
_WRITES_PER_ROUND = 20
_FLIPS_PER_ROUND = 10
_QUERIES_PER_ROUND = 10
_RESUBSCRIBE_EVERY = 5


def _group(i: int) -> str:
    return f"S{i}"


def _query(aggregate: str, predicate: str, groups: list[int]) -> dict[str, Any]:
    """One query op: its text and the groups its predicate names."""
    return {
        "text": f"SELECT {aggregate} WHERE {predicate}",
        "groups": [_group(g) for g in groups],
    }


def _pair_query(kind: int, aggregate: str, a: int, b: int) -> dict[str, Any]:
    """Single / AND / OR over one or two groups (``kind`` = 0 / 1 / 2)."""
    if kind == 0:
        return _query(aggregate, f"{_group(a)} = true", [a])
    op = "AND" if kind == 1 else "OR"
    return _query(aggregate, f"{_group(a)} = true {op} {_group(b)} = true", [a, b])


def _base(workload: str, seed: int, smoke: bool, rng: random.Random) -> dict[str, Any]:
    """Overlay size, group membership and per-node ``load`` values."""
    sizes = _SIZES[workload]["smoke" if smoke else "full"]
    nodes = sizes["nodes"]
    return {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "nodes": nodes,
        "overlay_seed": _OVERLAY_SEED,
        "groups": {
            _group(g): sorted(rng.sample(range(nodes), sizes["group_size"]))
            for g in range(sizes["groups"])
        },
        "load": [float(rng.randrange(100)) for _ in range(nodes)],
    }


def _dashboard_templates(rng: random.Random, count: int, groups: int) -> list[dict[str, Any]]:
    templates = []
    for i in range(count):
        a, b = rng.sample(range(groups), 2)
        templates.append(_pair_query(i % 3, _AGGREGATES[i % len(_AGGREGATES)], a, b))
    return templates


def _fleet_warm_dashboard(spec: dict[str, Any], sizes: dict[str, int], rng: random.Random) -> None:
    templates = _dashboard_templates(rng, sizes["templates"], sizes["groups"])
    spec["templates"] = templates
    # One closed-loop connection per front-end; each cycles its own list.
    spec["connections"] = [
        [rng.randrange(len(templates)) for _ in range(sizes["ops"])] for _ in range(2)
    ]


def _fleet_heavy_composite(
    spec: dict[str, Any], sizes: dict[str, int], rng: random.Random
) -> None:
    # Distinct ``(Sa op Sb) AND Sc`` texts.  Sorted index tuples keep every
    # text a distinct predicate (AND is symmetric in all three, OR in its
    # pair), so each connection's list exceeds its front-end's plan cache.
    groups = range(sizes["groups"])
    pool = [("AND", a, b, c) for a, b, c in combinations(groups, 3)]
    pool += [("OR", a, b, c) for a, b in combinations(groups, 2) for c in groups if c not in (a, b)]
    chosen = rng.sample(pool, 2 * sizes["texts"])
    spec["templates"] = [
        _query(
            _AGGREGATES[i % len(_AGGREGATES)],
            f"({_group(a)} = true {op} {_group(b)} = true) AND {_group(c)} = true",
            [a, b, c],
        )
        for i, (op, a, b, c) in enumerate(chosen)
    ]
    spec["connections"] = [
        list(range(shard * sizes["texts"], (shard + 1) * sizes["texts"])) for shard in range(2)
    ]


def _sim_scale_waves(spec: dict[str, Any], sizes: dict[str, int], rng: random.Random) -> None:
    # benchmarks/bench_scale.py's template formula, COUNT(*) only.
    groups = sizes["groups"]
    spec["templates"] = [
        _pair_query(i % 3, "COUNT(*)", i % groups, (i * 5 + 1) % groups)
        for i in range(sizes["templates"])
    ]
    spec["waves"] = [
        [rng.randrange(sizes["templates"]) for _ in range(sizes["wave"])]
        for _ in range(sizes["waves"])
    ]
    spec["counted_waves"] = sizes["counted"]


def _sim_churn_mixed(spec: dict[str, Any], sizes: dict[str, int], rng: random.Random) -> None:
    groups, nodes = sizes["groups"], sizes["nodes"]

    def standing_query(i: int) -> dict[str, Any]:
        a, b = rng.sample(range(groups), 2)
        return _pair_query(0 if i % 2 == 0 else 2, _AGGREGATES[i % len(_AGGREGATES)], a, b)

    spec["subscriptions"] = [standing_query(i) for i in range(sizes["subs"])]
    rounds = []
    for r in range(sizes["rounds"]):
        resubscribe = None
        if r % _RESUBSCRIBE_EVERY == _RESUBSCRIBE_EVERY - 1:
            slot = rng.randrange(sizes["subs"])
            resubscribe = {"slot": slot, "query": standing_query(r)}
        queries = []
        for q in range(_QUERIES_PER_ROUND):
            a, b = rng.sample(range(groups), 2)
            queries.append(_pair_query(q % 3, _AGGREGATES[(r + q) % len(_AGGREGATES)], a, b))
        rounds.append(
            {
                "writes": [
                    [rng.randrange(nodes), float(rng.randrange(100))]
                    for _ in range(_WRITES_PER_ROUND)
                ],
                "flips": [
                    [rng.randrange(nodes), _group(rng.randrange(groups))]
                    for _ in range(_FLIPS_PER_ROUND)
                ],
                "resubscribe": resubscribe,
                "queries": queries,
            }
        )
    spec["rounds"] = rounds
    spec["counted_rounds"] = sizes["counted"]


_BUILDERS = {
    "fleet_warm_dashboard": _fleet_warm_dashboard,
    "fleet_heavy_composite": _fleet_heavy_composite,
    "sim_scale_waves": _sim_scale_waves,
    "sim_churn_mixed": _sim_churn_mixed,
}


def generate(workload: str, seed: int, smoke: bool = False) -> dict[str, Any]:
    """The full input spec of one workload run: same arguments, same spec."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {sorted(_BUILDERS)}")
    # A string seed is hashed with SHA-512, so it is stable across processes.
    rng = random.Random(f"{workload}:{seed}")
    spec = _base(workload, seed, smoke, rng)
    _BUILDERS[workload](spec, _SIZES[workload]["smoke" if smoke else "full"], rng)
    return spec


def canonical_bytes(spec: dict[str, Any]) -> bytes:
    """A spec's byte-exact serialisation (what the determinism tests compare)."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":")).encode("utf-8")
