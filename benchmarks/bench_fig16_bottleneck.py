"""Figure 16: per-query latency vs the bottleneck link in Moara's tree.

Paper setup: a 200-node group on PlanetLab; for each query, offline
analysis picks the largest parent-child cost in the tree and shows that
this single bottleneck explains the query's total completion latency.

Here the offline analysis walks the query-forwarding graph (each node's
forward targets) and computes each edge's round-trip cost under the WAN
model, including the endpoints' expected service times; the benchmark then
reports the correlation between per-query latency and its bottleneck.
"""

from __future__ import annotations

from repro.core import MoaraCluster
from repro.sim import WANLatencyModel

from conftest import full_scale, run_once

NUM_NODES = 200
QUERIES = 30 if not full_scale() else 200
QUERY = "SELECT COUNT(*) WHERE A = true"
SEED = 180


def _edge_cost(model: WANLatencyModel, parent: int, child: int) -> float:
    """Expected round-trip cost of one tree edge (query down, answer up)."""
    expected_jitter = 1.4  # midpoint of the jitter range
    service = 0.0
    for node in (parent, child):
        base = model._straggler_service.get(node, 0.0005)
        service += 2 * base * expected_jitter  # send + receive, both ways
    return model.rtt(parent, child) + service


def _experiment() -> list[tuple[float, float]]:
    cluster = MoaraCluster(
        NUM_NODES,
        seed=SEED,
        latency_model=lambda ids: WANLatencyModel(
            ids, straggler_fraction=0.05, seed=SEED
        ),
    )
    model = cluster.network.latency_model
    cluster.set_group("A", cluster.node_ids)  # the whole system is the group
    key = cluster.overlay.space.hash_name("A")
    pairs = []
    for _ in range(QUERIES):
        result = cluster.query(QUERY)
        assert result.value == NUM_NODES
        # Offline bottleneck analysis: the worst edge of the forwarding
        # graph used by this query.
        bottleneck = 0.0
        for node_id, node in cluster.nodes.items():
            state = node.tree_state("(A = true)")
            if state is None:
                continue
            children = cluster.overlay.children(node_id, key)
            for target in state.forward_targets(children):
                bottleneck = max(bottleneck, _edge_cost(model, node_id, target))
        pairs.append((result.latency, bottleneck))
        cluster.run(seconds=5.0)
    return pairs


def test_fig16_bottleneck_latency(benchmark, emit) -> None:
    pairs = run_once(benchmark, _experiment)
    lines = [
        f"Figure 16 -- query latency vs bottleneck link "
        f"({NUM_NODES}-node group)",
        f"{'query':>6s}{'latency s':>12s}{'bottleneck s':>14s}",
    ]
    for i, (latency, bottleneck) in enumerate(pairs):
        lines.append(f"{i:>6d}{latency:>12.2f}{bottleneck:>14.2f}")
    ratios = [latency / bottleneck for latency, bottleneck in pairs]
    mean_ratio = sum(ratios) / len(ratios)
    lines.append("")
    lines.append(
        f"mean latency / bottleneck ratio: {mean_ratio:.2f} "
        "(a single slow link dominates each query)"
    )
    emit("fig16_bottleneck", lines)

    # Paper shape: the bottleneck edge explains most of the latency --
    # total completion is a small multiple of the single worst link and
    # never below it.
    for latency, bottleneck in pairs:
        assert latency >= bottleneck * 0.5
    assert mean_ratio < 6.0, mean_ratio
