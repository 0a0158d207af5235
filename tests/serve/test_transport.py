"""LocalLoopback / LoopbackPlane: deployed shape, simulated answers.

The loopback plane is the deployed topology (front-ends behind a
transport seam, shared size tier, shard router) with the sockets removed.
These tests pin the tentpole claim: the *same* front-end code produces
*identical* answers through the deployed-shape transport as through the
simulated network.
"""

from __future__ import annotations

import json

import pytest

from repro.campaigns.planes import LoopbackPlane
from repro.core.cluster import MoaraCluster
from repro.core.errors import QueryTimeoutError
from repro.core.shard_router import FrontendShardRouter, canonical_query_text
from repro.serve.transport import LocalLoopback
from repro.sim.network import FrontendTransport


def _groups(cluster: MoaraCluster, nodes: int) -> MoaraCluster:
    ids = cluster.overlay.node_ids
    cluster.set_group("web", ids[: nodes // 4])
    cluster.set_group("db", ids[nodes // 6 : nodes // 2])
    cluster.set_attribute_all("load", 2.5)
    for nid in ids[:10]:
        cluster.set_attribute(nid, "load", 9.0)
    return cluster


def _backend(seed: int = 3, nodes: int = 80) -> MoaraCluster:
    return _groups(MoaraCluster(num_nodes=nodes, num_frontends=0, seed=seed), nodes)


def _plane(num_frontends: int = 2, seed: int = 3, nodes: int = 80) -> LoopbackPlane:
    plane = LoopbackPlane(nodes, seed=seed, num_frontends=num_frontends)
    _groups(plane.cluster, nodes)
    return plane


def _simulated(seed: int = 3, nodes: int = 80) -> MoaraCluster:
    return _groups(MoaraCluster(num_nodes=nodes, num_frontends=2, seed=seed), nodes)


def _ask(plane: LoopbackPlane, query: str):
    return plane.query_batch([query])[0]


def _route(plane: LoopbackPlane, query: str) -> int:
    return plane.cluster.router.shard_for(canonical_query_text(query))


QUERIES = [
    "SELECT COUNT(*) WHERE web = true",
    "SELECT AVG(load) WHERE web = true AND db = true",
    "SELECT MAX(load) WHERE web = true OR db = true",
    "SELECT SUM(load) WHERE db = true AND NOT web = true",
]


def test_loopback_transport_satisfies_the_seam() -> None:
    plane = _plane()
    for transport in plane.transports:
        assert isinstance(transport, FrontendTransport)


def test_loopback_plane_matches_simulated_plane_exactly() -> None:
    plane = _plane()
    sim = _simulated()
    for query in QUERIES:
        deployed = _ask(plane, query)
        simulated = sim.query(query)
        # Byte-identical through JSON: same value, same cover.
        assert json.dumps(deployed.value) == json.dumps(simulated.value), query
        assert deployed.cover == simulated.cover, query
        assert deployed.contributors == simulated.contributors, query


def test_loopback_plane_reads_through_the_backend_tier() -> None:
    # One assembly: the front-ends share the backend's own router, size
    # tier and semantic context, and the ring the backend grew one
    # add_shard() at a time is the fleet's FrontendShardRouter(n).
    plane = _plane(num_frontends=3)
    cluster = plane.cluster
    assert [fe.shard_id for fe in plane.frontends] == [0, 1, 2]
    for frontend in plane.frontends:
        assert frontend._shared is cluster.shared_sizes
        assert frontend.semantics is cluster.semantics
    assert plane.shared_sizes is cluster.shared_sizes
    reference = FrontendShardRouter(3)
    for query in QUERIES:
        key = canonical_query_text(query)
        assert cluster.router.shard_for(key) == reference.shard_for(key)


def test_loopback_shares_subqueries_across_repeat_submissions() -> None:
    plane = _plane()
    first = _ask(plane, QUERIES[1])
    assert not first.shared
    # Identical concurrent queries: the repeats join the first's
    # execution and pay zero marginal messages.
    batch = plane.query_batch([QUERIES[1]] * 3)
    assert [r.value for r in batch] == [first.value] * 3
    assert sum(1 for r in batch if r.shared) == 2
    assert all(r.message_cost == 0 for r in batch if r.shared)


def test_loopback_one_wire_probe_per_group_cluster_wide() -> None:
    plane = _plane()
    # Route one composite query to each front-end concurrently; both
    # need sizes for (web, db) but the plane may send at most one wire
    # probe per group in total.
    composite = [
        "SELECT COUNT(*) WHERE web = true OR db = true",
        "SELECT AVG(load) WHERE web = true AND db = true",
    ]
    shards = {_route(plane, q) for q in composite}
    assert shards == {0, 1}, "queries must land on different shards"
    plane.query_batch(composite)
    assert plane.cluster.stats.by_type["SIZE_PROBE"] <= 2


def test_loopback_burst_counter_is_plane_wide() -> None:
    plane = _plane()
    t0, t1 = plane.transports
    assert t0.burst_seq == t1.burst_seq
    before = t0.burst_seq
    _ask(plane, QUERIES[0])
    assert t0.burst_seq > before
    assert t0.burst_seq == t1.burst_seq


def test_loopback_empty_batch_and_timeout_guard() -> None:
    plane = _plane(num_frontends=1)
    assert plane.query_batch([]) == []
    # A query whose completion is surgically removed must raise, not
    # spin: the plane goes idle with the qid still unresolved, and no
    # link has lost a frame, so this is a plane bug, not a fault.
    frontend = plane.frontends[0]
    real_submit = frontend.submit
    qid_box = []

    def submit_and_orphan(query, callback=None):
        qid = real_submit(query, callback)
        qid_box.append(qid)
        frontend._pending_queries.pop(qid, None)
        return qid

    frontend.submit = submit_and_orphan  # type: ignore[method-assign]
    with pytest.raises(QueryTimeoutError):
        _ask(plane, QUERIES[0])


def test_loopback_membership_events_reach_the_frontend() -> None:
    plane = _plane(num_frontends=1)
    seen: list[tuple[set, set]] = []
    original = plane.frontends[0].on_membership_change
    plane.frontends[0].on_membership_change = (  # type: ignore[method-assign]
        lambda joined, left: (seen.append((joined, left)), original(joined, left))[-1]
    )
    departed = plane.cluster.overlay.node_ids[-1]
    plane.cluster.leave_node(departed)
    plane.transports[0].pump()
    assert any(departed in left for _, left in seen)


def test_loopback_send_counts_in_private_ledger() -> None:
    backend = _backend()
    transport = LocalLoopback(backend, node_id=-1)
    target = backend.overlay.node_ids[0]
    transport.send(-1, target, "FRONTEND_QUERY", {"qid": "q-ledger"})
    assert transport.stats.total_messages == 1
    assert transport.stats.by_type["FRONTEND_QUERY"] == 1
    assert transport.stats.per_query["q-ledger"] == 1
