"""End-to-end: the socket fleet answers exactly like the simulated plane.

Boots the real topology on localhost — overlay service, cache service,
two HTTP front-end servers, each in its own thread + event loop — runs
queries over HTTP/JSON, and holds the results against the one-process
simulated plane built from the identical seed: **byte-identical
values**, and the shared tier's one-wire-probe-per-group guarantee
measured on the overlay's own message ledger.
"""

from __future__ import annotations

import json

import pytest

from repro.core.cluster import MoaraCluster
from repro.serve.fleet import Fleet

# Boots real sockets and threads: system tier, not tier-1.
pytestmark = pytest.mark.system

NODES = 100
SEED = 17

QUERIES = [
    "SELECT COUNT(*) WHERE web = true",
    "SELECT COUNT(*) WHERE web = true OR db = true",
    "SELECT AVG(load) WHERE web = true AND db = true",
    "SELECT MAX(load) WHERE db = true",
    "SELECT SUM(load) WHERE web = true AND NOT db = true",
]


def _populate(cluster: MoaraCluster) -> None:
    ids = cluster.overlay.node_ids
    cluster.set_group("web", ids[:30])
    cluster.set_group("db", ids[20:55])
    cluster.set_attribute_all("load", 2.0)
    for nid in ids[:12]:
        cluster.set_attribute(nid, "load", 8.0)


@pytest.fixture(scope="module")
def fleet():
    backend = MoaraCluster(num_nodes=NODES, num_frontends=0, seed=SEED)
    _populate(backend)
    fleet = Fleet(backend, num_frontends=2, cache_service=True)
    with fleet:
        yield fleet


@pytest.fixture(scope="module")
def simulated():
    sim = MoaraCluster(num_nodes=NODES, num_frontends=2, seed=SEED)
    _populate(sim)
    return sim


def test_http_answers_are_byte_identical_to_the_simulated_plane(
    fleet, simulated
) -> None:
    for index, query in enumerate(QUERIES):
        shard = index % 2
        deployed = fleet.http_query(shard, query)
        reference = simulated.query(query)
        assert json.dumps(deployed["value"]) == json.dumps(
            reference.value
        ), query
        assert sorted(deployed["cover"]) == sorted(reference.cover), query
        assert deployed["contributors"] == reference.contributors, query


def test_one_wire_probe_per_group_cluster_wide(fleet) -> None:
    before = fleet.admin("stats")["stats"]["by_type"].get("SIZE_PROBE", 0)
    # Two fresh groups nobody has probed yet.
    ids = fleet.admin("members")["members"]
    fleet.admin("set_group", attr="probe_a", members=ids[:15])
    fleet.admin("set_group", attr="probe_b", members=ids[15:40])
    composite = "SELECT COUNT(*) WHERE probe_a = true OR probe_b = true"
    # Front-end 0 pays the probes (at most one per group)...
    first = fleet.http_query(0, composite)
    assert set(first["probed_costs"]) == {
        "(probe_a = true)",
        "(probe_b = true)",
    }
    # ...front-end 1 reads the same sizes through the shared tier and
    # sends no probe at all.
    second = fleet.http_query(1, composite)
    assert second["value"] == first["value"]
    after = fleet.admin("stats")["stats"]["by_type"].get("SIZE_PROBE", 0)
    assert after - before <= 2  # one per group, cluster-wide
    service = fleet.http(0, "GET", "/stats")[1]["cache_service"]
    assert service["publishes"] >= 2


def test_group_size_endpoint_cache_then_exact(fleet) -> None:
    status, fresh = fleet.http(0, "GET", "/groups/web/size")
    assert status == 200
    assert fresh["source"] in ("cache", "query")
    if fresh["source"] == "cache":
        assert fresh["exact"] is False
        assert fresh["size"] >= 30  # tree span bounds membership above
    # The exact path: a group no query has touched on this front-end.
    ids = fleet.admin("members")["members"]
    fleet.admin("set_group", attr="fresh_group", members=ids[:7])
    status, exact = fleet.http(1, "GET", "/groups/fresh_group/size")
    assert status == 200
    assert (exact["size"], exact["exact"]) == (7, True)


def test_http_error_contract(fleet) -> None:
    status, body = fleet.http(0, "POST", "/query", {"query": "SELEKT nope"})
    assert status == 400 and "error" in body
    status, body = fleet.http(0, "POST", "/query", {})
    assert status == 400
    status, body = fleet.http(0, "GET", "/nope")
    assert status == 404
    status, body = fleet.http(0, "GET", "/query")
    assert status == 405
    status, body = fleet.http(0, "GET", "/groups/no-such-attr-here/size")
    # Unknown attribute: every node answers false -> exact empty group.
    assert status == 200 and body["size"] == 0


def test_oversized_body_is_rejected_with_413(fleet) -> None:
    import socket

    with socket.create_connection(
        (fleet.host, fleet.http_ports[0]), timeout=5.0
    ) as conn:
        conn.sendall(
            b"POST /query HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n"
        )
        assert b"413" in conn.recv(1024).split(b"\r\n", 1)[0]


def test_healthz_and_stats_surface(fleet) -> None:
    status, health = fleet.http(0, "GET", "/healthz")
    assert status == 200
    assert health["overlay_connected"] is True
    assert health["overlay_nodes"] == NODES
    assert health["cache_service"] is True
    status, stats = fleet.http(0, "GET", "/stats")
    assert status == 200
    assert stats["shard"] == 0
    assert stats["queries_served"] >= 1
    assert stats["messages"]["total"] >= 1
    assert "plan_cache" in stats
    # The shared tier's L1 (docs/API.md): repeats above were answered
    # from leases; shard 1 joining the ring flushed shard 0's once.
    size_cache = stats["size_cache"]
    assert size_cache["shared_tier"] is True
    assert 0 < size_cache["l1_hits"] <= size_cache["hits"]
    assert size_cache["l1_entries"] >= 1
    assert {"local_writer_drops", "refreshes_skipped"} <= set(size_cache)
    assert stats["links"]["cache"]["l1_flushes"] >= 1


def test_overlay_churn_reaches_remote_frontends(fleet) -> None:
    ids = fleet.admin("members")["members"]
    victim = ids[-1]
    fleet.admin("leave_node", node=victim)
    import time

    deadline = time.monotonic() + 3.0
    while time.monotonic() < deadline:
        nodes = fleet.http(0, "GET", "/healthz")[1]["overlay_nodes"]
        if nodes == NODES - 1:
            break
        time.sleep(0.02)
    assert fleet.http(0, "GET", "/healthz")[1]["overlay_nodes"] == NODES - 1
    assert fleet.http(1, "GET", "/healthz")[1]["overlay_nodes"] == NODES - 1
    # The shrunken overlay still answers correctly over HTTP.
    count = fleet.http_query(0, "SELECT COUNT(*) WHERE load > 0")
    assert count["value"] == NODES - 1
