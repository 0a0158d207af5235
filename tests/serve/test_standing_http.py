"""The standing-subscription HTTP endpoints, tested without sockets.

A :class:`FrontendServer` is assembled around a loopback front-end (the
deployed topology minus the wires), and ``_dispatch`` is driven
directly -- the same routing the asyncio server runs per request --
so these stay tier-1: no ports, no threads, no event-loop servers.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.campaigns.planes import LoopbackPlane
from repro.serve.frontend_server import FrontendServer

NUM_NODES = 24


class _Wire:
    """The minimum the handlers read off ``self.network``."""

    connected = True


@pytest.fixture
def plane():
    plane = LoopbackPlane(NUM_NODES, seed=13, num_frontends=1)
    for index, node_id in enumerate(plane.node_ids):
        plane.set_attribute(node_id, "load", float(index % 8))
        plane.set_attribute(node_id, "svc", index % 3 == 0)
    plane.quiesce()
    return plane


@pytest.fixture
def server(plane):
    server = FrontendServer(overlay_addr=("127.0.0.1", 0))
    server.frontend = plane.frontends[0]
    server.network = _Wire()
    return server


def _dispatch(server, method, path, body=b""):
    return asyncio.run(server._dispatch(method, path, body))


def _subscribe(server, text, lease=0.0):
    status, payload = _dispatch(
        server,
        "POST",
        "/subscribe",
        json.dumps({"query": text, "lease": lease}).encode(),
    )
    assert status == 200, payload
    return payload


def test_subscribe_then_poll_updates(server, plane) -> None:
    sub = _subscribe(server, "SELECT COUNT(*) WHERE svc = true")
    assert sub["sid"] and sub["cover"] and not sub["static"]
    plane.quiesce()
    status, payload = _dispatch(
        server, "GET", f"/subscriptions/{sub['sid']}/updates"
    )
    assert status == 200
    assert payload["active"] and not payload["expired"]
    assert payload["seq"] >= 1 and payload["updates"]
    first = payload["updates"][0]
    assert set(first) == {"seq", "value", "cover", "contributors", "latency"}
    assert payload["updates"][-1]["value"] == 8  # every third of 24 nodes


def test_updates_since_is_a_cursor(server, plane) -> None:
    sub = _subscribe(server, "SELECT SUM(load) WHERE svc = true")
    plane.quiesce()
    _, page1 = _dispatch(
        server, "GET", f"/subscriptions/{sub['sid']}/updates"
    )
    cursor = page1["seq"]
    _, page2 = _dispatch(
        server, "GET", f"/subscriptions/{sub['sid']}/updates?since={cursor}"
    )
    assert page2["updates"] == []
    # New deltas advance the stream past the cursor.
    for node_id in plane.node_ids[:3]:
        plane.set_attribute(node_id, "load", 7.0)
    plane.quiesce()
    _, page3 = _dispatch(
        server, "GET", f"/subscriptions/{sub['sid']}/updates?since={cursor}"
    )
    assert page3["updates"] and all(
        u["seq"] > cursor for u in page3["updates"]
    )


def test_unsubscribe_cancels_and_forgets(server, plane) -> None:
    sub = _subscribe(server, "SELECT COUNT(*) WHERE svc = true")
    plane.quiesce()
    status, payload = _dispatch(
        server, "DELETE", f"/subscriptions/{sub['sid']}"
    )
    assert status == 200 and payload["cancelled"]
    plane.quiesce()
    assert all(
        len(node.standing) == 0
        for node in plane.cluster.nodes.values()
    )
    status, _ = _dispatch(server, "GET", f"/subscriptions/{sub['sid']}/updates")
    assert status == 404


def test_renew_endpoint(server, plane) -> None:
    sub = _subscribe(server, "SELECT COUNT(*) WHERE svc = true", lease=30.0)
    plane.quiesce()
    status, payload = _dispatch(
        server,
        "POST",
        f"/subscriptions/{sub['sid']}/renew",
        json.dumps({"lease": 60.0}).encode(),
    )
    assert status == 200 and payload["lease"] == 60.0


def test_error_contract(server) -> None:
    # Bad body → 400.
    status, _ = _dispatch(server, "POST", "/subscribe", b"not json")
    assert status == 400
    status, _ = _dispatch(server, "POST", "/subscribe", b"{}")
    assert status == 400
    status, payload = _dispatch(
        server, "POST", "/subscribe",
        json.dumps({"query": "SELECT COUNT(*", "lease": 0}).encode(),
    )
    assert status == 400 and "kind" in payload
    # Unknown sid → 404 on every member of the family.
    for method, path in [
        ("GET", "/subscriptions/nope/updates"),
        ("POST", "/subscriptions/nope/renew"),
        ("DELETE", "/subscriptions/nope"),
    ]:
        status, _ = _dispatch(server, method, path)
        assert status == 404, (method, path)
    # Wrong method → 405.
    status, _ = _dispatch(server, "GET", "/subscribe")
    assert status == 405
    status, _ = _dispatch(server, "POST", "/subscriptions/nope")
    assert status == 405
    # Malformed cursor → 400 (needs a real sid).


def test_bad_since_is_a_400(server, plane) -> None:
    sub = _subscribe(server, "SELECT COUNT(*) WHERE svc = true")
    status, _ = _dispatch(
        server, "GET", f"/subscriptions/{sub['sid']}/updates?since=abc"
    )
    assert status == 400
