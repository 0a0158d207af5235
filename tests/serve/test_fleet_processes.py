"""One OS process per front-end: identity, real crashes, supervision.

``Fleet`` forks its front-ends; these tests hold it to what that buys
and what it owes: distinct pids, a SIGKILLed front-end that takes
nothing else down (the survivor stays *right*, the overlay and the cache
service forget the dead one), a SIGKILLed host that leaves no orphan,
and a ``close`` that leaves no child and no zombie.  Every fleet here is
closed before the next one forks, so each fork happens in a
single-threaded process (CI runs this file with
``-W error::DeprecationWarning``).
"""

from __future__ import annotations

import errno
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.baselines import centralized_answer
from repro.core.cluster import MoaraCluster
from repro.serve.fleet import Fleet, ServiceThread
from repro.serve.frontend_server import FrontendServer, jsonable
from repro.serve.protocol import SyncRpcChannel

pytestmark = pytest.mark.system

NODES = 80
QUERIES = [
    "SELECT COUNT(*) WHERE web = true",
    "SELECT COUNT(*) WHERE web = true OR db = true",
    "SELECT AVG(load) WHERE web = true AND db = true",
    "SELECT SUM(load) WHERE web = true AND NOT db = true",
]


def _backend() -> MoaraCluster:
    cluster = MoaraCluster(num_nodes=NODES, num_frontends=0, seed=29)
    ids = cluster.overlay.node_ids
    cluster.set_group("web", ids[:25])
    cluster.set_group("db", ids[15:45])
    cluster.set_attribute_all("load", 2.0)
    for nid in ids[:10]:
        cluster.set_attribute(nid, "load", 7.0)
    return cluster


def _truth(cluster: MoaraCluster, text: str):
    stores = [(nid, node.attributes) for nid, node in cluster.nodes.items()]
    return jsonable(centralized_answer(text, stores))


def _gone(pid: int) -> bool:
    """No such process — a zombie child of ours would still be there."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _wait_for(condition, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_frontends_are_processes_of_their_own() -> None:
    with Fleet(_backend(), num_frontends=2) as fleet:
        pids = list(fleet.pids)
        assert len(set(pids)) == 2 and os.getpid() not in pids
        for shard, pid in enumerate(pids):
            for path in ("/healthz", "/stats"):
                status, body = fleet.http(shard, "GET", path)
                assert status == 200
                assert body["pid"] == pid and body["rss_mb"] > 0
    assert all(_gone(pid) for pid in pids)  # reaped: no child, no zombie
    fleet.close()  # and closing twice is fine


def test_sigkill_of_a_frontend_under_load_costs_only_that_frontend() -> None:
    cluster = _backend()
    truths = {text: _truth(cluster, text) for text in QUERIES}
    answers: list[list] = [[], []]
    stop = threading.Event()

    def closed_loop(fleet: Fleet, shard: int) -> None:
        conn = http.client.HTTPConnection(
            fleet.host, fleet.http_ports[shard], timeout=10.0
        )
        index = 0
        while not stop.is_set():
            text = QUERIES[index % len(QUERIES)]
            index += 1
            try:
                conn.request("POST", "/query", json.dumps({"query": text}))
                response = conn.getresponse()
                body = json.loads(response.read())
                answers[shard].append((text, response.status, body))
            except (OSError, http.client.HTTPException) as exc:
                answers[shard].append((text, 0, repr(exc)))
                conn.close()
                time.sleep(0.01)
        conn.close()

    with Fleet(cluster, num_frontends=2) as fleet:
        victim = fleet.pids[1]
        threads = [
            threading.Thread(target=closed_loop, args=(fleet, shard))
            for shard in range(2)
        ]
        for thread in threads:
            thread.start()
        try:
            assert _wait_for(lambda: min(map(len, answers)) >= 50, 20.0)
            fleet.kill_frontend(1)
            assert _gone(victim)
            before = len(answers[0])
            assert _wait_for(lambda: len(answers[0]) >= before + 200, 20.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=15.0)
        assert not any(thread.is_alive() for thread in threads)

        # The survivor never noticed: every answer, before and after.
        assert all(
            status == 200 and body["value"] == truths[text]
            for text, status, body in answers[0]
        )
        # The victim answered right until it died, then not at all.
        assert answers[1][-1][1] == 0
        assert all(
            body["value"] == truths[text]
            for text, status, body in answers[1]
            if status == 200
        )

        # The overlay service detached the dead proxy: its seat is free.
        assert _wait_for(lambda: -2 not in fleet.overlay._proxies, 5.0)
        seat = SyncRpcChannel(fleet.host, fleet.overlay.port)
        welcome = seat.request(
            {"kind": "hello", "role": "frontend", "node_id": -2}
        )
        seat.close()
        assert welcome["kind"] == "welcome" and welcome["node_id"] == -2

        # The cache service dropped shard 1's push stream and RPC link,
        # and lease coherence still works for the shard that is left: a
        # changed group is seen, not served from a stale lease.
        assert _wait_for(lambda: not fleet.cache._subs.get(1), 5.0)
        assert fleet.cache._subs.get(0)
        ids = fleet.admin("members")["members"]
        fleet.admin("set_group", attr="web", members=ids[:31])
        text = QUERIES[0]
        assert _wait_for(
            lambda: fleet.http_query(0, text)["value"] == _truth(cluster, text),
            5.0,
        )
        status, health = fleet.http(0, "GET", "/healthz")
        assert status == 200 and health["cache_service"] is True
    assert _gone(fleet.pids[0])


def test_a_frontend_restarted_for_the_same_shard_gets_exact_answers() -> None:
    """A new process for a shard reuses the dead one's node id; the
    overlay's welcome gives it a new origin, so the nodes do not take
    its first shares for the dead process's."""
    cluster = MoaraCluster(num_nodes=120, num_frontends=0, seed=5)
    cluster.set_group("web", cluster.overlay.node_ids[::3])  # 40 members
    text = "SELECT COUNT(*) WHERE web = true"
    with Fleet(cluster, num_frontends=2) as fleet:
        for _ in range(3):
            assert fleet.http_query(1, text)["value"] == 40
        fleet.kill_frontend(1)
        assert _wait_for(lambda: -2 not in fleet.overlay._proxies, 5.0)
        thread = ServiceThread("frontend-1-restarted")
        server = FrontendServer(
            overlay_addr=(fleet.host, fleet.overlay.port),
            shard=1,
            cache_addr=(fleet.host, fleet.cache.port),
        )
        try:
            thread.call(server.start())
            assert server.network.node_id == -2
            fleet.http_ports[1] = server.http_port
            for _ in range(3):
                reply = fleet.http_query(1, text)
                assert (reply["value"], reply["failed"]) == (40, False)
        finally:
            thread.call(server.close())
            thread.stop()


_HOST_SCRIPT = """
import json, sys, time
from repro.core.cluster import MoaraCluster
from repro.serve.fleet import Fleet
cluster = MoaraCluster(num_nodes=32, num_frontends=0, seed=3)
cluster.set_group("g", cluster.overlay.node_ids[:9])
fleet = Fleet(cluster, num_frontends=2).start()
print(json.dumps({"pids": fleet.pids, "ports": fleet.http_ports}), flush=True)
time.sleep(120)
"""


def test_sigkill_of_the_host_takes_every_frontend_with_it() -> None:
    host = subprocess.Popen(
        [sys.executable, "-c", _HOST_SCRIPT],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    try:
        ready = json.loads(host.stdout.readline())
        conn = http.client.HTTPConnection("127.0.0.1", ready["ports"][1], timeout=10)
        conn.request(
            "POST", "/query", json.dumps({"query": "SELECT COUNT(*) WHERE g = true"})
        )
        assert json.loads(conn.getresponse().read())["value"] == 9
        host.send_signal(signal.SIGKILL)
        host.wait(timeout=10.0)
        # No polite close happened, and a client is still connected.
        assert _wait_for(lambda: all(map(_gone_anywhere, ready["pids"])), 2.0)
        conn.close()
    finally:
        host.kill()
        host.wait()
        host.stdout.close()


def _gone_anywhere(pid: int) -> bool:
    """``_gone`` for a process that is not our child (orphans are reaped
    by init, so a dead one does not linger as a zombie for long)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_close_with_a_keepalive_client_is_prompt_and_quiet(capfd) -> None:
    fleet = Fleet(_backend(), num_frontends=2).start()
    conn = http.client.HTTPConnection(fleet.host, fleet.http_ports[0], timeout=10)
    try:
        conn.request("GET", "/healthz")
        assert conn.getresponse().read()
        started = time.perf_counter()
        fleet.close()
        assert time.perf_counter() - started < 1.0
    finally:
        conn.close()
        fleet.close()
    assert all(_gone(pid) for pid in fleet.pids)
    # "Task was destroyed but it is pending" / "Event loop is closed"
    # used to land here; the children share this process's stderr.
    assert capfd.readouterr().err == ""


def test_a_frontend_that_cannot_bind_fails_start_and_leaves_nothing() -> None:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        base = probe.getsockname()[1]
    threads_before = threading.active_count()
    with socket.socket() as holder:  # shard 1's port: shard 0 does start
        holder.bind(("127.0.0.1", base + 1))
        holder.listen(1)
        fleet = Fleet(_backend(), num_frontends=2, base_http_port=base)
        with pytest.raises(OSError) as failure:
            fleet.start()
    assert failure.value.errno == errno.EADDRINUSE
    assert len(fleet.pids) == 2 and all(_gone(pid) for pid in fleet.pids)
    assert threading.active_count() == threads_before
    with pytest.raises(OSError):  # shard 0's listener went with it
        socket.create_connection(("127.0.0.1", base), timeout=1.0).close()
