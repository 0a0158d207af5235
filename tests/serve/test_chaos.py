"""Scripted link faults on the loopback plane's LocalLoopback links.

The contract under chaos (the same one the ``chaos_links`` campaign's
oracle enforces): the plane may answer slowly or return **explicitly
failed** results — never silently wrong answers, never a hang — and a
healed link serves correct answers again.  These tests drive each fault
kind in isolation, pin the mid-query link-kill satellite (a send on a
dead link must surface as a failed query, not a lost frame), and check
the failure path of :class:`RemoteNetwork` without any sockets.
"""

from __future__ import annotations

import json

from repro.campaigns.planes import LoopbackPlane
from repro.core.cluster import MoaraCluster
from repro.core.shard_router import canonical_query_text
from repro.serve.transport import LinkFault, RemoteNetwork
from repro.sim import network as simnet

NODES = 60


def _groups(cluster: MoaraCluster) -> MoaraCluster:
    ids = cluster.overlay.node_ids
    cluster.set_group("web", ids[: NODES // 4])
    cluster.set_attribute_all("load", 3.0)
    return cluster


def _plane(seed: int = 11) -> LoopbackPlane:
    plane = LoopbackPlane(NODES, seed=seed, num_frontends=2)
    _groups(plane.cluster)
    return plane


def _ask(plane: LoopbackPlane, query: str):
    return plane.query_batch([query])[0]


def _route(plane: LoopbackPlane, query: str) -> int:
    return plane.cluster.router.shard_for(canonical_query_text(query))


QUERY = "SELECT COUNT(*) WHERE web = true"
AVG = "SELECT AVG(load) WHERE web = true"


def test_chaos_wrappers_are_transparent_without_faults() -> None:
    # Every plane link accepts scripted faults, and one with none active
    # draws no random numbers and answers exactly as the simulated
    # plane's in-process front-ends do.
    sim = _groups(MoaraCluster(num_nodes=NODES, num_frontends=2, seed=11))
    plane = _plane()
    assert all(callable(t.inject) for t in plane.transports)
    rng_states = [t._rng.getstate() for t in plane.transports]
    for query in (QUERY, AVG):
        a, b = sim.query(query), _ask(plane, query)
        assert json.dumps(a.value) == json.dumps(b.value)
        assert a.cover == b.cover
        assert not b.failed
    assert [t._rng.getstate() for t in plane.transports] == rng_states


def test_delay_fault_answers_slowly_but_correctly() -> None:
    reference = _ask(_plane(), QUERY)
    plane = _plane()
    t0 = plane.now
    for transport in plane.transports:
        transport.inject(LinkFault("delay", delay=0.5, until=plane.now + 60))
    result = _ask(plane, QUERY)
    assert not result.failed
    assert result.value == reference.value
    # The held frames forced the plane clock forward by at least one
    # round-trip's worth of injected latency.
    assert plane.now >= t0 + 0.5


def test_drop_fault_fails_explicitly_instead_of_hanging() -> None:
    plane = _plane()
    for transport in plane.transports:
        transport.inject(LinkFault("drop", p=1.0, direction="outbound"))
    result = _ask(plane, QUERY)
    assert result.failed
    # NULL resolution, not a fabricated answer: nothing contributed.
    assert result.contributors == 0
    assert result.failure
    assert any(t.drops > 0 for t in plane.transports)


def test_inbound_partition_eats_responses_and_fails_the_query() -> None:
    plane = _plane()
    for transport in plane.transports:
        transport.inject(LinkFault("partition", direction="inbound"))
    # Requests go out, every response is eaten: the query must resolve
    # as an explicit failure once the plane goes idle — never hang.
    result = _ask(plane, QUERY)
    assert result.failed


def test_reset_kills_in_flight_work_mid_query() -> None:
    # The transport.py satellite pin: a query whose frames are already
    # on the wire when the link dies resolves NULL *now*.  Delay holds
    # the outbound frames in flight; the reset then eats them.
    plane = _plane()
    shard = _route(plane, QUERY)
    transport = plane.transports[shard]
    transport.inject(LinkFault("delay", delay=5.0, direction="outbound"))
    frontend = plane.frontends[shard]
    qid = frontend.submit(QUERY)
    assert transport.pending_release() is not None, "frames must be held"
    transport.reset_link(duration=1.0)
    transport.pump()
    assert qid in frontend.results
    result = frontend.results.pop(qid)
    assert result.failed
    assert "reset" in result.failure


def test_send_during_reset_window_fails_fast() -> None:
    plane = _plane()
    shard = _route(plane, QUERY)
    transport = plane.transports[shard]
    transport.reset_link(duration=30.0)
    transport.pump()  # flush the reset's own failure event
    result = _ask(plane, QUERY)
    assert result.failed
    assert transport.stats.link_send_failures > 0


def test_duplicate_fault_keeps_answers_correct_and_is_accounted() -> None:
    reference = _ask(_plane(), AVG)
    plane = _plane()
    for transport in plane.transports:
        transport.inject(LinkFault("duplicate", p=1.0))
    result = _ask(plane, AVG)
    assert not result.failed
    assert json.dumps(result.value) == json.dumps(reference.value)
    # The wire made copies and owned up to them (the probe-budget oracle
    # subtracts exactly these counts).
    assert sum(sum(t.dup_counts.values()) for t in plane.transports) > 0


def test_faults_expire_and_the_link_heals() -> None:
    plane = _plane()
    transport = plane.transports[_route(plane, QUERY)]
    transport.inject(LinkFault("drop", p=1.0, until=plane.now + 1.0))
    first = _ask(plane, QUERY)
    assert first.failed
    plane.advance(2.0)
    healed = _ask(plane, QUERY)
    assert not healed.failed
    reference = _ask(_plane(), QUERY)
    assert healed.value == reference.value


def test_chaos_is_deterministic_from_its_seed() -> None:
    def run(seed: int) -> list[tuple[bool, object]]:
        plane = _plane(seed=seed)
        for transport in plane.transports:
            transport.inject(LinkFault("drop", p=0.5))
        out = []
        for _ in range(6):
            r = _ask(plane, QUERY)
            out.append((r.failed, r.value))
        return out

    assert run(9) == run(9)


def test_chaos_transport_satisfies_the_frontend_seam() -> None:
    plane = _plane()
    for transport in plane.transports:
        assert isinstance(transport, simnet.FrontendTransport)


# ---------------------------------------------------------------------------
# RemoteNetwork failure paths (no sockets)
# ---------------------------------------------------------------------------


class _RecordingFrontend:
    def __init__(self) -> None:
        self.failures: list[tuple[object, str]] = []

    def on_link_failure(self, tags, reason) -> None:
        self.failures.append((tags, reason))


def test_remote_network_send_on_dead_link_fails_the_query() -> None:
    # PR 6 lost this frame silently (the caller found out via HTTP
    # timeout); now the dead-writer send surfaces as a failed tag.
    net = RemoteNetwork("127.0.0.1", 1, node_id=-1, reconnect=False)
    frontend = _RecordingFrontend()
    net.attach(frontend)
    net.send(-1, 7, "FRONTEND_QUERY", {"qid": "q-dead"})
    # No event loop is running, so the failure lands synchronously.
    assert frontend.failures == [({"q-dead"}, "overlay link down")]
    assert net.stats.link_send_failures == 1
    assert net.stats.dropped_messages == 1


def test_remote_network_expired_deadline_refuses_the_send() -> None:
    from repro.serve.resilience import Deadline

    clock_t = [100.0]
    deadline = Deadline.after(1.0, clock=lambda: clock_t[0])
    clock_t[0] += 2.0
    net = RemoteNetwork("127.0.0.1", 1, node_id=-1, reconnect=False)
    frontend = _RecordingFrontend()
    net.attach(frontend)
    with net.deadline_scope(deadline):
        net.send(-1, 7, "SIZE_PROBE", {"probe_id": "p-late"})
    assert net.stats.deadline_expired == 1
    assert frontend.failures == [({"p-late"}, "end-to-end deadline exceeded")]
