"""The fleet host can always be stopped, and a dead host is a failure, not a hang."""

from __future__ import annotations

import time

import pytest

import inputs
from fleet_plane import FleetHost, _Client


def test_host_serves_then_exits_when_stdin_closes():
    spec = inputs.generate("fleet_warm_dashboard", 2, smoke=True)
    host = FleetHost(spec)
    try:
        assert len(host.http_ports) == 2 and all(port > 0 for port in host.http_ports)
        client = _Client(host.http_ports[0])
        _, answer = client.query("SELECT COUNT(*) WHERE S0 = true")
        assert answer == (len(spec["groups"]["S0"]),)
        client.close()
    finally:
        rss = host.close()
    assert rss is not None and rss > 0
    assert host.proc.poll() is not None


def test_a_killed_host_turns_queries_into_failures():
    spec = inputs.generate("fleet_warm_dashboard", 2, smoke=True)
    host = FleetHost(spec)
    client = _Client(host.http_ports[0])
    host.kill()
    started = time.perf_counter()
    _, answer = client.query("SELECT COUNT(*) WHERE S0 = true")
    assert answer is None and time.perf_counter() - started < 5.0
    assert host.close() is None


def test_a_host_that_cannot_boot_raises_instead_of_hanging():
    with pytest.raises(RuntimeError):
        FleetHost({"not": "a spec"})
