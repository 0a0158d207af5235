#!/usr/bin/env python3
"""Deploy smoke: boot the socket fleet, hit it over HTTP, scrape stats.

CI's deploy-smoke job runs this on every push: it boots the full
deployed topology (overlay service, cache service, N HTTP front-ends in
processes of their own — real localhost sockets, via
``repro.serve.fleet``), fires a canned query burst over HTTP/JSON,
checks every answer against a same-seed *simulated* plane, and writes
one JSON report (query results, per-front-end ``/stats`` and
``/healthz``, cache-service counters, cluster-wide admin message
totals) that the job uploads as an artifact.

Exit status is the point: 0 only if the fleet booted, every query
returned 200 with the simulator's exact answer, every front-end is
healthy in a process that is not this one, and none survives ``close``.
Usage::

    PYTHONPATH=src python scripts/deploy_smoke.py [--out deploy_smoke.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.core.cluster import MoaraCluster
from repro.serve.fleet import Fleet

NODES = 120
SEED = 11
FRONTENDS = 2
#: the canned burst: each text is posted to both shards, twice (cold
#: then warm), so the report shows probes, cache hits, and sharing.
BURST = [
    "SELECT COUNT(*) WHERE web = true",
    "SELECT COUNT(*) WHERE web = true OR db = true",
    "SELECT AVG(load) WHERE web = true AND db = true",
    "SELECT MAX(load) WHERE db = true",
    "SELECT SUM(load) WHERE web = true AND NOT db = true",
]


def _populate(cluster: MoaraCluster) -> None:
    ids = cluster.overlay.node_ids
    cluster.set_group("web", ids[:35])
    cluster.set_group("db", ids[25:60])
    cluster.set_attribute_all("load", 3.0)
    for nid in ids[:10]:
        cluster.set_attribute(nid, "load", 9.0)


#: how many base ports to try when a fixed --base-port is already bound
PORT_RETRIES = 3
#: gap between successive base-port attempts (must exceed the number of
#: front-ends, since shard i binds base+i)
PORT_STRIDE = 16


def _boot_fleet(backend: MoaraCluster, base_port: int) -> Fleet:
    """Boot the fleet, sidestepping port collisions.

    With ``base_port == 0`` the OS picks free ephemeral ports and no
    collision is possible.  A fixed base port (CI jobs pin ports so the
    artifact's URLs are stable) can race another job: retry at strided
    offsets before giving up, so a stale listener doesn't fail the run.
    """
    last_error: OSError | None = None
    for attempt in range(PORT_RETRIES if base_port else 1):
        port = base_port + attempt * PORT_STRIDE if base_port else 0
        fleet = Fleet(backend, num_frontends=FRONTENDS, base_http_port=port)
        try:
            fleet.start()
            return fleet
        except OSError as error:
            last_error = error
            fleet.close()
            print(
                f"deploy_smoke: base port {port} unavailable ({error}); "
                f"retrying",
                file=sys.stderr,
            )
    raise last_error  # every candidate base port was taken


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--out", default="deploy_smoke.json", help="JSON report path"
    )
    parser.add_argument(
        "--base-port",
        type=int,
        default=0,
        help="first front-end HTTP port; shard i binds base+i "
        "(default 0: let the OS pick; collisions retried at +%d strides)"
        % PORT_STRIDE,
    )
    args = parser.parse_args(argv)

    reference = MoaraCluster(
        num_nodes=NODES, num_frontends=FRONTENDS, seed=SEED
    )
    _populate(reference)
    expected = {text: reference.query(text).value for text in BURST}

    backend = MoaraCluster(num_nodes=NODES, num_frontends=0, seed=SEED)
    _populate(backend)

    failures: list[str] = []
    report: dict = {"nodes": NODES, "frontends": FRONTENDS, "queries": []}
    fleet = _boot_fleet(backend, args.base_port)
    try:
        for round_no in range(2):  # cold, then warm
            for index, text in enumerate(BURST):
                shard = (index + round_no) % FRONTENDS
                status, reply = fleet.http(
                    shard, "POST", "/query", {"query": text}
                )
                entry = {
                    "round": round_no,
                    "shard": shard,
                    "query": text,
                    "status": status,
                    "value": reply.get("value"),
                    "message_cost": reply.get("message_cost"),
                    "plan_cached": reply.get("plan_cached"),
                    "shared": reply.get("shared"),
                }
                report["queries"].append(entry)
                if status != 200:
                    failures.append(f"{text!r} on shard {shard}: {status}")
                elif json.dumps(reply["value"]) != json.dumps(expected[text]):
                    failures.append(
                        f"{text!r}: fleet said {reply['value']!r}, "
                        f"simulator said {expected[text]!r}"
                    )

        report["frontends_stats"] = []
        for shard in range(FRONTENDS):
            health_status, health = fleet.http(shard, "GET", "/healthz")
            _, stats = fleet.http(shard, "GET", "/stats")
            report["frontends_stats"].append(
                {"healthz": health, "stats": stats}
            )
            if health_status != 200:
                failures.append(f"shard {shard} unhealthy: {health}")
            if health.get("pid") in (None, os.getpid()):
                failures.append(f"shard {shard} is not a process: {health}")
        report["cluster_messages"] = fleet.admin("stats")["stats"]
    finally:
        fleet.close()
    for pid in fleet.pids:
        try:
            os.kill(pid, 0)  # a reaped child is gone, a zombie is not
            failures.append(f"front-end pid {pid} survived close()")
        except ProcessLookupError:
            pass

    report["expected"] = {k: v for k, v in expected.items()}
    report["ok"] = not failures
    report["failures"] = failures
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    probes = report["cluster_messages"]["by_type"].get("SIZE_PROBE", 0)
    print(
        f"deploy_smoke: {len(report['queries'])} HTTP queries, "
        f"{probes} wire probes cluster-wide, report in {args.out}"
    )
    for failure in failures:
        print(f"deploy_smoke: FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
