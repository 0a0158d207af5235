"""Child process hosting the system under test for the ``fleet_*`` workloads.

Protocol with the parent (``fleet_plane.FleetHost``), all on stdio:

1. the parent writes one JSON line: the workload spec;
2. this process builds the frontend-less backend cluster and boots a
   default-configured :class:`repro.serve.fleet.Fleet` (overlay service,
   cache service, two HTTP front-ends) on OS-assigned localhost ports,
   then prints one JSON line with the ports and its set-up phase times;
3. it serves until stdin closes (the parent finished, or died), prints a
   last JSON line with its peak resident set, and exits.

The load generator therefore never shares an interpreter lock with the
program it measures.
"""

from __future__ import annotations

import json
import sys
import time

from measure import ensure_program_importable, peak_rss_mb


def main() -> int:
    ensure_program_importable()
    from repro.serve.fleet import Fleet

    from sim_plane import build_cluster
    from spans import Tracer

    spec = json.loads(sys.stdin.readline())
    cluster, _ids, phases = build_cluster(spec, Tracer(enabled=False), num_frontends=0)
    started = time.perf_counter()
    fleet = Fleet(cluster, num_frontends=2).start()
    phases["fleet.boot_s"] = time.perf_counter() - started
    assert fleet.overlay is not None and fleet.cache is not None
    ready = {
        "overlay_port": fleet.overlay.port,
        "cache_port": fleet.cache.port,
        "http_ports": fleet.http_ports,
        "phases": phases,
    }
    print(json.dumps(ready), flush=True)
    try:
        sys.stdin.read()  # returns at EOF: the parent closed our stdin
        print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    finally:
        fleet.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
