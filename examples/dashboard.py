#!/usr/bin/env python3
"""A live operations dashboard built on Moara's extension features.

Combines the paper's optional/extension machinery in one scenario:

* **periodic one-shot monitoring** (Section 1) -- dashboards re-run
  one-shot queries instead of installing continuous aggregations;
* **derived attributes** (Section 3.1's extension) -- `overloaded` is a
  program over base attributes, and becomes an ordinary group;
* **histogram aggregation** -- a utilization distribution with an
  approximate median, still partially aggregatable;
* **state garbage collection** (Section 4) -- idle predicates are swept
  while the dashboard's hot predicates stay resident.

Run:  python examples/dashboard.py
"""

import random

from repro.core import (
    DerivedAttribute,
    Histogram,
    IdleTimeoutGC,
    MoaraCluster,
    PeriodicMonitor,
    install_derived,
)
from repro.core.moara_node import MoaraConfig
from repro.core.parser import parse_predicate
from repro.core.query import Query


def main() -> None:
    config = MoaraConfig(gc_policy_factory=lambda: IdleTimeoutGC(timeout=120.0))
    cluster = MoaraCluster(num_nodes=150, seed=29, config=config)
    rng = random.Random(29)

    # Base attributes plus the derived `overloaded` group.
    overloaded = DerivedAttribute(
        "overloaded",
        inputs=["cpu-util", "mem-util"],
        program=lambda a: a["cpu-util"] > 85.0 or a["mem-util"] > 90.0,
    )
    for node_id in cluster.node_ids:
        node = cluster.nodes[node_id]
        node.attributes.set("cpu-util", rng.uniform(0.0, 100.0))
        node.attributes.set("mem-util", rng.uniform(0.0, 100.0))
        install_derived(node.attributes, overloaded)

    # Dashboard widgets: one periodic monitor per panel.
    overloaded_panel = PeriodicMonitor(
        cluster, "SELECT COUNT(*) WHERE overloaded = true", period=10.0
    )
    hist_query = Query(
        attr="cpu-util",
        function=Histogram(0.0, 100.0, buckets=5),
        predicate=parse_predicate("cpu-util >= 0"),
    )
    histogram_panel = PeriodicMonitor(cluster, hist_query, period=20.0)
    overloaded_panel.start()
    histogram_panel.start()

    # Background load drift: nodes heat up and cool down over time.
    def drift() -> None:
        for node_id in rng.sample(cluster.node_ids, 15):
            node = cluster.nodes[node_id]
            node.attributes.set("cpu-util", rng.uniform(0.0, 100.0))
        cluster.engine.schedule(7.0, drift)

    cluster.engine.schedule(7.0, drift)
    cluster.run(seconds=61.0)

    print("overloaded-hosts panel (sampled every 10 s):")
    for t, result in overloaded_panel.samples:
        print(f"  t={t:5.1f}s  overloaded={result.value:>3d}  "
              f"msgs={result.message_cost}")

    print("\ncpu-utilization histogram (latest sample):")
    latest = histogram_panel.values[-1]
    for i, count in enumerate(latest["counts"]):
        lo, hi = latest["edges"][i], latest["edges"][i + 1]
        print(f"  [{lo:5.1f}, {hi:5.1f}): {'#' * count} {count}")
    print(f"  approx median: {latest['approx_median']:.1f}%")

    states = sum(len(node.tree_keys()) for node in cluster.nodes.values())
    print(f"\npredicate states resident across the cluster: {states}")
    print("(idle predicates are garbage-collected after 120 s)")


if __name__ == "__main__":
    main()
