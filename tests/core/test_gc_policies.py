"""Tests for the Section 4 garbage-collection policies."""

from __future__ import annotations


from repro.core import (
    IdleTimeoutGC,
    KeepLastKGC,
    LeastFrequentGC,
    MoaraCluster,
    NoGC,
)
from repro.core.moara_node import MoaraConfig


def total_states(cluster: MoaraCluster) -> int:
    return sum(len(node.tree_keys()) for node in cluster.nodes.values())


def populate(cluster: MoaraCluster, num_groups: int) -> None:
    for i in range(num_groups):
        cluster.set_group(f"g{i}", cluster.node_ids[: 4 + i])


def test_no_gc_keeps_everything() -> None:
    cluster = MoaraCluster(24, seed=90)
    populate(cluster, 4)
    for i in range(4):
        cluster.query(f"SELECT COUNT(*) WHERE g{i} = true")
    before = total_states(cluster)
    for i in range(4):
        cluster.query(f"SELECT COUNT(*) WHERE g{i} = true")
    assert total_states(cluster) >= before


def test_idle_timeout_collects_stale_predicates() -> None:
    config = MoaraConfig(gc_policy_factory=lambda: IdleTimeoutGC(timeout=30.0))
    cluster = MoaraCluster(24, seed=91, config=config)
    populate(cluster, 3)
    for i in range(3):
        cluster.query(f"SELECT COUNT(*) WHERE g{i} = true")
    stale_states = total_states(cluster)
    # Let g0/g1 go idle past the timeout while g2 stays hot.
    for _ in range(4):
        cluster.run(seconds=15.0)
        cluster.query("SELECT COUNT(*) WHERE g2 = true")
    assert total_states(cluster) < stale_states
    # Correctness preserved: stale groups still answer (state recreated).
    assert cluster.query("SELECT COUNT(*) WHERE g0 = true").value == 4
    assert cluster.query("SELECT COUNT(*) WHERE g1 = true").value == 5


def test_keep_last_k_evicts_older_predicates() -> None:
    config = MoaraConfig(gc_policy_factory=lambda: KeepLastKGC(k=2))
    cluster = MoaraCluster(24, seed=92, config=config)
    populate(cluster, 5)
    for i in range(5):
        cluster.query(f"SELECT COUNT(*) WHERE g{i} = true")
    # Repeated queries for the two most recent groups sweep the rest.
    for _ in range(3):
        cluster.query("SELECT COUNT(*) WHERE g3 = true")
        cluster.query("SELECT COUNT(*) WHERE g4 = true")
    root3 = cluster.overlay.root(cluster.overlay.space.hash_name("g3"))
    node = cluster.nodes[root3]
    old_keys = [k for k in node.tree_keys() if k in ("(g0 = true)", "(g1 = true)")]
    # The hot root for g3 may legitimately keep old state if it is in
    # UPDATE for those predicates; but across the cluster, old predicates
    # must have been swept somewhere.
    swept = sum(
        1
        for n in cluster.nodes.values()
        if "(g0 = true)" not in n.tree_keys()
    )
    assert swept > 0
    # Answers remain correct after eviction.
    assert cluster.query("SELECT COUNT(*) WHERE g0 = true").value == 4


def test_least_frequent_respects_capacity_pressure() -> None:
    config = MoaraConfig(
        gc_policy_factory=lambda: LeastFrequentGC(capacity=2)
    )
    cluster = MoaraCluster(24, seed=93, config=config)
    populate(cluster, 4)
    # g0 is queried often; g1-g3 once each.
    for _ in range(4):
        cluster.query("SELECT COUNT(*) WHERE g0 = true")
    for i in range(1, 4):
        cluster.query(f"SELECT COUNT(*) WHERE g{i} = true")
    for _ in range(3):
        cluster.query("SELECT COUNT(*) WHERE g0 = true")
    # The frequent predicate survives on the busiest nodes.
    root0 = cluster.overlay.root(cluster.overlay.space.hash_name("g0"))
    assert "(g0 = true)" in cluster.nodes[root0].tree_keys()
    # All groups still answer correctly.
    for i in range(4):
        expected = 4 + i
        assert (
            cluster.query(f"SELECT COUNT(*) WHERE g{i} = true").value
            == expected
        )


def test_gc_policies_preserve_eventual_completeness_under_churn() -> None:
    config = MoaraConfig(gc_policy_factory=lambda: KeepLastKGC(k=1))
    cluster = MoaraCluster(32, seed=94, config=config)
    cluster.set_group("a", cluster.node_ids[:6])
    cluster.set_group("b", cluster.node_ids[10:14])
    for _round in range(4):
        assert cluster.query("SELECT COUNT(*) WHERE a = true").value == 6
        assert cluster.query("SELECT COUNT(*) WHERE b = true").value == 4
        # churn both groups between queries
        cluster.set_group("a", cluster.node_ids[_round : 6 + _round])
        cluster.set_group("b", cluster.node_ids[10 + _round : 14 + _round])
        cluster.run_until_idle()
    assert cluster.query("SELECT COUNT(*) WHERE a = true").value == 6


def test_policy_unit_behaviour() -> None:
    """Policy bookkeeping in isolation (no cluster)."""

    class FakeNode:
        def __init__(self) -> None:
            self.states = {"p1": 1, "p2": 2, "p3": 3}

        def tree_keys(self) -> list[str]:
            return list(self.states)

        def garbage_collect(self, key: str) -> bool:
            return self.states.pop(key, None) is not None

    node = FakeNode()
    policy = KeepLastKGC(k=1)
    policy.on_query(node, "p1", 0.0)
    policy.on_query(node, "p2", 1.0)
    policy.on_query(node, "p1", 2.0)  # p1 is most recent again
    assert set(policy.collect(node, 2.0)) == {"p2", "p3"}
    assert policy.sweep(node, 2.0) == 2
    assert set(node.states) == {"p1"}

    node = FakeNode()
    lfu = LeastFrequentGC(capacity=2)
    for _ in range(3):
        lfu.on_query(node, "p3", 0.0)
    lfu.on_query(node, "p2", 0.0)
    assert lfu.collect(node, 0.0) == ["p1"]

    node = FakeNode()
    idle = IdleTimeoutGC(timeout=10.0)
    idle.on_query(node, "p1", 0.0)
    idle.on_query(node, "p2", 5.0)
    assert idle.collect(node, 11.0) == ["p1"]
    assert NoGC().collect(node, 100.0) == []
