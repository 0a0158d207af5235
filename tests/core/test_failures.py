"""Failure handling (Section 7, "Reconfigurations")."""

from __future__ import annotations


from repro.core import MoaraCluster
from repro.core.moara_node import MoaraConfig


QUERY = "SELECT COUNT(*) WHERE A = 1"


def build(num_nodes: int = 48, seed: int = 60, **config_kwargs) -> MoaraCluster:
    cluster = MoaraCluster(
        num_nodes, seed=seed, config=MoaraConfig(**config_kwargs)
    )
    cluster.set_group("A", cluster.node_ids[:10], 1, 0)
    return cluster


def test_graceful_leave_of_group_member() -> None:
    cluster = build()
    assert cluster.query(QUERY).value == 10
    member = cluster.node_ids[0]
    cluster.leave_node(member)
    cluster.run_until_idle()
    assert cluster.query(QUERY).value == 9


def test_graceful_leave_of_tree_root() -> None:
    cluster = build()
    cluster.query(QUERY)
    root = cluster.overlay.root(cluster.overlay.space.hash_name("A"))
    was_member = root in cluster.members_satisfying("A = 1")
    cluster.leave_node(root)
    cluster.run_until_idle()
    assert cluster.query(QUERY).value == (9 if was_member else 10)


def test_crash_with_detection_resolves_query() -> None:
    """A node crashing mid-deployment: after the failure detector fires,
    queries complete with answers from the survivors."""
    cluster = build()
    cluster.query(QUERY)
    victim = cluster.node_ids[3]  # a group member
    cluster.crash_node(victim, detection_delay=0.0)
    cluster.run_until_idle()
    assert cluster.query(QUERY).value == 9


def test_crash_of_internal_node_mid_query_with_timeout() -> None:
    """With a child timeout configured, a query survives an undetected
    crash: the waiting parent times out and answers with what it has."""
    cluster = build(child_timeout=0.5)
    cluster.query(QUERY)
    # Crash a non-member whose state makes it a forwarding hub, without
    # telling the overlay (failure detector never fires).
    members = cluster.members_satisfying("A = 1")
    key = cluster.overlay.space.hash_name("A")
    root = cluster.overlay.root(key)
    victim = next(
        n for n in cluster.node_ids
        if n not in members and n != root
    )
    cluster.network.crash(victim)
    result = cluster.query(QUERY)
    # Complete or partial, but the query must terminate and count only
    # reachable members.
    assert result.value <= 10
    assert result.value >= 0


def test_join_during_active_tree() -> None:
    cluster = build()
    cluster.query(QUERY)
    new_node = cluster.join_node()
    cluster.set_attribute(new_node, "A", 1)
    cluster.run_until_idle()
    assert cluster.query(QUERY).value == 11


def test_mass_leave_keeps_answers_correct() -> None:
    cluster = build(num_nodes=64)
    cluster.query(QUERY)
    for node_id in list(cluster.node_ids[20:40]):
        cluster.leave_node(node_id)
    cluster.run_until_idle()
    expected = len(cluster.members_satisfying("A = 1"))
    assert cluster.query(QUERY).value == expected


def test_state_resent_to_new_parent() -> None:
    """Section 7: "When a node gets a new parent for a predicate, it sends
    its current state information for that predicate to the new parent".

    Uses 1-bit digits so the tree is deep enough to contain internal
    (non-root) nodes with children at this overlay size."""
    from repro.pastry.idspace import IdSpace

    cluster = MoaraCluster(
        32, seed=61, config=MoaraConfig(), space=IdSpace(bits=32, digit_bits=1)
    )
    cluster.set_group("A", cluster.node_ids[:10], 1, 0)
    for _ in range(3):
        cluster.query(QUERY)
    key = cluster.overlay.space.hash_name("A")
    tree_before = cluster.overlay.tree(key)
    # Remove an internal node that has children; its orphans re-parent.
    internal = next(
        n for n in cluster.node_ids
        if tree_before.children_of(n) and n != tree_before.root
    )
    orphans = tree_before.children_of(internal)
    cluster.leave_node(internal)
    cluster.run_until_idle()
    tree_after = cluster.overlay.tree(key)
    for orphan in orphans:
        node = cluster.nodes[orphan]
        state = node.tree_state("(A = 1)")
        if state is None:
            continue
        assert state.known_parent == tree_after.parent_of(orphan)
    # And queries still work.
    expected = len(cluster.members_satisfying("A = 1"))
    assert cluster.query(QUERY).value == expected


def test_repeated_crash_recover_cycles() -> None:
    cluster = build(num_nodes=40)
    victim = cluster.node_ids[5]  # group member
    for _round in range(3):
        cluster.crash_node(victim, detection_delay=0.0)
        cluster.run_until_idle()
        assert cluster.query(QUERY).value == 9
        # Node rejoins with its attribute intact.
        cluster.network.recover(victim)
        cluster.overlay.add_node(victim)
        cluster.run_until_idle()
        assert cluster.query(QUERY).value == 10
