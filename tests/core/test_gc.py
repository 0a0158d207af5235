"""State garbage collection (Section 4, "State Maintenance")."""

from __future__ import annotations

from repro.core import MoaraCluster

QUERY = "SELECT COUNT(*) WHERE A = 1"


def build() -> MoaraCluster:
    cluster = MoaraCluster(32, seed=80)
    cluster.set_group("A", cluster.node_ids[:5], 1, 0)
    for _ in range(2):
        cluster.query(QUERY)
    return cluster


def test_gc_refused_while_in_update_state() -> None:
    cluster = build()
    refused = 0
    for node in cluster.nodes.values():
        state = node.tree_state("(A = 1)")
        if state is not None and state.adaptor.update:
            assert node.garbage_collect("(A = 1)") is False
            refused += 1
    assert refused > 0


def test_gc_of_no_update_receiving_nodes_is_safe() -> None:
    """Nodes in NO-UPDATE that still receive queries can drop state; the
    next query recreates it and answers stay correct."""
    cluster = build()
    collected = 0
    for node in cluster.nodes.values():
        state = node.tree_state("(A = 1)")
        if state is None:
            continue
        if not state.adaptor.update and state.would_receive_queries():
            assert node.garbage_collect("(A = 1)") is True
            collected += 1
    assert cluster.query(QUERY).value == 5
    assert cluster.query(QUERY).value == 5


def test_gc_refused_when_pruned_out() -> None:
    """A node whose parent prunes it must NOT drop state while silent --
    it would never hear queries again and could miss becoming relevant."""
    cluster = build()
    for node in cluster.nodes.values():
        state = node.tree_state("(A = 1)")
        if state is None:
            continue
        if not state.adaptor.update and not state.would_receive_queries():
            assert node.garbage_collect("(A = 1)") is False


def test_gc_unknown_predicate() -> None:
    cluster = build()
    node = cluster.nodes[cluster.node_ids[0]]
    assert node.garbage_collect("(no-such-pred = 1)") is False


def test_answers_correct_after_mass_gc_and_churn() -> None:
    cluster = build()
    for node in cluster.nodes.values():
        node.garbage_collect("(A = 1)")
    # Group changes while many nodes have no state at all.
    cluster.set_group("A", cluster.node_ids[10:22], 1, 0)
    cluster.run_until_idle()
    assert cluster.query(QUERY).value == 12
