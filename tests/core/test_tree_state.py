"""Unit tests for per-predicate tree state (Sections 4-5 derivations)."""

from __future__ import annotations

import gc
import random
import tracemalloc

from repro.core import MoaraCluster
from repro.core.adapt import AdaptationConfig, Adaptor
from repro.core.predicates import Comparison, SimplePredicate
from repro.core.tree_state import ChildInfo, PredicateTreeState

PRED = SimplePredicate("A", Comparison.EQ, 1)


def make_state(
    node_id: int = 10, threshold: int = 2, tree_key: int = 123
) -> PredicateTreeState:
    state = PredicateTreeState(
        predicate=PRED,
        tree_key=tree_key,
        node_id=node_id,
        adaptor=Adaptor(AdaptationConfig()),
        threshold=threshold,
    )
    state.self_set = frozenset([node_id])
    return state


def test_silent_children_must_receive_queries() -> None:
    """Procedure 1's default: no state on a child means forward to it."""
    state = make_state()
    children = [1, 2, 3]
    assert state.q_set(children) == {1, 2, 3}
    assert state.forward_targets(children) == {1, 2, 3}
    assert state.sat(children) is True


def test_pruned_children_are_skipped() -> None:
    state = make_state()
    state.record_child_report(1, frozenset(), 0)  # PRUNE
    state.record_child_report(2, frozenset([2]), 1)  # NO-PRUNE
    assert state.forward_targets([1, 2]) == {2}
    assert state.q_set([1, 2]) == {2}


def test_bypassed_descendants_in_qset() -> None:
    """Section 5: a child's updateSet may carry grandchildren directly."""
    state = make_state()
    state.record_child_report(1, frozenset([101, 102]), 2)
    assert state.forward_targets([1]) == {101, 102}


def test_local_satisfaction_joins_qset_but_not_targets() -> None:
    state = make_state()
    state.local_sat = True
    state.record_child_report(1, frozenset(), 0)
    assert state.q_set([1]) == {state.node_id}
    # We never forward a query to ourselves.
    assert state.forward_targets([1]) == set()
    assert state.sat([1]) is True


def test_update_set_below_threshold_is_qset() -> None:
    state = make_state(threshold=3)
    state.record_child_report(1, frozenset([101]), 1)
    state.record_child_report(2, frozenset(), 0)
    assert state.compute_update_set([1, 2]) == frozenset([101])


def test_update_set_at_threshold_collapses_to_self() -> None:
    state = make_state(threshold=2)
    state.record_child_report(1, frozenset([101]), 1)
    state.record_child_report(2, frozenset([102]), 1)
    assert state.compute_update_set([1, 2]) == frozenset([state.node_id])


def test_threshold_one_always_collapses_when_nonempty() -> None:
    """threshold=1 degenerates to the plain Section 4 pruned tree."""
    state = make_state(threshold=1)
    state.record_child_report(1, frozenset([101]), 1)
    assert state.compute_update_set([1]) == frozenset([state.node_id])
    # Empty qSet stays empty (PRUNE).
    state.record_child_report(1, frozenset(), 0)
    assert state.compute_update_set([1]) == frozenset()


def test_prune_requires_update_state() -> None:
    """Procedure 3: update = 0 implies prune = 0."""
    state = make_state()
    state.record_child_report(1, frozenset(), 0)
    assert state.sat([1]) is False
    assert state.prune([1]) is False  # NO-UPDATE default
    state.adaptor.update = True
    assert state.prune([1]) is True
    state.local_sat = True
    assert state.prune([1]) is False


def test_effective_sent_set_defaults_to_self() -> None:
    state = make_state()
    assert state.effective_sent_set() == frozenset([state.node_id])
    assert state.would_receive_queries() is True
    state.sent_update_set = frozenset()
    assert state.would_receive_queries() is False
    state.sent_update_set = frozenset([101])
    assert state.would_receive_queries() is False
    state.sent_update_set = frozenset([state.node_id])
    assert state.would_receive_queries() is True


def test_subtree_recv_estimates() -> None:
    state = make_state()
    # Root always receives; silent children estimated at 1 each.
    assert state.subtree_recv([1, 2], is_root=True) == 3
    state.record_child_report(1, frozenset([101]), 5)
    assert state.subtree_recv([1, 2], is_root=True) == 7
    # A non-root that is bypassed does not count itself.
    state.sent_update_set = frozenset([101])
    assert state.subtree_recv([1, 2], is_root=False) == 6


def test_forget_children() -> None:
    state = make_state()
    state.record_child_report(1, frozenset([1]), 1)
    state.record_child_report(2, frozenset([2]), 1)
    assert state.forget_children({1, 99}) is True
    assert state.forget_children({1}) is False
    assert set(state.children) == {2}


def test_child_report_partial_updates() -> None:
    state = make_state()
    state.record_child_report(1, frozenset([1]), None)
    assert state.children[1].update_set == frozenset([1])
    assert state.children[1].subtree_recv == 1  # default retained
    state.record_child_report(1, None, 7)
    assert state.children[1].update_set == frozenset([1])  # retained
    assert state.children[1].subtree_recv == 7


def test_child_info_defaults() -> None:
    info = ChildInfo()
    assert info.update_set is None
    assert info.subtree_recv == 1


def test_prune_reports_share_one_instance() -> None:
    a, b = make_state(), make_state(tree_key=456)
    a.record_child_report(1, frozenset(), 0)
    b.record_child_report(2, frozenset(), 0)
    assert a.children[1] is b.children[2] == ChildInfo(frozenset(), 0)
    # A changed report replaces the entry; the shared one is untouched.
    versions = (a.report_version, a.recv_version)
    a.record_child_report(1, None, 3)
    assert a.children[1] == ChildInfo(frozenset(), 3)
    assert b.children[2] == ChildInfo(frozenset(), 0)
    assert (a.report_version, a.recv_version) == (versions[0], versions[1] + 1)
    # An unchanged report bumps nothing.
    a.record_child_report(1, frozenset(), 3)
    assert (a.report_version, a.recv_version) == (versions[0], versions[1] + 1)


def _pruned_leaf_state(**overrides) -> PredicateTreeState:
    state = make_state()
    state.adaptor.record_query(False)  # ADAPTIVE: a non-member goes UPDATE
    state.sent_update_set = frozenset()
    state.last_seen_seq = 4
    state.known_parent = 77
    for name, value in overrides.items():
        setattr(state, name, value)
    return state


def test_pruned_leaf_compacts_and_expands_to_the_same_state() -> None:
    state = _pruned_leaf_state()
    leaf = state.compact()
    assert leaf is not None
    blank = make_state()
    blank.pred_key = state.pred_key
    again = leaf.expand(blank)
    for name in (
        "predicate",
        "tree_key",
        "local_sat",
        "children",
        "sent_update_set",
        "computed_update_set",
        "last_seen_seq",
        "known_parent",
        "report_version",
        "recv_version",
    ):
        assert getattr(again, name) == getattr(state, name), name
    assert again.adaptor.update and again.adaptor.window == state.adaptor.window


def test_only_the_pruned_leaf_shape_compacts() -> None:
    assert _pruned_leaf_state(local_sat=True).compact() is None
    assert _pruned_leaf_state(sent_update_set=None).compact() is None
    assert _pruned_leaf_state(sent_update_set=frozenset([10])).compact() is None
    assert _pruned_leaf_state(computed_update_set=frozenset([3])).compact() is None
    assert _pruned_leaf_state(cached_children=[3]).compact() is None
    assert _pruned_leaf_state(report_version=1).compact() is None
    assert _pruned_leaf_state(recv_version=1).compact() is None
    no_update = _pruned_leaf_state()
    no_update.adaptor = Adaptor(AdaptationConfig())
    assert no_update.compact() is None


# ----------------------------------------------------------------------
# footprint: most states are a non-member leaf's, and those share their
# (empty) values instead of owning a container apiece
# ----------------------------------------------------------------------


def test_states_share_their_empty_and_own_id_values() -> None:
    a, b = make_state(), make_state(tree_key=456)
    self_set = b.self_set = a.self_set  # as one node gives all its states
    assert a.children is b.children and not a.children
    assert a.forward_targets(()) is b.forward_targets(())
    assert a.compute_update_set(()) is b.compute_update_set(()) == frozenset()
    assert a.compute_update_set([1, 2, 3]) is self_set  # collapsed hub
    a.local_sat = True
    assert a.compute_update_set(()) is self_set  # a member leaf
    assert a.effective_sent_set() is self_set
    # The first report gives a state its own map; the shared one stays empty.
    a.record_child_report(1, frozenset(), 0)
    assert set(a.children) == {1} and not b.children
    assert a.forget_children({1}) is True and not a.children


def test_retained_bytes_per_tree_state() -> None:
    """Forming 8 group trees over 512 nodes creates 4096 states; what the
    process retains for them (state, adaptor, the parent's ChildInfo, memo
    keys, duplicate-suppression entries) stays near 1 KB apiece.  It was
    2.5 KB with a deque window and private empty sets per state."""
    rng = random.Random(1)
    cluster = MoaraCluster(512, seed=5)
    groups = [f"g{i}" for i in range(8)]
    for name in groups:
        cluster.set_group(name, rng.sample(cluster.node_ids, 51))
    cluster.run_until_idle()
    cluster.query("SELECT COUNT(*) WHERE warm = true")  # per-tree, not per-state, set-up
    before = sum(len(node.tree_keys()) for node in cluster.nodes.values())
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for name in groups:
            assert cluster.query(f"SELECT COUNT(*) WHERE {name} = true").value == 51
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    created = sum(len(node.tree_keys()) for node in cluster.nodes.values()) - before
    assert created == 8 * 512
    assert retained / created <= 1300


def test_node_keeps_the_shared_key_layout() -> None:
    """CPython 3.11 shares one instance-dict key table among a class's
    instances only up to 29 attributes; one more costs every node 1.3 KB
    and slows each ``self.`` read in the message handlers."""
    node = next(iter(MoaraCluster(4, seed=1).nodes.values()))
    assert len(vars(node)) <= 29


def test_retained_blocks_per_created_state() -> None:
    """One cold query on each of 4 groups of 50 over 1 000 nodes creates
    a state on every node, and 89 % of them belong to pruned leaves
    outside the group.  Those keep a six-field record, their parents a
    shared PRUNE report, and the duplicate memory one flat entry, so
    what the process retains per created state is under 3 allocations
    (8.5 when each kept a full state, an adaptor, memo-key tuples, a
    mutable child report and a per-predicate duplicate dict).  Bytes
    are reported beside the bound, not asserted: they vary more across
    Python versions than the allocation count does."""
    rng = random.Random(7)
    cluster = MoaraCluster(1000, seed=7)
    groups = [f"g{i}" for i in range(4)]
    for name in groups:
        cluster.set_group(name, rng.sample(cluster.node_ids, 50))
    cluster.run_until_idle()
    cluster.query("SELECT COUNT(*) WHERE warm = true")  # per-tree set-up
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.take_snapshot()
        for name in groups:
            assert cluster.query(f"SELECT COUNT(*) WHERE {name} = true").value == 50
        gc.collect()
        stats = tracemalloc.take_snapshot().compare_to(base, "filename")
    finally:
        tracemalloc.stop()
    created = 4 * 1000  # a cold query's first walk reaches every node
    blocks = sum(stat.count_diff for stat in stats) / created
    size = sum(stat.size_diff for stat in stats) / created
    assert blocks <= 4.5, f"{blocks:.2f} blocks ({size:.0f} B) per created state"
    assert sum(len(node.tree_keys()) for node in cluster.nodes.values()) == 5 * 1000
