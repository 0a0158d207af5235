"""Separate-query-plane behaviour (Section 5).

The key claims: with threshold > 1 the number of nodes touched by a query
approaches O(m) for an m-member group -- independent of the system size --
while threshold = 1 (the plain pruned tree) pays O(m log N); and raising
the threshold trades query cost against update cost.

These tests use 1-bit routing digits (binary Pastry) so trees are deep
enough for the distinction to show at test-sized overlays, and spread group
members uniformly over the ring (adjacent IDs share ancestor paths and
would understate internal-node costs).
"""

from __future__ import annotations

import random


from repro.core import MoaraCluster
from repro.core import messages as mt
from repro.core.moara_node import MoaraConfig
from repro.pastry.idspace import IdSpace

QUERY = "SELECT COUNT(*) WHERE A = 1"
DEEP_SPACE = IdSpace(bits=32, digit_bits=1)


def build(num_nodes: int, threshold: int, group: int, seed: int = 30) -> MoaraCluster:
    cluster = MoaraCluster(
        num_nodes,
        seed=seed,
        config=MoaraConfig(threshold=threshold),
        space=DEEP_SPACE,
    )
    members = random.Random(seed + 1).sample(cluster.node_ids, group)
    cluster.set_group("A", members, 1, 0)
    return cluster


def warm_to_steady_state(cluster: MoaraCluster, max_rounds: int = 40) -> None:
    """Query repeatedly until per-query cost stabilizes.

    Pruning information propagates one tree level per query (a query only
    reaches nodes that earlier queries registered), so convergence takes
    about `tree height` rounds.
    """
    last_cost = None
    stable = 0
    for _ in range(max_rounds):
        cost = cluster.query(QUERY).message_cost
        if cost == last_cost:
            stable += 1
            if stable >= 2:
                return
        else:
            stable = 0
        last_cost = cost


def steady_state_query_messages(cluster: MoaraCluster) -> int:
    """QUERY+FRONTEND_QUERY messages for one steady-state query."""
    warm_to_steady_state(cluster)
    before = cluster.stats.snapshot()
    result = cluster.query(QUERY)
    assert result.value == len(cluster.members_satisfying("A = 1"))
    delta = cluster.stats.delta_since(before)
    return delta.messages_of(mt.QUERY, mt.FRONTEND_QUERY)


def test_sqp_bounds_query_cost_by_group_size() -> None:
    """Section 5 overhead analysis: <= 2m nodes receive the query,
    independent of system size."""
    group = 8
    for num_nodes in (64, 256, 1024):
        cluster = build(num_nodes, threshold=2, group=group)
        query_messages = steady_state_query_messages(cluster)
        assert query_messages <= 2 * group + 1, (
            f"N={num_nodes}: {query_messages} query messages"
        )


def test_plain_pruned_tree_grows_with_system_size() -> None:
    """threshold=1 keeps O(m log N) internal nodes on the query path."""
    group = 8
    costs = {
        num_nodes: steady_state_query_messages(build(num_nodes, 1, group))
        for num_nodes in (128, 2048)
    }
    assert costs[2048] > costs[128], costs
    # but still far below a global broadcast
    assert costs[2048] < 2048 // 8


def test_sqp_beats_plain_tree() -> None:
    group, num_nodes = 8, 512
    sqp = steady_state_query_messages(build(num_nodes, 2, group))
    plain = steady_state_query_messages(build(num_nodes, 1, group))
    assert sqp < plain, (sqp, plain)


def test_steady_state_sends_no_maintenance() -> None:
    """With zero churn, repeated queries eventually stop producing any
    status traffic (all update costs were paid on the first queries)."""
    cluster = build(256, threshold=2, group=8)
    warm_to_steady_state(cluster)
    before = cluster.stats.snapshot()
    cluster.query(QUERY)
    delta = cluster.stats.delta_since(before)
    assert delta.messages_of(mt.STATUS_UPDATE, mt.STATE_SYNC) == 0


def test_higher_threshold_increases_update_traffic() -> None:
    """Section 5: "Having a high value of threshold ... comes at the expense
    of a higher update traffic"."""
    group, num_nodes = 32, 256
    updates = {}
    for threshold in (2, 16):
        cluster = build(num_nodes, threshold=threshold, group=group, seed=31)
        warm_to_steady_state(cluster)
        before = cluster.stats.snapshot()
        # Rotate group membership to generate updateSet churn.
        members = sorted(cluster.members_satisfying("A = 1"))
        outsiders = [n for n in cluster.node_ids if n not in set(members)]
        for old, new in zip(members, outsiders[:group]):
            cluster.set_attribute(old, "A", 0)
            cluster.set_attribute(new, "A", 1)
        cluster.run_until_idle()
        updates[threshold] = cluster.stats.delta_since(before).messages_of(
            mt.STATUS_UPDATE
        )
    assert updates[16] >= updates[2], updates


def test_query_still_correct_across_thresholds() -> None:
    for threshold in (1, 2, 4, 16):
        cluster = build(128, threshold=threshold, group=10, seed=32)
        for _ in range(3):
            assert cluster.query(QUERY).value == 10


def test_paper_figure5_updatesets() -> None:
    """Figure 5's invariants for threshold=1, nodes in UPDATE state:

    * an internal node with a non-empty qSet reports {own id} (threshold=1
      collapses immediately), so queries walk the tree edge by edge;
    * nodes whose subtree is empty of satisfying nodes report PRUNE.
    """
    cluster = build(64, threshold=1, group=6, seed=33)
    cluster.query(QUERY)
    cluster.query(QUERY)
    key = cluster.overlay.space.hash_name("A")
    tree = cluster.overlay.tree(key)
    pred_key = "(A = 1)"
    for node_id, node in cluster.nodes.items():
        state = node.tree_state(pred_key)
        if state is None or node_id == tree.root:
            continue
        if not state.adaptor.update:
            continue
        children = cluster.overlay.children(node_id, key)
        if state.q_set(children):
            assert state.computed_update_set == frozenset([node_id])
        else:
            assert state.computed_update_set == frozenset()


def test_bypassed_nodes_forward_sets_upward() -> None:
    """With threshold=2, a non-satisfying internal node with a single
    satisfying descendant exports that descendant's id instead of its own
    (the short-circuiting of Figure 5)."""
    cluster = build(512, threshold=2, group=4, seed=34)
    for _ in range(4):
        cluster.query(QUERY)
    key = cluster.overlay.space.hash_name("A")
    tree = cluster.overlay.tree(key)
    pred_key = "(A = 1)"
    bypassed = 0
    for node_id, node in cluster.nodes.items():
        state = node.tree_state(pred_key)
        if state is None or node_id == tree.root:
            continue
        if state.sent_update_set and node_id not in state.sent_update_set:
            bypassed += 1
            # The exported ids are strictly descendants of this node.
            subtree = set(tree.subtree_nodes(node_id))
            assert set(state.sent_update_set) <= subtree
    assert bypassed > 0, "expected at least one short-circuited internal node"


def test_report_to_a_bypassed_parent_travels_alone_ahead_of_the_reply() -> None:
    """A node the separate query plane reaches directly answers to the
    ancestor that forwarded the query, but reports to its DHT parent: the
    two go to different nodes, so the report cannot ride the reply.  It
    leaves as a STATUS_UPDATE, before the reply, as it always did."""
    cluster = build(512, threshold=2, group=4, seed=34)
    warm_to_steady_state(cluster)
    tree = cluster.overlay.tree(cluster.overlay.space.hash_name("A"))
    pred_key = "(A = 1)"
    sends: list[tuple] = []
    real_send = cluster.network.send

    def tap(src, dst, mtype, payload=None):
        sends.append((src, dst, mtype, payload))
        return real_send(src, dst, mtype, payload)

    cluster.network.send = tap
    send_many = cluster.network.send_many
    cluster.network.send_many = lambda src, dsts, mtype, payload=None: (
        sends.extend((src, dst, mtype, payload) for dst in dsts),
        send_many(src, dsts, mtype, payload),
    )
    cluster.query(QUERY)
    member, forwarder = next(
        (dst, src)
        for src, dst, mtype, _ in sends
        if mtype == mt.QUERY
        and src != tree.parent_of(dst)
        and cluster.nodes[dst].tree_state(pred_key).local_sat
        and not cluster.nodes[dst]._forward_targets(cluster.nodes[dst].tree_state(pred_key))
    )
    parent = tree.parent_of(member)
    # Leave the group silently (the change flips the node to NO-UPDATE),
    # so the next query still reaches it and finds it not contributing:
    # that flips it back to UPDATE, and it PRUNEs while handling the query.
    cluster.set_attribute(member, "A", 0)
    cluster.run_until_idle()
    del sends[:]
    assert cluster.query(QUERY).value == 3
    from_member = [(dst, mtype, payload) for src, dst, mtype, payload in sends if src == member]
    assert [(dst, mtype) for dst, mtype, _ in from_member] == [
        (parent, mt.STATUS_UPDATE),
        (forwarder, mt.QUERY_RESPONSE),
    ]
    assert from_member[0][2]["update_set"] == frozenset()
    assert "update_set" not in from_member[1][2]
    cluster.run_until_idle()
    assert cluster.nodes[parent].tree_state(pred_key).children[member].update_set == frozenset()
