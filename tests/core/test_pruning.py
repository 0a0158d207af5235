"""Bandwidth behaviour of dynamic tree maintenance (Section 4).

These tests assert the *economic* properties of Figure 9: pruned trees make
repeat queries cheap, the Global policy pays per query but nothing for
churn, Always-Update pays per churn event but little per query, and the
adaptive policy tracks the better of the two.
"""

from __future__ import annotations

import random

import pytest

from repro.core import MoaraCluster
from repro.core.adapt import AdaptationConfig, MaintenancePolicy
from repro.core.moara_node import MoaraConfig
from repro.core import messages as mt
from repro.core.parser import parse_query
from repro.sim.latency import LANLatencyModel, WANLatencyModel
from repro.sim.network import Message


def make_cluster(policy: MaintenancePolicy, num_nodes: int = 128, **kwargs) -> MoaraCluster:
    config = MoaraConfig(adaptation=AdaptationConfig(policy=policy), **kwargs)
    cluster = MoaraCluster(num_nodes, seed=20, config=config)
    cluster.set_group("A", cluster.node_ids[:8], 1, 0)
    return cluster


QUERY = "SELECT COUNT(*) WHERE A = 1"


def test_first_query_reaches_everyone_then_prunes() -> None:
    cluster = make_cluster(MaintenancePolicy.ADAPTIVE)
    first = cluster.query(QUERY)
    assert first.value == 8
    # Every node received the first query (no pruning state existed).
    assert first.message_cost >= 2 * len(cluster)
    second = cluster.query(QUERY)
    assert second.value == 8
    # After pruning, cost is proportional to the group, not the system.
    assert second.message_cost < len(cluster) // 2
    assert second.message_cost >= 2 * 8


def test_global_policy_never_prunes() -> None:
    cluster = make_cluster(MaintenancePolicy.NEVER_UPDATE)
    costs = [cluster.query(QUERY).message_cost for _ in range(3)]
    for cost in costs:
        assert cost >= 2 * len(cluster)
    # ... and sends no maintenance traffic at all.
    assert cluster.stats.by_type.get(mt.STATUS_UPDATE, 0) == 0


def test_global_policy_churn_is_free() -> None:
    cluster = make_cluster(MaintenancePolicy.NEVER_UPDATE)
    cluster.query(QUERY)
    before = cluster.stats.total_messages
    rng = random.Random(1)
    for _ in range(50):
        node = rng.choice(cluster.node_ids)
        current = cluster.nodes[node].attributes.get("A", 0)
        cluster.set_attribute(node, "A", 1 - current)
    cluster.run_until_idle()
    assert cluster.stats.total_messages == before


def test_always_update_pays_for_churn() -> None:
    cluster = make_cluster(MaintenancePolicy.ALWAYS_UPDATE)
    cluster.query(QUERY)
    before = cluster.stats.total_messages
    node = cluster.node_ids[0]  # a group member: flipping changes its state
    cluster.set_attribute(node, "A", 0)
    cluster.run_until_idle()
    assert cluster.stats.total_messages > before


def test_adaptive_suppresses_repeated_churn() -> None:
    """A node whose attribute flaps falls silent (NO-UPDATE) instead of
    spamming its parent (the CPU-util-fluctuating-around-50% example)."""
    cluster = make_cluster(MaintenancePolicy.ADAPTIVE)
    cluster.query(QUERY)
    cluster.query(QUERY)
    flapper = cluster.node_ids[0]
    # Flap the attribute many times with no intervening queries.
    costs = []
    for i in range(12):
        before = cluster.stats.total_messages
        cluster.set_attribute(flapper, "A", i % 2)
        cluster.run_until_idle()
        costs.append(cluster.stats.total_messages - before)
    # The first flap may send updates; later flaps must go quiet.
    assert sum(costs[-6:]) <= 2, f"churn kept costing messages: {costs}"


def test_trees_go_silent_when_queries_stop() -> None:
    """Section 6.1: "Moara trees become silent and incur zero bandwidth
    cost if not used".

    Each node still in UPDATE state pays for its *first* post-query change
    (flipping to NO-UPDATE, possibly announcing NO-PRUNE so it keeps
    receiving queries); after every node has seen a change, continued churn
    must cost exactly nothing.
    """
    cluster = make_cluster(MaintenancePolicy.ADAPTIVE)
    for _ in range(3):
        cluster.query(QUERY)
    costs = []
    for _round in range(5):
        before = cluster.stats.total_messages
        for node in cluster.node_ids:  # churn touches every node
            current = cluster.nodes[node].attributes.get("A", 0)
            cluster.set_attribute(node, "A", 1 - current)
        cluster.run_until_idle()
        costs.append(cluster.stats.total_messages - before)
    assert costs[-1] == 0, f"churn traffic did not die out: {costs}"
    assert costs[-2] == 0, f"churn traffic did not die out: {costs}"


def test_adaptive_beats_global_under_query_heavy_load() -> None:
    adaptive = make_cluster(MaintenancePolicy.ADAPTIVE)
    global_ = make_cluster(MaintenancePolicy.NEVER_UPDATE)
    for cluster in (adaptive, global_):
        cluster.stats.reset()
        for _ in range(20):
            cluster.query(QUERY)
    assert adaptive.stats.total_messages < global_.stats.total_messages / 2


def test_global_beats_always_update_under_churn_heavy_load() -> None:
    always = make_cluster(MaintenancePolicy.ALWAYS_UPDATE)
    global_ = make_cluster(MaintenancePolicy.NEVER_UPDATE)
    rng = random.Random(3)
    flips = [
        (rng.choice(always.node_ids), i % 2) for i in range(100)
    ]
    for cluster in (always, global_):
        cluster.query(QUERY)  # create state everywhere
        cluster.stats.reset()
        for node_index, value in flips:
            cluster.set_attribute(node_index, "A", value)
            cluster.run_until_idle()
    assert global_.stats.total_messages == 0
    assert always.stats.total_messages > 0


def test_status_updates_flow_to_parents_only() -> None:
    """Maintenance traffic is strictly child->parent along the tree."""
    cluster = make_cluster(MaintenancePolicy.ADAPTIVE, num_nodes=32)
    cluster.query(QUERY)
    key = cluster.overlay.space.hash_name("A")
    tree = cluster.overlay.tree(key)
    for node_id, node in cluster.nodes.items():
        for key in node.tree_keys():
            state = node.tree_state(key)
            if state.sent_update_set is not None:
                assert state.known_parent == tree.parent_of(node_id)


# ----------------------------------------------------------------------
# status reports raised while handling a query ride the reply
# ----------------------------------------------------------------------


def test_cold_query_costs_two_messages_per_node() -> None:
    """Forming a group tree: every node below the root receives the query
    once and answers once, and the PRUNE that nine in ten of them raise
    travels on that answer, not beside it (it used to be a third message:
    2.88 per created state on this overlay)."""
    cluster = MoaraCluster(512, seed=5)
    rng = random.Random(1)
    groups = [f"g{i}" for i in range(8)]
    for name in groups:
        cluster.set_group(name, rng.sample(cluster.node_ids, 51))
    cluster.run_until_idle()
    cluster.stats.reset()
    for name in groups:
        assert cluster.query(f"SELECT COUNT(*) WHERE {name} = true").value == 51
    edges = len(cluster) - 1
    assert dict(cluster.stats.by_type) == {
        mt.FRONTEND_QUERY: 8,
        mt.QUERY: 8 * edges,
        mt.QUERY_RESPONSE: 8 * edges,
        mt.FRONTEND_RESPONSE: 8,
    }
    # The reports did land: the second query is group-sized.
    assert cluster.query("SELECT COUNT(*) WHERE g0 = true").message_cost < len(cluster) // 2


def _assert_parents_know_what_children_sent(cluster: MoaraCluster) -> int:
    """At quiesce the parent's record of a child is what the child believes
    it last sent -- whether that travelled alone or on a reply."""
    checked = 0
    for node_id, node in cluster.nodes.items():
        for pred_key in node.tree_keys():
            state = node.tree_state(pred_key)
            parent = cluster.overlay.parent(node_id, state.tree_key)
            if parent is None:
                continue
            parent_state = cluster.nodes[parent].tree_state(pred_key)
            info = parent_state.children.get(node_id) if parent_state else None
            assert (info.update_set if info else None) == state.sent_update_set
            checked += state.sent_update_set is not None
    return checked


_LATENCY_MODELS = {
    "zero": lambda seed: None,
    "lan": lambda seed: LANLatencyModel(seed=seed),
    "wan": lambda seed: lambda ids: WANLatencyModel(ids, seed=seed),  # unfused two-phase delivery
}


@pytest.mark.parametrize("latency", list(_LATENCY_MODELS))
@pytest.mark.parametrize("policy", list(MaintenancePolicy))
@pytest.mark.parametrize("threshold", [1, 2, 3])
def test_parent_view_matches_what_children_sent(threshold, policy, latency) -> None:
    for seed in (3, 12):
        cluster = MoaraCluster(
            160,
            seed=seed,
            config=MoaraConfig(
                threshold=threshold, adaptation=AdaptationConfig(policy=policy)
            ),
            latency_model=_LATENCY_MODELS[latency](seed),
        )
        rng = random.Random(seed)
        ids = cluster.node_ids
        for name, size in (("A", 6), ("B", 40)):
            cluster.set_group(name, rng.sample(ids, size), 1, 0)
        for _ in range(6):
            for name in "AB":
                cluster.query(f"SELECT COUNT(*) WHERE {name} = 1")
            for _ in range(12):
                cluster.set_attribute(rng.choice(ids), rng.choice("AB"), rng.randint(0, 1))
            cluster.run_until_idle()
            checked = _assert_parents_know_what_children_sent(cluster)
        if policy is MaintenancePolicy.NEVER_UPDATE:
            assert checked == 0 and mt.STATUS_UPDATE not in cluster.stats.by_type
        else:
            assert checked > 100


def _leaf_outside_the_group(cluster: MoaraCluster) -> tuple[int, int]:
    tree = cluster.overlay.tree(cluster.overlay.space.hash_name("A"))
    for node_id in cluster.node_ids:
        if (
            not tree.children_of(node_id)
            and node_id != tree.root
            and not cluster.nodes[node_id].attributes.get("A", 0)
        ):
            return node_id, tree.parent_of(node_id)
    raise AssertionError("no such leaf")


def _query_message(src: int, dst: int, n: int) -> Message:
    """A hand-built ``QUERY`` for share ``n`` of a test-only origin, the
    oldest share of that origin still unheard."""
    query = parse_query(QUERY)
    return Message(
        mt.QUERY,
        src,
        dst,
        {
            "qid": f"q-{n}",
            "seq": 1,
            "query": query,
            "predicate": query.predicate,
            "share": ("test", n, n),
        },
    )


def test_late_reply_still_applies_its_report() -> None:
    """A reply that arrives after its aggregation was resolved (child
    timeout, Section 7) answers nothing any more -- but the report it
    carries is news about the child, not about the query."""
    cluster = make_cluster(MaintenancePolicy.ADAPTIVE, num_nodes=64, child_timeout=0.5)
    leaf_id, parent_id = _leaf_outside_the_group(cluster)
    leaf, parent = cluster.nodes[leaf_id], cluster.nodes[parent_id]
    leaf.handle_message(_query_message(parent_id, leaf_id, 1))
    cluster.run_until_idle()
    assert not parent._pending, "nothing is waiting for this reply"
    assert leaf.tree_state("(A = 1)").sent_update_set == frozenset()
    assert parent.tree_state("(A = 1)").children[leaf_id].update_set == frozenset()
    assert dict(cluster.stats.by_type) == {mt.QUERY_RESPONSE: 1}


def test_handler_that_raises_leaves_no_report_held(monkeypatch) -> None:
    cluster = make_cluster(MaintenancePolicy.ADAPTIVE, num_nodes=64)
    leaf_id, parent_id = _leaf_outside_the_group(cluster)
    leaf = cluster.nodes[leaf_id]

    def boom(answered, n, query):
        raise RuntimeError("boom")

    monkeypatch.setattr(leaf, "_local_contribution", boom)
    with pytest.raises(RuntimeError, match="boom"):
        # Raises its PRUNE, then fails before the reply that would carry it.
        leaf.handle_message(_query_message(parent_id, leaf_id, 1))
    assert leaf._held is None and leaf._holding is False
    # The report was recorded as sent, so it went out (on its own).
    assert leaf.tree_state("(A = 1)").sent_update_set == frozenset()
    assert dict(cluster.stats.by_type) == {mt.STATUS_UPDATE: 1}
    monkeypatch.undo()
    # The next handler starts clean: an ordinary reply, nothing riding it.
    reply = []
    monkeypatch.setattr(cluster.network, "send", lambda *args: reply.append(args))
    leaf.handle_message(_query_message(parent_id, leaf_id, 2))
    [(_, dst, mtype, payload)] = reply
    assert (dst, mtype) == (parent_id, mt.QUERY_RESPONSE)
    assert "update_set" not in payload
