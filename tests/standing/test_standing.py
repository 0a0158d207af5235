"""Unit tests for the standing-query plane (repro.standing).

Covers the lifecycle contract documented in docs/STANDING_QUERIES.md:
register → deltas → cancel / lease expiry, the ordering contract
(monotone ``update_seq``), enmeshed OR-cover dedup, planner-degenerate
covers (global, unsatisfiable), churn (crash/join/leave) convergence,
and subscription-table hygiene (no leaks anywhere after teardown).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines import centralized_answer
from repro.campaigns import values_equal
from repro.core import MoaraCluster
from repro.core import messages as mt
from repro.sim.network import Message

NUM_NODES = 30


def _live_stores(cluster: MoaraCluster):
    return [
        (node_id, node.attributes)
        for node_id, node in cluster.nodes.items()
        if node_id in cluster.overlay and cluster.network.is_alive(node_id)
    ]


def _assert_matches(cluster: MoaraCluster, handle) -> None:
    expected = centralized_answer(handle.query, _live_stores(cluster))
    assert values_equal(handle.current_value(), expected), handle.query.canonical()


def _node_leaks(cluster: MoaraCluster) -> dict:
    return {
        node_id: node.standing.sub_ids()
        for node_id, node in cluster.nodes.items()
        if len(node.standing)
    }


@pytest.fixture
def cluster() -> MoaraCluster:
    cluster = MoaraCluster(NUM_NODES, seed=11)
    for index, node_id in enumerate(cluster.node_ids):
        cluster.set_attribute(node_id, "load", float(index % 9))
        cluster.set_attribute(
            node_id, "dc", "east" if index % 3 == 0 else "west"
        )
    cluster.run_until_idle()
    return cluster


def test_register_folds_to_centralized_answer(cluster) -> None:
    frontend = cluster.frontends[0]
    handle = frontend.subscribe("SELECT COUNT(*) WHERE load >= 4")
    cluster.run_until_idle()
    assert handle.active and handle.update_seq >= 1
    _assert_matches(cluster, handle)


def test_attribute_churn_pushes_deltas(cluster) -> None:
    frontend = cluster.frontends[0]
    handle = frontend.subscribe("SELECT SUM(load) WHERE dc = 'east'")
    cluster.run_until_idle()
    seq_before = handle.update_seq
    for node_id in cluster.node_ids[:5]:
        cluster.set_attribute(node_id, "load", 7.5)
    cluster.run_until_idle()
    assert handle.update_seq > seq_before
    _assert_matches(cluster, handle)


def test_update_seq_is_strictly_monotone(cluster) -> None:
    frontend = cluster.frontends[0]
    handle = frontend.subscribe("SELECT AVG(load) WHERE dc = 'west'")
    for step in range(8):
        cluster.set_attribute(
            cluster.node_ids[step], "load", float(step * 2)
        )
        cluster.run_until_idle()
    seqs = [seq for seq, _ in handle.updates]
    assert seqs == sorted(set(seqs)), "update_seq must be strictly monotone"


def test_enmeshed_or_cover_deduplicates_contributions(cluster) -> None:
    # Nodes satisfying both disjuncts must contribute exactly once.
    frontend = cluster.frontends[0]
    handle = frontend.subscribe(
        "SELECT COUNT(*) WHERE dc = 'east' OR load >= 3"
    )
    cluster.run_until_idle()
    assert len(handle.cover) == 2
    _assert_matches(cluster, handle)


def test_global_group_cover(cluster) -> None:
    frontend = cluster.frontends[0]
    handle = frontend.subscribe("SELECT AVG(load)")
    cluster.run_until_idle()
    _assert_matches(cluster, handle)


def test_unsatisfiable_predicate_is_static(cluster) -> None:
    frontend = cluster.frontends[0]
    handle = frontend.subscribe(
        "SELECT COUNT(*) WHERE load < 2 AND load > 8"
    )
    cluster.run_until_idle()
    assert handle.static
    assert handle.current().short_circuited
    assert handle.current_value() == 0
    assert _node_leaks(cluster) == {}, "static handles install nothing"
    frontend.standing.cancel(handle)
    assert not handle.active


def test_cancel_clears_every_node_table(cluster) -> None:
    frontend = cluster.frontends[0]
    handle = frontend.subscribe("SELECT COUNT(*) WHERE dc = 'east'")
    cluster.run_until_idle()
    assert any(len(node.standing) for node in cluster.nodes.values())
    frontend.standing.cancel(handle)
    cluster.run_until_idle()
    assert not handle.active
    assert _node_leaks(cluster) == {}
    assert frontend.standing.active_sub_ids() == set()


@pytest.mark.parametrize("fired_before_cancel", [0, 7, 19, 40, 77])
def test_cancel_with_deltas_in_flight_floods_once(fired_before_cancel) -> None:
    """A cancel walks down the tree while deltas from earlier writes walk
    up it, and updates already on their way to the front-end arrive after
    it forgot the subscription.  Neither may bring state back or start a
    second flood behind the first."""
    cluster = MoaraCluster(200, seed=6)
    for index, node_id in enumerate(cluster.node_ids):
        cluster.set_attribute(node_id, "load", float(index % 9))
        cluster.set_attribute(node_id, "dc", "east" if index % 3 == 0 else "west")
    cluster.run_until_idle()
    frontend = cluster.frontends[0]
    handle = frontend.subscribe("SELECT SUM(load) WHERE dc = 'east' OR load > 6")
    cluster.run_until_idle()
    assert len(handle.cover) == 2
    cluster.stats.reset()
    for node_id in cluster.node_ids[::7]:
        cluster.set_attribute(node_id, "load", 100.0)
    cluster.engine.run(max_events=fired_before_cancel)
    assert cluster.engine.pending, "the write deltas must still be in flight"
    frontend.standing.cancel(handle)
    cluster.run_until_idle()
    assert _node_leaks(cluster) == {}
    # One flood per cover tree: the front-end's message to the root, then
    # one per tree edge.
    assert cluster.stats.by_type[mt.SUB_CANCEL] == len(handle.cover) * len(cluster)


def test_update_for_a_never_registered_id_is_cancelled_at_the_root(cluster) -> None:
    """A front-end that lost its state (restart) must still be able to
    stop a root that keeps pushing: one cancel, as before."""
    first, second = cluster.frontends[0], cluster.add_frontend()
    handle = first.subscribe("SELECT COUNT(*) WHERE dc = 'east'")
    cluster.run_until_idle()
    assert _node_leaks(cluster)
    update = Message(
        mt.STANDING_UPDATE,
        src=first.standing._root_for(handle.query.predicate),
        dst=second.node_id,
        payload={
            "sub_id": handle.sub_id,
            "pred_key": handle.cover[0],
            "predicate": handle.query.predicate,
            "partial": None,
            "contributors": 0,
            "seq": 1,
        },
    )
    cluster.stats.reset()
    second.standing.on_update(update)
    second.standing.on_update(update)
    cluster.run_until_idle()
    assert cluster.stats.by_type[mt.SUB_CANCEL] == 2 * len(cluster)
    assert _node_leaks(cluster) == {}


@pytest.mark.parametrize("remembered", [8, None])
def test_cancelling_many_subscriptions_with_deltas_in_flight_leaks_nothing(
    monkeypatch, remembered
) -> None:
    """The front-end's teardown memory is bounded; the node side keeps
    none.  Cancelling more subscriptions than the memory holds may cost
    redundant floods, never state left behind."""
    from repro.standing import manager

    if remembered is not None:
        monkeypatch.setattr(manager, "MAX_TORN_DOWN", remembered)
    cluster = MoaraCluster(200, seed=6)
    for index, node_id in enumerate(cluster.node_ids):
        cluster.set_attribute(node_id, "load", float(index % 9))
        cluster.set_attribute(node_id, "dc", "east" if index % 3 == 0 else "west")
    cluster.run_until_idle()
    frontend = cluster.frontends[0]
    handles = [
        frontend.subscribe("SELECT SUM(load) WHERE dc = 'east'") for _ in range(100)
    ]
    cluster.run_until_idle()
    cluster.stats.reset()
    for node_id in cluster.node_ids[::7]:
        cluster.set_attribute(node_id, "load", 100.0)
    cluster.engine.run(max_events=40)
    assert cluster.engine.pending, "the write deltas must still be in flight"
    for handle in handles:
        frontend.standing.cancel(handle)
    cluster.run_until_idle()
    assert _node_leaks(cluster) == {}
    assert len(frontend.standing._torn_down) == (remembered or len(handles))
    floods = cluster.stats.by_type[mt.SUB_CANCEL] / len(cluster)
    if remembered is None:
        assert floods == len(handles)
    else:
        assert floods > len(handles)  # forgotten ids: the echo, as before


def test_only_a_rerooting_delta_installs_and_the_frontend_cancels_it(cluster) -> None:
    """After a cancel, a routine delta sent before the cancel reached its
    sender is dropped where it lands.  A re-rooting one (the sender's
    parent changed) installs there and at every ancestor, as it must for
    a live subscription; the root's update then says so, and a front-end
    that tore the id down answers with a cancel instead of dropping it."""
    from repro.standing.agent import _install_payload

    frontend = cluster.frontends[0]
    handle = frontend.subscribe("SELECT COUNT(*) WHERE dc = 'east'")
    cluster.run_until_idle()
    tree = cluster.overlay.tree(cluster.overlay.space.hash_name("dc"))
    child = max(cluster.node_ids, key=tree.depth_of)
    parent = tree.parent_of(child)
    (sub,) = cluster.nodes[child].standing._subs.values()
    payload = _install_payload(sub)
    payload.update(pred_key=sub.pred_key, partial=1, contributors=1)
    frontend.standing.cancel(handle)
    cluster.run_until_idle()
    assert _node_leaks(cluster) == {}

    cluster.stats.reset()
    cluster.network.send(child, parent, mt.SUB_DELTA, dict(payload))
    cluster.run_until_idle()
    assert _node_leaks(cluster) == {}
    assert dict(cluster.stats.by_type) == {mt.SUB_DELTA: 1}

    cluster.stats.reset()
    cluster.network.send(child, parent, mt.SUB_DELTA, dict(payload, rerooted=True))
    cluster.run_until_idle()
    assert _node_leaks(cluster) == {}
    assert tree.depth_of(child) > 1
    assert cluster.stats.by_type[mt.SUB_DELTA] == tree.depth_of(child)
    assert cluster.stats.by_type[mt.STANDING_UPDATE] == 1
    assert cluster.stats.by_type[mt.SUB_CANCEL] == len(cluster)


def test_crash_and_join_converge(cluster) -> None:
    frontend = cluster.frontends[0]
    handle = frontend.subscribe(
        "SELECT SUM(load) WHERE dc = 'east' OR load > 5"
    )
    cluster.run_until_idle()
    for node_id in cluster.node_ids[3:6]:
        cluster.crash_node(node_id, detection_delay=0.5)
    cluster.run_until_idle()
    _assert_matches(cluster, handle)
    joined = cluster.join_node()
    cluster.set_attribute(joined, "dc", "east")
    cluster.set_attribute(joined, "load", 9.0)
    cluster.run_until_idle()
    _assert_matches(cluster, handle)


def test_graceful_leave_converges(cluster) -> None:
    frontend = cluster.frontends[0]
    handle = frontend.subscribe("SELECT COUNT(*) WHERE load >= 2")
    cluster.run_until_idle()
    for node_id in list(cluster.node_ids)[2:5]:
        if node_id != frontend.node_id:
            cluster.leave_node(node_id)
    cluster.run_until_idle()
    _assert_matches(cluster, handle)


def test_lease_expires_lazily_and_cleans_up(cluster) -> None:
    frontend = cluster.frontends[0]
    handle = frontend.subscribe("SELECT COUNT(*) WHERE load > 3", lease=5.0)
    cluster.run_until_idle()
    assert handle.active
    cluster.run(10.0)
    # Lazy enforcement: the root notices on its next standing message.
    for node_id in cluster.node_ids[:3]:
        cluster.set_attribute(node_id, "load", 8.0)
    cluster.run_until_idle()
    assert handle.expired and not handle.active
    assert _node_leaks(cluster) == {}
    assert cluster.stats.standing_expired >= 1


def test_renew_extends_the_lease(cluster) -> None:
    frontend = cluster.frontends[0]
    handle = frontend.subscribe("SELECT COUNT(*) WHERE load > 3", lease=5.0)
    cluster.run_until_idle()
    cluster.run(4.0)
    frontend.standing.renew(handle)
    cluster.run_until_idle()
    cluster.run(4.0)  # past the original deadline, inside the renewed one
    for node_id in cluster.node_ids[:3]:
        cluster.set_attribute(node_id, "load", 8.0)
    cluster.run_until_idle()
    assert handle.active and not handle.expired
    _assert_matches(cluster, handle)


def test_replan_switches_cover_and_stays_correct() -> None:
    cluster = MoaraCluster(NUM_NODES, seed=5)
    for index, node_id in enumerate(cluster.node_ids):
        cluster.set_attribute(node_id, "load", float(index % 9))
        cluster.set_attribute(
            node_id, "dc", "east" if index % 2 == 0 else "west"
        )
    cluster.run_until_idle()
    frontend = cluster.frontends[0]
    frontend.config = dataclasses.replace(
        frontend.config, standing_replan_every=4
    )
    handle = frontend.subscribe(
        "SELECT SUM(load) WHERE dc = 'east' AND load > 2"
    )
    cluster.run_until_idle()
    ids = cluster.node_ids
    for step in range(120):
        cluster.set_attribute(ids[(step * 7) % len(ids)], "load",
                              float((step * 3) % 9))
        if step % 10 == 0:
            cluster.run_until_idle()
    cluster.run_until_idle()
    assert cluster.stats.standing_replans >= 1
    _assert_matches(cluster, handle)
    frontend.standing.cancel(handle)
    cluster.run_until_idle()
    assert _node_leaks(cluster) == {}


def test_on_update_callback_fires(cluster) -> None:
    seen: list = []
    frontend = cluster.frontends[0]
    frontend.subscribe(
        "SELECT COUNT(*) WHERE dc = 'east'", on_update=seen.append
    )
    cluster.run_until_idle()
    assert seen, "registration pushes must produce at least one fold"
    assert seen[-1].value == centralized_answer(
        seen[-1].query, _live_stores(cluster)
    )


def test_standing_messages_stay_untagged(cluster) -> None:
    # Standing payloads carry sub_id, never qid: the per-query accounting
    # tags are drained by pop_tag at query completion, which standing
    # subscriptions never reach -- a tagged standing message would grow
    # per_query unboundedly.
    frontend = cluster.frontends[0]
    handle = frontend.subscribe("SELECT COUNT(*) WHERE dc = 'east'")
    cluster.run_until_idle()
    assert not cluster.stats.per_query, "standing traffic must be untagged"
    frontend.standing.cancel(handle)
    cluster.run_until_idle()


# ----------------------------------------------------------------------
# silent empty subtrees, the lease-deadline tracker, per-flood keys
# ----------------------------------------------------------------------

EMPTY = (None, 0)


#: the ten ``svc`` members of :func:`_svc_cluster`, as a slice of node ids.
SVC = slice(5, 15)


def _svc_cluster() -> MoaraCluster:
    cluster = MoaraCluster(200, seed=6)
    cluster.set_group("svc", cluster.node_ids[SVC])
    cluster.run_until_idle()
    return cluster


def _tree(cluster: MoaraCluster, attr: str):
    return cluster.overlay.tree(cluster.overlay.space.hash_name(attr))


def _subs(cluster: MoaraCluster, handle) -> dict:
    """node id -> that node's (single-cover) subscription state."""
    return {
        node_id: sub
        for node_id, node in cluster.nodes.items()
        for (sub_id, _), sub in node.standing._subs.items()
        if sub_id == handle.sub_id
    }


def _lease_tracker_holds(cluster: MoaraCluster) -> bool:
    """No armed deadline at any node is earlier than its agent's tracker."""
    return all(
        node.standing._next_expiry <= sub.expires_at
        for node in cluster.nodes.values()
        for sub in node.standing._subs.values()
        if sub.expires_at > 0
    )


def test_cold_subscribe_costs_one_install_per_node_and_deltas_only_from_contributors():
    cluster = _svc_cluster()
    tree = _tree(cluster, "svc")
    members = cluster.node_ids[SVC]
    cluster.stats.reset()
    handle = cluster.frontends[0].subscribe("SELECT COUNT(*) WHERE svc = true")
    cluster.run_until_idle()
    assert handle.current_value() == 10
    by_type = cluster.stats.by_type
    assert by_type[mt.SUB_INSTALL] == len(cluster)
    # Installs outrun the replies, so each member's appearance travels as
    # its own delta along its path to the root -- and nothing else does.
    assert by_type[mt.SUB_DELTA] == sum(tree.depth_of(m) for m in members) == 20
    assert by_type[mt.STANDING_UPDATE] == 1 + len(members)
    subs = _subs(cluster, handle)
    assert len(subs) == len(cluster)
    assert all(EMPTY not in sub.child_partials.values() for sub in subs.values())
    silent = [n for n, sub in subs.items() if sub.last_pushed is None]
    assert len(silent) == len(cluster) - len(
        {a for m in members for a in tree.path_to_root(m)}
    )


def test_silent_non_member_pushes_when_it_joins_the_group():
    cluster = _svc_cluster()
    handle = cluster.frontends[0].subscribe("SELECT COUNT(*) WHERE svc = true")
    cluster.run_until_idle()
    tree = _tree(cluster, "svc")
    subs = _subs(cluster, handle)
    joiner = max(
        (n for n, sub in subs.items() if sub.last_pushed is None),
        key=tree.depth_of,
    )
    cluster.stats.reset()
    cluster.set_attribute(joiner, "svc", True)
    cluster.run_until_idle()
    assert subs[joiner].last_pushed == (1, 1)
    assert cluster.stats.by_type[mt.SUB_DELTA] == tree.depth_of(joiner) >= 2
    assert handle.current_value() == 11
    _assert_matches(cluster, handle)


def test_member_leaving_pushes_its_emptied_subtree():
    cluster = _svc_cluster()
    handle = cluster.frontends[0].subscribe("SELECT COUNT(*) WHERE svc = true")
    cluster.run_until_idle()
    tree = _tree(cluster, "svc")
    subs = _subs(cluster, handle)
    leaver = next(
        m
        for m in cluster.node_ids[SVC]
        if not tree.children_of(m) and tree.depth_of(m) >= 1
    )
    assert subs[leaver].last_pushed == (1, 1)
    cluster.stats.reset()
    cluster.set_attribute(leaver, "svc", False)
    cluster.run_until_idle()
    assert subs[leaver].last_pushed == EMPTY
    assert subs[tree.parent_of(leaver)].child_partials[leaver] == EMPTY
    assert cluster.stats.by_type[mt.SUB_DELTA] == tree.depth_of(leaver)
    _assert_matches(cluster, handle)


def test_forced_push_of_an_empty_partial_still_installs_the_parent():
    cluster = _svc_cluster()
    handle = cluster.frontends[0].subscribe("SELECT COUNT(*) WHERE svc = true")
    cluster.run_until_idle()
    tree = _tree(cluster, "svc")
    subs = _subs(cluster, handle)
    child = next(
        n
        for n, sub in subs.items()
        if tree.depth_of(n) >= 2 and subs[tree.parent_of(n)].last_pushed is None
    )
    parent = tree.parent_of(child)
    # The parent loses the subscription (as a node that just took the
    # child over would not have it yet); the child re-roots onto it.
    agent = cluster.nodes[parent].standing
    (key,) = agent._subs
    del agent._subs[key]
    cluster.stats.reset()
    cluster.nodes[child].standing._push(subs[child], force=True)
    cluster.run_until_idle()
    assert agent._subs[key].child_partials == {child: EMPTY}
    assert agent._subs[key].attrs == subs[child].attrs
    # ... and the parent, installed from below, reports upward in turn.
    assert cluster.stats.by_type[mt.SUB_DELTA] == 2
    assert subs[tree.parent_of(parent)].child_partials[parent] == EMPTY
    _assert_matches(cluster, handle)


def test_replan_switches_to_an_empty_group_on_its_roots_first_update(cluster):
    """Make-before-break waits for every new group's first update; the root
    of a group nobody is in must still send it."""
    frontend = cluster.frontends[0]
    handle = frontend.subscribe("SELECT COUNT(*) WHERE dc = 'east' AND load > 100")
    cluster.run_until_idle()
    sub = frontend.standing._subs[handle.sub_id]
    (old,) = handle.cover
    (new,) = {g.canonical() for g in sub.plan.all_groups()} - {old}
    assert "load" in new, "the empty group must be the one switched to"
    now = cluster.now
    frontend.size_cache.put(old, 1000.0, now)
    frontend.size_cache.put(new, 2.0, now)
    frontend.standing._maybe_replan(sub, now)
    assert list(sub.pending) == [new] and handle.cover == [old]
    cluster.run_until_idle()
    assert not sub.pending and handle.cover == [new]
    assert handle.current_value() == 0
    frontend.standing.cancel(handle)
    cluster.run_until_idle()
    assert _node_leaks(cluster) == {}


def _touch(cluster: MoaraCluster, value: float) -> None:
    """One attribute write whose delta reaches the subscription's root."""
    cluster.set_attribute(cluster.node_ids[1], "load", value)
    cluster.run_until_idle()


def test_lease_fires_on_the_first_standing_message_past_the_deadline(cluster):
    frontend = cluster.frontends[0]
    short = frontend.subscribe("SELECT SUM(load) WHERE dc = 'west'", lease=5.0)
    long = frontend.subscribe("SELECT MAX(load) WHERE dc = 'west'", lease=50.0)
    cluster.run_until_idle()
    root = cluster.nodes[_tree(cluster, "dc").root]
    assert root.standing._next_expiry == 5.0
    cluster.run(4.5)
    _touch(cluster, 20.0)  # a receipt before the deadline: nothing expires
    assert short.active and long.active
    cluster.run(1.0)
    assert short.active, "lazy: nothing happens until a message arrives"
    _touch(cluster, 21.0)
    assert short.expired and long.active
    assert root.standing._next_expiry == 50.0
    assert _lease_tracker_holds(cluster)
    _assert_matches(cluster, long)
    cluster.run(50.0)
    _touch(cluster, 22.0)
    assert long.expired
    assert root.standing._next_expiry == float("inf")
    assert _node_leaks(cluster) == {}


def test_renewing_to_a_shorter_lease_moves_the_deadline_tracker_down(cluster):
    frontend = cluster.frontends[0]
    handle = frontend.subscribe("SELECT SUM(load) WHERE dc = 'west'", lease=50.0)
    cluster.run_until_idle()
    frontend.standing.renew(handle, lease=2.0)
    cluster.run_until_idle()
    assert cluster.nodes[_tree(cluster, "dc").root].standing._next_expiry == 2.0
    assert _lease_tracker_holds(cluster)
    cluster.run(3.0)
    _touch(cluster, 20.0)
    assert handle.expired and _node_leaks(cluster) == {}


def test_lease_is_enforced_by_the_root_that_took_over(cluster):
    frontend = cluster.frontends[0]
    handle = frontend.subscribe("SELECT SUM(load) WHERE dc = 'west'", lease=5.0)
    cluster.run_until_idle()
    old_root = _tree(cluster, "dc").root
    assert old_root != frontend.node_id
    cluster.run(3.0)
    cluster.leave_node(old_root)
    cluster.run_until_idle()
    new_root = cluster.nodes[_tree(cluster, "dc").root]
    # The clock restarted where the new root armed it (3.0 + 5.0).
    assert new_root.standing._next_expiry == 8.0
    assert _lease_tracker_holds(cluster)
    cluster.run(4.0)  # t = 7: past the old deadline, inside the new one
    _touch(cluster, 20.0)
    assert handle.active
    _assert_matches(cluster, handle)
    cluster.run(2.0)  # t = 9
    _touch(cluster, 21.0)
    assert handle.expired and _node_leaks(cluster) == {}
