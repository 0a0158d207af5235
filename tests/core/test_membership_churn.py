"""Overlay joins and leaves against the pruned group trees (Section 7).

A status report describes the subtree hanging off the node that holds it.
``MoaraNode.on_membership_change`` therefore has to drop the reports of
children it no longer has -- not only of nodes that left -- and has to
re-derive its updateSet whenever its child set moved, also when it only
*gained* a child: a newcomer has reported nothing, so a pruned subtree
must open up for it.  Each test here read wrong answers before that.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import centralized_answer
from repro.core import MoaraCluster
from repro.core.parser import parse_query

QUERY = parse_query("SELECT COUNT(*) WHERE g = true")
PRUNE: frozenset[int] = frozenset()


def _cluster(seed: int = 3) -> tuple[MoaraCluster, str]:
    cluster = MoaraCluster(128, seed=seed)
    cluster.set_group("g", cluster.node_ids[:4])
    cluster.run_until_idle()
    # The first walk forms the tree and its replies prune the leaves; an
    # inner node counts each child's PRUNE as a change and needs a few
    # more queries before it settles in UPDATE and prunes its own subtree.
    for _ in range(5):
        assert cluster.query(QUERY).value == 4
    return cluster, QUERY.predicate.canonical()


def _tree(cluster: MoaraCluster):
    return cluster.overlay.tree(cluster.overlay.space.hash_name("g"))


def _truth(cluster: MoaraCluster):
    return centralized_answer(
        QUERY, [(n, node.attributes) for n, node in cluster.nodes.items()]
    )


def test_join_under_a_pruned_subtree_unprunes_up_to_the_root() -> None:
    cluster, key = _cluster()
    for _ in range(20):
        pruned = {
            node_id
            for node_id, node in cluster.nodes.items()
            if key in node.tree_keys()
            and node.tree_state(key).sent_update_set == PRUNE
        }
        newcomer = cluster.join_node()
        cluster.run_until_idle()
        if _tree(cluster).parent_of(newcomer) in pruned:
            break
    else:
        pytest.fail("no join landed under a pruned parent")
    tree = _tree(cluster)
    ancestor = tree.parent_of(newcomer)
    while tree.parent_of(ancestor) is not None:
        # Every subtree on the way up routes queries toward the newcomer
        # again (to itself, or -- separate query plane -- past itself).
        assert cluster.nodes[ancestor].tree_state(key).sent_update_set != PRUNE
        ancestor = tree.parent_of(ancestor)
    cluster.set_attribute(newcomer, "g", True)
    cluster.run_until_idle()
    result = cluster.query(QUERY)
    assert result.value == _truth(cluster) == 5


def test_child_flapping_between_parents_in_no_update_is_queried_again() -> None:
    cluster, key = _cluster()
    tree = _tree(cluster)
    frontend = cluster.frontends[0].node_id
    members = set(cluster.node_ids[:4])
    child, via = next(
        (node_id, tree.parent_of(node_id))
        for node_id in cluster.node_ids
        if tree.depth_of(node_id) >= 2
        and not tree.children_of(node_id)
        and not {node_id, tree.parent_of(node_id)} & (members | {frontend})
    )
    # P -> Q: while `via` is away the child hangs off `fallback` and
    # prunes itself there (it is in UPDATE and not in the group).
    cluster.leave_node(via)
    cluster.run_until_idle()
    fallback = _tree(cluster).parent_of(child)
    assert cluster.query(QUERY).value == 4
    assert cluster.nodes[fallback].tree_state(key).children[child].update_set == PRUNE
    # `via` comes back and takes the child over: `fallback`'s report of it
    # now describes nothing.
    cluster.join_node(via)
    cluster.run_until_idle()
    assert _tree(cluster).parent_of(child) == via
    assert child not in cluster.nodes[fallback].tree_state(key).children
    # The child joins the group; with one change against no query it goes
    # NO-UPDATE, which tells the current parent "keep querying me" once and
    # then nothing (a query now would flip it back to UPDATE).
    cluster.set_attribute(child, "g", True)
    cluster.run_until_idle()
    assert not cluster.nodes[child].tree_state(key).adaptor.update
    # Q -> P: back under `fallback`, silently.  Only the default view --
    # no report, so forward -- reaches the child now.
    cluster.leave_node(via)
    cluster.run_until_idle()
    assert _tree(cluster).parent_of(child) == fallback
    assert cluster.nodes[child].tree_state(key).sent_update_set is None
    assert cluster.query(QUERY).value == _truth(cluster) == 5


#: what one round of the seeded harness does to the overlay.
MIXES = {
    "leave+rejoin": ("leave", "rejoin"),
    "fresh-joins": ("join",),
    "leave": ("leave",),
    "leave+join+rejoin": ("leave", "join", "rejoin"),
}
GROUPS = 6


def _wrong_answers(mix: tuple[str, ...], seed: int) -> int:
    """30 rounds of {overlay churn per ``mix``, 6 group flips, quiesce, one
    ``COUNT(*)`` per group} on 200 nodes; answers differing from the
    centralized recompute over live membership."""
    rng = random.Random(seed)
    cluster = MoaraCluster(200, seed=seed)
    for group in range(GROUPS):
        cluster.set_group(f"g{group}", rng.sample(cluster.node_ids, 30))
    cluster.run_until_idle()
    queries = [
        parse_query(f"SELECT COUNT(*) WHERE g{group} = true")
        for group in range(GROUPS)
    ]
    for query in queries:
        cluster.query(query)
    frontend = cluster.frontends[0].node_id
    away: list[tuple[int, dict]] = []  # earlier leavers with their attributes
    wrong = 0
    for _ in range(30):
        if "leave" in mix:
            victim = rng.choice([n for n in cluster.node_ids if n != frontend])
            away.append((victim, dict(cluster.nodes[victim].attributes.data)))
            cluster.leave_node(victim)
        if "rejoin" in mix and len(away) > 1:
            node_id, attributes = away.pop(rng.randrange(len(away) - 1))
            cluster.join_node(node_id)
            for name, value in attributes.items():
                cluster.set_attribute(node_id, name, value)
        if "join" in mix:
            cluster.join_node()
        for _ in range(6):
            node_id = rng.choice(cluster.node_ids)
            name = f"g{rng.randrange(GROUPS)}"
            flipped = not cluster.nodes[node_id].attributes.get(name, False)
            cluster.set_attribute(node_id, name, flipped)
        cluster.run_until_idle()
        stores = [(n, node.attributes) for n, node in cluster.nodes.items()]
        wrong += sum(
            cluster.query(query).value != centralized_answer(query, stores)
            for query in queries
        )
    return wrong


@pytest.mark.parametrize("mix", MIXES)
def test_queries_match_the_centralized_answer_under_overlay_churn(mix) -> None:
    # Before the fix: 29 / 3 / 0 / 34 wrong of 360 each (leaves alone need
    # a re-parented child to land under a pruned node, which this scale
    # does not hit; at 400 nodes x 60 rounds they do).
    assert [_wrong_answers(MIXES[mix], seed) for seed in (0, 1)] == [0, 0]
