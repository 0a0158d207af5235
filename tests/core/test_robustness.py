"""Edge-case and robustness tests across the protocol stack."""

from __future__ import annotations

import random

import pytest

from repro.core import MoaraCluster
from repro.core.moara_node import group_attribute
from repro.core.predicates import And, Comparison, SimplePredicate, TruePredicate
from repro.pastry.idspace import IdSpace


def test_group_attribute_mapping() -> None:
    assert group_attribute(SimplePredicate("cpu", Comparison.LT, 5)) == "cpu"
    assert group_attribute(TruePredicate()) == "*"
    with pytest.raises(TypeError):
        group_attribute(
            And(
                SimplePredicate("a", Comparison.EQ, 1),
                SimplePredicate("b", Comparison.EQ, 2),
            )
        )


def test_same_attribute_different_predicates_share_one_tree() -> None:
    """Section 3.2: trees are keyed by the *attribute*; multiple predicates
    on the same attribute share the root but keep separate prune state."""
    cluster = MoaraCluster(48, seed=110)
    for rank, node_id in enumerate(cluster.node_ids):
        cluster.set_attribute(node_id, "cpu", float(rank))
    low = cluster.query("SELECT COUNT(*) WHERE cpu < 10")
    high = cluster.query("SELECT COUNT(*) WHERE cpu >= 40")
    assert low.value == 10
    assert high.value == 8
    key = cluster.overlay.space.hash_name("cpu")
    root = cluster.overlay.root(key)
    root_node = cluster.nodes[root]
    assert "(cpu < 10)" in root_node.tree_keys()
    assert "(cpu >= 40)" in root_node.tree_keys()
    assert (
        root_node.tree_state("(cpu < 10)").tree_key
        == root_node.tree_state("(cpu >= 40)").tree_key
    )


def test_many_concurrent_groups() -> None:
    """Dozens of active predicates on one overlay stay independent."""
    cluster = MoaraCluster(64, seed=111)
    rng = random.Random(112)
    expected = {}
    for i in range(24):
        size = rng.randrange(1, 20)
        members = rng.sample(cluster.node_ids, size)
        cluster.set_group(f"grp{i}", members)
        expected[f"grp{i}"] = size
    for name, size in expected.items():
        assert (
            cluster.query(f"SELECT COUNT(*) WHERE {name} = true").value
            == size
        )
    # And again, exercising the pruned trees.
    for name, size in expected.items():
        assert (
            cluster.query(f"SELECT COUNT(*) WHERE {name} = true").value
            == size
        )


def test_query_for_unknown_attribute() -> None:
    cluster = MoaraCluster(16, seed=113)
    result = cluster.query("SELECT COUNT(*) WHERE never-set = true")
    assert result.value == 0
    result = cluster.query("SELECT SUM(never-set)")
    assert result.value is None


def test_root_of_fresh_attribute_is_consistent() -> None:
    """The frontend and the nodes must agree on tree roots for attributes
    no one has ever populated."""
    cluster = MoaraCluster(32, seed=114)
    for _ in range(3):
        assert cluster.query("SELECT COUNT(*) WHERE ghost = 1").value == 0


def test_interleaved_queries_different_groups() -> None:
    cluster = MoaraCluster(48, seed=115)
    cluster.set_group("a", cluster.node_ids[:7])
    cluster.set_group("b", cluster.node_ids[7:19])
    qids = []
    for _ in range(4):
        qids.append(cluster.query_async("SELECT COUNT(*) WHERE a = true"))
        qids.append(cluster.query_async("SELECT COUNT(*) WHERE b = true"))
    cluster.run_until_idle()
    values = [cluster.result(qid).value for qid in qids]
    assert values == [7, 12] * 4


def test_zero_size_space_configurations() -> None:
    """Exotic but valid ID-space shapes route correctly."""
    for bits, digit_bits in ((8, 8), (16, 16), (12, 3)):
        space = IdSpace(bits=bits, digit_bits=digit_bits)
        cluster = MoaraCluster(8, seed=116, space=space)
        cluster.set_group("x", cluster.node_ids[:3])
        assert cluster.query("SELECT COUNT(*) WHERE x = true").value == 3


def test_churn_between_probe_and_query() -> None:
    """A root change between the size probe and the sub-query must not
    lose the answer (the new root re-resolves the query)."""
    cluster = MoaraCluster(40, seed=117)
    cluster.set_group("a", cluster.node_ids[:6])
    cluster.set_group("b", cluster.node_ids[6:16])
    cluster.query("SELECT COUNT(*) WHERE a = true AND b = true")
    # Remove the current root of group a's tree, then immediately query.
    root_a = cluster.overlay.root(cluster.overlay.space.hash_name("a"))
    was_member = root_a in cluster.members_satisfying("a = true")
    cluster.leave_node(root_a)
    expected = 6 - int(was_member)
    result = cluster.query("SELECT COUNT(*) WHERE a = true")
    assert result.value == expected


def test_bool_vs_int_attribute_values_distinct() -> None:
    """`True` and `1` are distinct attribute states for change detection
    but compare equal in predicates (Python semantics, documented)."""
    cluster = MoaraCluster(8, seed=118)
    node = cluster.node_ids[0]
    assert cluster.set_attribute(node, "flag", True) is True
    assert cluster.set_attribute(node, "flag", 1) is True  # type change
    assert cluster.set_attribute(node, "flag", 1) is False  # no change


def test_cluster_validation() -> None:
    with pytest.raises(ValueError):
        MoaraCluster(0)


def test_leave_all_but_one_node() -> None:
    cluster = MoaraCluster(10, seed=119)
    cluster.set_group("g", cluster.node_ids[:10])
    survivor = cluster.node_ids[0]
    for node_id in cluster.node_ids[1:]:
        cluster.leave_node(node_id)
    cluster.run_until_idle()
    result = cluster.query("SELECT COUNT(*) WHERE g = true")
    assert result.value == 1
    assert survivor in cluster.overlay


def test_long_predicate_chain() -> None:
    cluster = MoaraCluster(32, seed=120)
    for i in range(8):
        cluster.set_group(f"s{i}", cluster.node_ids[: 20 - i])
    text = " AND ".join(f"s{i} = true" for i in range(8))
    result = cluster.query(f"SELECT COUNT(*) WHERE {text}")
    assert result.value == 13  # the smallest group's size (20 - 7)
    assert len(result.cover) == 1  # planner picked a single group
