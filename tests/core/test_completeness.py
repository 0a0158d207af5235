"""Eventual completeness (the paper's correctness guarantee, Section 4).

"when the set of predicate-satisfying nodes as well as the underlying DHT
overlay do not change for a sufficiently long time after a query injection,
a query to the group will eventually return answers from all such nodes."

The property tests drive a cluster through arbitrary interleavings of
attribute churn, queries, and (in the strongest variant) overlay churn,
then let the system quiesce and assert the next query returns *exactly* the
satisfying set.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MoaraCluster
from repro.core.moara_node import MoaraConfig
from repro.core.adapt import AdaptationConfig

QUERY = "SELECT LIST(A) WHERE A = 1"

# An event is either a query, or an attribute flip on node index i.
events = st.lists(
    st.one_of(
        st.just(("query",)),
        st.tuples(st.just("flip"), st.integers(min_value=0, max_value=31)),
    ),
    max_size=40,
)


def answered_nodes(cluster: MoaraCluster) -> set[int]:
    result = cluster.query(QUERY)
    return {node for node, _value in result.value}


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    evts=events,
    k_update=st.integers(min_value=1, max_value=3),
    k_no_update=st.integers(min_value=1, max_value=3),
    threshold=st.integers(min_value=1, max_value=3),
)
def test_eventual_completeness_under_group_churn(
    evts, k_update, k_no_update, threshold
) -> None:
    config = MoaraConfig(
        adaptation=AdaptationConfig(k_update=k_update, k_no_update=k_no_update),
        threshold=threshold,
    )
    cluster = MoaraCluster(32, seed=50, config=config)
    ids = cluster.node_ids
    for node_id in ids:
        cluster.set_attribute(node_id, "A", 0)
    for event in evts:
        if event[0] == "query":
            cluster.query(QUERY)
        else:
            node = ids[event[1]]
            current = cluster.nodes[node].attributes["A"]
            cluster.set_attribute(node, "A", 1 - current)
    cluster.run_until_idle()  # churn stops; the system quiesces
    expected = cluster.members_satisfying("A = 1")
    assert answered_nodes(cluster) == expected


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    evts=st.lists(
        st.one_of(
            st.just(("query",)),
            st.tuples(st.just("flip"), st.integers(min_value=0, max_value=23)),
            st.just(("leave",)),
            st.just(("join",)),
        ),
        max_size=25,
    ),
)
def test_eventual_completeness_under_overlay_churn(evts) -> None:
    """Group churn *and* node join/leave interleaved with queries."""
    cluster = MoaraCluster(24, seed=51)
    for node_id in cluster.node_ids:
        cluster.set_attribute(node_id, "A", 0)
    for event in evts:
        ids = cluster.node_ids
        if event[0] == "query":
            cluster.query(QUERY)
        elif event[0] == "flip":
            node = ids[event[1] % len(ids)]
            current = cluster.nodes[node].attributes.get("A", 0)
            cluster.set_attribute(node, "A", 1 - current)
        elif event[0] == "leave" and len(ids) > 4:
            cluster.leave_node(ids[len(ids) // 2])
        elif event[0] == "join":
            new_node = cluster.join_node()
            cluster.set_attribute(new_node, "A", 1)
        cluster.run_until_idle()
    expected = cluster.members_satisfying("A = 1")
    assert answered_nodes(cluster) == expected


def test_completeness_after_heavy_flapping() -> None:
    """A pathological flapper (the CPU-around-50% example) must still be
    included/excluded correctly once it settles."""
    cluster = MoaraCluster(48, seed=52)
    for node_id in cluster.node_ids:
        cluster.set_attribute(node_id, "A", 0)
    flapper = cluster.node_ids[7]
    cluster.query(QUERY)
    for i in range(30):
        cluster.set_attribute(flapper, "A", (i + 1) % 2)
        if i % 7 == 0:
            cluster.query(QUERY)
    # Settles at A=0 (30 flips: last value written is 0... make explicit):
    cluster.set_attribute(flapper, "A", 0)
    cluster.run_until_idle()
    assert flapper not in answered_nodes(cluster)
    cluster.set_attribute(flapper, "A", 1)
    cluster.run_until_idle()
    assert flapper in answered_nodes(cluster)


def test_completeness_with_all_nodes_satisfying() -> None:
    cluster = MoaraCluster(40, seed=53)
    for node_id in cluster.node_ids:
        cluster.set_attribute(node_id, "A", 1)
    assert answered_nodes(cluster) == set(cluster.node_ids)
    # Everyone leaves the group; answers must become empty.
    for node_id in cluster.node_ids:
        cluster.set_attribute(node_id, "A", 0)
    cluster.run_until_idle()
    assert answered_nodes(cluster) == set()
    # And back again.
    for node_id in cluster.node_ids:
        cluster.set_attribute(node_id, "A", 1)
    cluster.run_until_idle()
    assert answered_nodes(cluster) == set(cluster.node_ids)


def test_state_machine_invariant_update_or_receive() -> None:
    """The Section 4 invariant: every node either (a) keeps its parent
    up to date (UPDATE), or (b) is routed all queries (its effective sent
    set contains its own id)."""
    cluster = MoaraCluster(64, seed=54)
    cluster.set_group("A", cluster.node_ids[:9], 1, 0)
    for _ in range(3):
        cluster.query("SELECT COUNT(*) WHERE A = 1")
    # Churn to push nodes through state transitions.
    for node_id in cluster.node_ids[::3]:
        current = cluster.nodes[node_id].attributes["A"]
        cluster.set_attribute(node_id, "A", 1 - current)
    cluster.run_until_idle()
    for node_id, node in cluster.nodes.items():
        for key in node.tree_keys():
            state = node.tree_state(key)
            receives = state.would_receive_queries()
            updates = state.adaptor.update
            assert updates or receives, (
                f"node {node_id} neither updates nor receives queries"
            )
