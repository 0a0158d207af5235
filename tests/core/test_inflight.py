"""Root-side in-flight sharing across front-ends, and the multi-front-end
plumbing it rides on.

Identical sub-queries from different front-ends that reach a tree root
while one execution is walking subscribe to it: one tree walk, every
answer.  A root that departs, or a child that departs, mid-execution
still resolves every subscriber (NULL or partial, never a hang).
"""

from __future__ import annotations

import pytest

from repro.core import MoaraCluster, MoaraConfig
from repro.core import messages as mt
from repro.core.moara_node import group_attribute
from repro.core.parser import parse_predicate

TEXT = "SELECT COUNT(*) WHERE g = true"


def _root_of(cluster: MoaraCluster, predicate: str) -> int:
    return cluster.overlay.root(
        cluster.overlay.space.hash_name(
            group_attribute(parse_predicate(predicate))
        )
    )


def _cluster(**kwargs) -> MoaraCluster:
    defaults = dict(
        num_nodes=48,
        seed=90,
        config=MoaraConfig(),
        num_frontends=2,
    )
    defaults.update(kwargs)
    c = MoaraCluster(**defaults)
    c.set_group("g", c.node_ids[:12])
    for rank, node_id in enumerate(c.node_ids):
        c.set_attribute(node_id, "load", float(rank))
    return c


# ----------------------------------------------------------------------
# in-flight execution table (cross-front-end sharing)
# ----------------------------------------------------------------------


def test_cold_concurrent_burst_across_frontends_shares_one_walk() -> None:
    """Identical queries submitted concurrently by different front-ends
    trigger one tree walk; late arrivals subscribe at the root."""
    c = _cluster()
    before = c.stats.snapshot()
    # Round-robin deliberately scatters the identical queries across
    # front-ends (shard routing would keep them on one shard and the
    # front-end's own sub-query sharing would absorb them instead).
    results = c.query_concurrent([TEXT] * 2, routing="round-robin")
    delta = c.stats.delta_since(before)
    assert [r.value for r in results] == [12, 12]
    assert delta.messages_of(mt.FRONTEND_QUERY) == 2
    assert delta.messages_of(mt.FRONTEND_RESPONSE) == 2
    assert c.stats.root_subscriptions == 1
    # Exactly one execution's worth of tree traffic: a lone query from
    # one front-end on an identical fresh cluster costs the same.
    lone = _cluster()
    lone_before = lone.stats.snapshot()
    lone.query(TEXT)
    lone_delta = lone.stats.delta_since(lone_before)
    assert delta.messages_of(mt.QUERY, mt.QUERY_RESPONSE) == (
        lone_delta.messages_of(mt.QUERY, mt.QUERY_RESPONSE)
    )
    # The subscriber is flagged; the initiator is not.
    assert [r.root_shared for r in results] == [False, True]


def test_subscription_disabled_walks_per_frontend() -> None:
    c = _cluster(config=MoaraConfig.uncached())
    before = c.stats.snapshot()
    results = c.query_concurrent([TEXT] * 2, routing="round-robin")
    delta = c.stats.delta_since(before)
    assert [r.value for r in results] == [12, 12]
    assert c.stats.root_subscriptions == 0
    assert delta.messages_of(mt.QUERY) > 0
    assert not any(r.root_shared for r in results)


def test_late_subscribers_resolve_when_root_departs_mid_execution() -> None:
    """If the root crashes while an execution (with subscribers from
    other front-ends) is in flight, every front-end's query resolves
    with a NULL answer via the failure detector -- nobody hangs."""
    c = _cluster()
    c.query(TEXT)  # warm the tree so the root is established
    root_id = _root_of(c, "g = true")
    qid_a = c.query_async(TEXT, frontend=0)
    qid_b = c.query_async(TEXT, frontend=1)
    c.crash_node(root_id, detection_delay=0.1)
    c.run_until_idle()
    result_a = c.frontends[0].results.pop(qid_a, None)
    result_b = c.frontends[1].results.pop(qid_b, None)
    assert result_a is not None and result_b is not None
    assert all(fe.is_idle() for fe in c.frontends)
    assert not c.stats.per_query  # every tag drained


def test_subscriber_fan_out_when_a_child_departs_mid_execution() -> None:
    """Section 7 inside the tree: a departed *child* resolves the
    pending aggregation with what the root has, and the fan-out answers
    subscribers from every front-end (values may be partial, never
    lost)."""
    c = _cluster()
    c.query(TEXT)  # warm
    root_id = _root_of(c, "g = true")
    root = c.nodes[root_id]
    qid_a = c.query_async(TEXT, frontend=0)
    qid_b = c.query_async(TEXT, frontend=1)
    # Find a child the root is now waiting on and remove it.
    c.engine.run_until(lambda: bool(root._pending))
    pending = next(iter(root._pending.values()), None)
    assert pending is not None and pending.waiting
    c.leave_node(next(iter(pending.waiting)))
    c.run_until_idle()
    assert qid_a in c.frontends[0].results
    assert qid_b in c.frontends[1].results


# ----------------------------------------------------------------------
# multi-front-end plumbing
# ----------------------------------------------------------------------


def test_negative_frontends_argument_is_rejected() -> None:
    c = _cluster()
    with pytest.raises(ValueError):
        c.query_concurrent([TEXT], frontends=-1)
    with pytest.raises(ValueError):
        c.query_concurrent([TEXT], frontends=0)


def test_frontends_get_distinct_ids_and_share_semantics() -> None:
    c = _cluster(num_frontends=3)
    assert [fe.node_id for fe in c.frontends] == [-1, -2, -3]
    assert c.frontend is c.frontends[0]
    assert all(fe.semantics is c.semantics for fe in c.frontends)


def test_add_frontend_after_construction() -> None:
    c = _cluster()
    fe = c.add_frontend()
    assert fe.node_id == -3
    qid = fe.submit(TEXT)
    c.run_until_idle()
    assert fe.results.pop(qid).value == 12


def test_round_robin_spread_is_capped_by_frontends_argument() -> None:
    c = _cluster(num_frontends=4)
    results = c.query_concurrent(
        [TEXT] * 4, frontends=2, routing="round-robin"
    )
    assert [r.value for r in results] == [12] * 4
    # Only the first two front-ends saw traffic.
    assert c.frontends[2].is_idle() and not c.frontends[2].results
    assert c.frontends[3].is_idle() and not c.frontends[3].results
