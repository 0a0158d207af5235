"""The shared group-size tier: read-through, single-writer, one probe
per group cluster-wide.

Covers the tentpole's shared-cache contract: all shards read one tier;
a probe another shard already sent in the same burst is joined instead
of duplicated (and its answer is published to every waiter); a live
entry is only overwritten by the group's consistent-hash owner shard;
and disabling the tier reproduces the PR 2 private-cache behaviour.
"""

from __future__ import annotations

from functools import cache

import pytest

from repro.core import MoaraCluster
from repro.core import messages as mt
from repro.core.moara_node import group_attribute
from repro.core.parser import parse_predicate
from repro.core.plan_cache import SharedGroupSizeCache
from repro.core.shard_router import FrontendShardRouter
from repro.sim import LANLatencyModel


# ----------------------------------------------------------------------
# unit behaviour
# ----------------------------------------------------------------------


def _tier(num_shards: int = 2, ttl: float = 30.0) -> SharedGroupSizeCache:
    return SharedGroupSizeCache(
        router=FrontendShardRouter(num_shards=num_shards), ttl=ttl
    )


def test_reads_are_shared_across_shards() -> None:
    tier = _tier()
    owner = tier.router.owner("(g = true)")
    assert tier.put("(g = true)", 12.0, now=0.0, shard=owner)
    for shard in (0, 1):
        assert tier.get("(g = true)", now=1.0, shard=shard) == 12.0
    assert tier.stats.hits == 2
    assert tier.stats_for(0).hits + tier.stats_for(1).hits == 2


def test_single_writer_rule() -> None:
    tier = _tier()
    key = "(g = true)"
    owner = tier.router.owner(key)
    other = 1 - owner
    # Anyone may fill a cold entry...
    assert tier.put(key, 10.0, now=0.0, shard=other)
    # ...but only the owner overwrites a live one.
    assert not tier.put(key, 99.0, now=1.0, shard=other)
    assert tier.single_writer_drops == 1
    assert tier.get(key, now=1.0, shard=owner) == 10.0
    assert tier.put(key, 11.0, now=1.0, shard=owner)
    assert tier.get(key, now=1.0, shard=other) == 11.0
    # After expiry the non-owner may fill again (cold fill).
    assert tier.put(key, 12.0, now=100.0, shard=other)


def test_probe_registry_joins_only_other_shards_in_same_burst() -> None:
    tier = _tier(num_shards=3)
    seen: list[tuple[str, float]] = []

    def callback(key, cost, now):
        seen.append((key, cost))

    tier.open_probe("(g = true)", shard=0, tag="pr-1", seq=7)
    # Same shard never joins its own probe (local dedup handles that).
    assert not tier.join_probe("(g = true)", 0, 7, callback)
    # A different burst (older probe, possibly lost) is not joinable.
    assert not tier.join_probe("(g = true)", 1, 8, callback)
    # Another shard in the same burst subscribes.
    assert tier.join_probe("(g = true)", 1, 7, callback)
    assert tier.join_probe("(g = true)", 2, 7, callback)
    assert tier.probe_joins == 2
    # Resolution publishes once and releases every waiter.
    callbacks = tier.resolve_probe("(g = true)", "pr-1", 24.0, now=1.0)
    for cb in callbacks:
        cb("(g = true)", 24.0, 1.0)
    assert seen == [("(g = true)", 24.0), ("(g = true)", 24.0)]
    assert tier.publishes == 1
    assert tier.get("(g = true)", now=1.0, shard=2) == 24.0
    # The registry entry is gone; a second resolve is not ours (None:
    # the caller falls back to a plain put).
    assert tier.resolve_probe("(g = true)", "pr-1", 24.0, now=1.0) is None


def test_stale_prober_cannot_resolve_a_replacement_probe() -> None:
    tier = _tier()
    tier.open_probe("(g = true)", shard=0, tag="pr-old", seq=1)
    tier.open_probe("(g = true)", shard=1, tag="pr-new", seq=9)
    assert tier.resolve_probe("(g = true)", "pr-old", 5.0, now=0.0) is None
    assert tier.resolve_probe("(g = true)", "pr-new", 6.0, now=0.0) == []


def test_replacement_probe_inherits_parked_waiters() -> None:
    """Waiters subscribed to a probe that gets superseded by a later
    burst's probe are re-homed, not stranded: the replacement's answer
    releases them."""
    tier = _tier(num_shards=3)
    seen = []
    tier.open_probe("(g = true)", shard=0, tag="pr-old", seq=1)
    assert tier.join_probe(
        "(g = true)", 1, 1, lambda k, c, t: seen.append(c)
    )
    # A later burst replaces the (possibly lost) probe...
    tier.open_probe("(g = true)", shard=2, tag="pr-new", seq=5)
    # ...whose late answer no longer resolves anything (plain put path).
    assert tier.resolve_probe("(g = true)", "pr-old", 5.0, now=0.0) is None
    # The replacement's answer releases the re-homed waiter.
    callbacks = tier.resolve_probe("(g = true)", "pr-new", 6.0, now=0.0)
    for cb in callbacks:
        cb("(g = true)", 6.0, 0.0)
    assert seen == [6.0]


# ----------------------------------------------------------------------
# cluster integration
# ----------------------------------------------------------------------


def _cluster(**kwargs) -> MoaraCluster:
    defaults = dict(num_nodes=64, seed=98, num_frontends=2)
    defaults.update(kwargs)
    c = MoaraCluster(**defaults)
    c.set_group("a", c.node_ids[:10])
    c.set_group("b", c.node_ids[5:20])
    c.set_group("g", c.node_ids[10:30])
    return c


def _root_of(c: MoaraCluster, name: str) -> int:
    return c.overlay.root(
        c.overlay.space.hash_name(
            group_attribute(parse_predicate(f"{name} = true"))
        )
    )


#: two distinct composite queries that share the group ``g``.
TEXT_A = "SELECT COUNT(*) WHERE a = true AND g = true"
TEXT_B = "SELECT COUNT(*) WHERE b = true AND g = true"


def test_one_probe_per_group_cluster_wide() -> None:
    """Two shards needing the same group's size in one burst send one
    wire probe for it, not one per shard."""
    c = _cluster()
    qid_a = c.frontends[0].submit(TEXT_A)  # probes a and g
    qid_b = c.frontends[1].submit(TEXT_B)  # probes b, joins g
    c.run_until_idle()
    assert c.stats.by_type[mt.SIZE_PROBE] == 3  # a, b, g -- not 4
    assert c.stats.shared_probe_joins == 1
    assert c.shared_sizes is not None
    assert c.shared_sizes.probe_joins == 1
    result_a = c.frontends[0].results.pop(qid_a)
    result_b = c.frontends[1].results.pop(qid_b)
    assert result_a.value == len(c.members_satisfying(TEXT_A.split("WHERE ")[1]))
    assert result_b.value == len(c.members_satisfying(TEXT_B.split("WHERE ")[1]))
    # The joining query still saw g's cost (learned via the publish).
    assert "(g = true)" in result_b.probed_costs
    assert all(fe.is_idle() for fe in c.frontends)


def test_private_caches_probe_per_shard() -> None:
    """shared_size_cache=False reproduces PR 2: each shard probes."""
    c = _cluster(shared_size_cache=False)
    assert c.shared_sizes is None
    c.frontends[0].submit(TEXT_A)
    c.frontends[1].submit(TEXT_B)
    c.run_until_idle()
    assert c.stats.by_type[mt.SIZE_PROBE] == 4  # a, g, b, g again
    assert c.stats.shared_probe_joins == 0


def test_publish_warms_every_shard() -> None:
    """After one shard's query, the other shard plans probe-free."""
    c = _cluster()
    c.frontends[0].submit(TEXT_A)
    c.run_until_idle()
    probes = c.stats.by_type[mt.SIZE_PROBE]
    qid = c.frontends[1].submit(TEXT_B)
    c.run_until_idle()
    # Shard 1 only probed b: a and g were already in the shared tier
    # (g from shard 0's probe publish, both refreshed by piggyback).
    assert c.stats.by_type[mt.SIZE_PROBE] == probes + 1
    assert c.frontends[1].results.pop(qid) is not None


def test_null_resolution_releases_cross_shard_waiters() -> None:
    """If the probed root departs, the prober resolves NULL and every
    waiting shard's queries complete instead of hanging."""
    c = _cluster()
    g_root = _root_of(c, "g")
    if g_root in {_root_of(c, "a"), _root_of(c, "b")}:
        pytest.skip("group trees share a root for this seed")
    qid_a = c.frontends[0].submit(TEXT_A)
    qid_b = c.frontends[1].submit(TEXT_B)
    assert c.stats.shared_probe_joins == 1
    c.leave_node(g_root)  # the shared probe's target departs
    c.run_until_idle()
    assert qid_a in c.frontends[0].results
    assert qid_b in c.frontends[1].results
    assert all(fe.is_idle() for fe in c.frontends)


def test_overlay_churn_feeds_the_shared_tier_once() -> None:
    c = _cluster()
    assert c.shared_sizes is not None
    policy = c.shared_sizes.ttl_policy
    assert policy is not None
    before = policy.tracker.rate("(g = true)", c.now)
    c.join_node()
    after = policy.tracker.rate("(g = true)", c.now)
    assert after > before


def test_uncached_frontends_keep_seed_probe_behaviour() -> None:
    from repro.core import FrontendConfig

    c = _cluster(frontend_config=FrontendConfig.uncached())
    for _ in range(2):
        c.query(TEXT_A)
    # No caching, no dedup: both submissions probed both groups.
    assert c.stats.by_type[mt.SIZE_PROBE] == 4
    assert c.stats.shared_probe_joins == 0


# ----------------------------------------------------------------------
# probe traffic is flat in the number of front-ends
# ----------------------------------------------------------------------

#: a warm repeated dashboard over striped groups, two of which flap.
_DASH_GROUPS = 8
_DASH_CHURN_GROUPS = 2


@cache
def _dashboard_probe_count(num_frontends: int) -> int:
    """Wire ``SIZE_PROBE`` messages for one fixed dashboard workload --
    single-group and composite panels, repeated, with group churn
    between rounds -- routed over ``num_frontends`` front-ends."""
    c = MoaraCluster(
        300,
        seed=200,
        latency_model=LANLatencyModel(seed=200),
        num_frontends=num_frontends,
    )
    for i in range(_DASH_GROUPS):
        c.set_group(f"S{i}", c.node_ids[i::_DASH_GROUPS][:12])
    for rank, node_id in enumerate(c.node_ids):
        c.set_attribute(node_id, "load", float(rank % 89))
    stable = range(_DASH_CHURN_GROUPS, _DASH_GROUPS)
    texts = [f"SELECT COUNT(*) WHERE S{i} = true" for i in range(_DASH_GROUPS)]
    texts += [
        f"SELECT AVG(load) WHERE S{i} = true AND S{i % 7 + 1} = true"
        for i in stable
    ]
    flappers = {
        i: c.members_satisfying(f"S{i} = true").pop()
        for i in range(_DASH_CHURN_GROUPS)
    }
    for round_no in range(5):
        c.query_concurrent(texts * 2)
        for i, flapper in flappers.items():
            c.set_attribute(flapper, f"S{i}", round_no % 2 == 1)
        c.run(0.25)
    return c.stats.by_type[mt.SIZE_PROBE]


@pytest.mark.parametrize("num_frontends", [1, 2, 4, 8])
def test_probe_count_is_flat_in_the_number_of_frontends(
    num_frontends: int,
) -> None:
    """With the shared tier, adding front-ends adds no probe: one probe
    per group cluster-wide, whichever shard needs the size."""
    single = _dashboard_probe_count(1)
    assert single > 0
    assert _dashboard_probe_count(num_frontends) == single
