"""Churn-adaptive TTLs: estimator behaviour and min/max clamping.

The satellite checklist pins the clamping contract: zero observed churn
reproduces the fixed TTL exactly (every entry gets the max bound), and a
churn storm can shrink entries to the min bound but never below.
"""

from __future__ import annotations

import pytest

from repro.core import FrontendConfig, MoaraCluster, MoaraConfig
from repro.core.adaptive_ttl import AdaptiveTTL, ChurnTracker
from repro.core.plan_cache import GroupSizeCache


# ----------------------------------------------------------------------
# ChurnTracker unit behaviour
# ----------------------------------------------------------------------


def test_tracker_rate_is_zero_for_unseen_keys() -> None:
    tracker = ChurnTracker(window=10.0)
    assert tracker.rate("g", now=0.0) == 0.0


def test_tracker_rate_builds_with_events_and_decays_after() -> None:
    tracker = ChurnTracker(window=10.0)
    for i in range(20):
        tracker.record("g", now=float(i))  # one event per second
    busy = tracker.rate("g", now=20.0)
    assert busy == pytest.approx(1.0, rel=0.5)  # converging toward 1/s
    quiet = tracker.rate("g", now=60.0)  # four windows of silence
    assert quiet < busy / 10


def test_global_events_raise_every_key() -> None:
    tracker = ChurnTracker(window=10.0)
    tracker.record_global(now=0.0)
    assert tracker.rate("anything", now=0.0) > 0.0
    assert tracker.rate("else", now=0.0) > 0.0


def test_tracker_rejects_bad_window() -> None:
    with pytest.raises(ValueError):
        ChurnTracker(window=0.0)


def test_tracker_prunes_to_bound() -> None:
    tracker = ChurnTracker(window=10.0, maxsize=8)
    for i in range(50):
        tracker.record(f"k{i}", now=float(i))
    assert len(tracker) <= 8


# ----------------------------------------------------------------------
# AdaptiveTTL clamping (the satellite contract)
# ----------------------------------------------------------------------


def test_zero_churn_yields_exactly_the_max_bound() -> None:
    policy = AdaptiveTTL(2.0, 30.0)
    assert policy.ttl_for("g", now=0.0) == 30.0


def test_extreme_churn_clamps_to_the_min_bound() -> None:
    policy = AdaptiveTTL(2.0, 30.0, ChurnTracker(window=10.0))
    for _ in range(1000):  # a storm: rate far above 1/min
        policy.observe("g", now=0.0)
    assert policy.ttl_for("g", now=0.0) == 2.0
    # An unrelated key is unaffected by per-key churn.
    assert policy.ttl_for("other", now=0.0) == 30.0


def test_moderate_churn_interpolates_between_the_bounds() -> None:
    policy = AdaptiveTTL(1.0, 60.0, ChurnTracker(window=10.0))
    for i in range(100):
        policy.observe("g", now=float(i) * 0.1)  # ~10 events/sec... decays
    ttl = policy.ttl_for("g", now=10.0)
    assert 1.0 <= ttl <= 60.0
    # The mapping is 1/rate inside the bounds.
    rate = policy.tracker.rate("g", now=10.0)
    assert ttl == pytest.approx(
        min(60.0, max(1.0, 1.0 / rate))
    )


def test_min_above_max_uses_the_intersection() -> None:
    policy = AdaptiveTTL(50.0, 10.0)
    assert policy.ttl_min == 10.0
    assert policy.ttl_for("g", now=0.0) == 10.0


def test_bad_bounds_are_rejected() -> None:
    with pytest.raises(ValueError):
        AdaptiveTTL(1.0, 0.0)
    with pytest.raises(ValueError):
        AdaptiveTTL(-1.0, 10.0)


# ----------------------------------------------------------------------
# cache integration: per-entry TTLs
# ----------------------------------------------------------------------


def _entry_ttl(cache: GroupSizeCache, key: str) -> float:
    cost, expires_at = cache._entries[key]
    return expires_at


def test_size_cache_assigns_per_entry_ttls() -> None:
    assigned: list[float] = []
    policy = AdaptiveTTL(5.0, 60.0, ChurnTracker(window=10.0))
    cache = GroupSizeCache(
        ttl=60.0, ttl_policy=policy, on_ttl=assigned.append
    )
    cache.put("stable", 10.0, now=0.0)
    assert _entry_ttl(cache, "stable") == 60.0  # zero churn: max bound
    # A fresh estimate that moved counts as churn for that key...
    for i in range(200):
        cache.put("flappy", 10.0 + i, now=0.0)
    assert _entry_ttl(cache, "flappy") == 5.0  # storm: min bound
    # ...while the stable key's next refresh keeps the max.
    cache.put("stable", 10.0, now=0.0)
    assert _entry_ttl(cache, "stable") == 60.0
    assert assigned and min(assigned) == 5.0 and max(assigned) == 60.0


# ----------------------------------------------------------------------
# the uncached configurations
# ----------------------------------------------------------------------

TEXT = "SELECT COUNT(*) WHERE g = true"


def test_uncached_configs_reproduce_the_seed() -> None:
    fc = FrontendConfig.uncached()
    assert fc.size_cache_ttl == 0.0 and not fc.adaptive_size_ttl
    mc = MoaraConfig.uncached()
    assert not mc.share_executions
    c = MoaraCluster(
        16, seed=97, config=mc, frontend_config=fc
    )
    c.set_group("g", c.node_ids[:4])
    assert c.query(TEXT).value == 4
    assert sum(c.stats.adaptive_ttl_hist.values()) == 0
