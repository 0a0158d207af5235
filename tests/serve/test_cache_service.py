"""Cache service: the shared-tier protocol over real TCP."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.serve.cache_service import CacheService, RemoteSizeTier
from repro.serve.fleet import ServiceThread
from repro.serve.protocol import SyncRpcChannel


@pytest.fixture
def service():
    thread = ServiceThread("cache-service-test")
    service = CacheService(ttl=60.0, join_window=5.0)
    thread.call(service.start())
    yield service
    try:
        thread.call(service.close(), timeout=5.0)
    finally:
        thread.stop()


def _rpc(service: CacheService, shard: int) -> SyncRpcChannel:
    channel = SyncRpcChannel("127.0.0.1", service.port)
    channel.connect()
    welcome = channel.request(
        {"kind": "hello", "mode": "rpc", "shard": shard}
    )
    assert welcome["kind"] == "welcome"
    return channel


async def _until(check, timeout: float = 3.0) -> None:
    """Yield to the loop (pushes are read there) until ``check`` holds."""
    deadline = time.monotonic() + timeout
    while not check():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def _ledger(service: CacheService) -> int:
    """Operations the service itself served (the ledger benchmark's
    ``cache_service.rpcs_per_query`` numerator)."""
    stats = service.stats_snapshot()
    return sum(
        stats[k] for k in ("hits", "misses", "publishes", "single_writer_drops")
    )


def test_get_put_and_single_writer_rule(service) -> None:
    key = "(web = true)"
    shard_a, shard_b = 0, 1
    rpc_a, rpc_b = _rpc(service, shard_a), _rpc(service, shard_b)
    try:
        owner = service.tier.router.owner(key)
        non_owner = shard_b if owner == shard_a else shard_a
        rpc_owner = rpc_a if owner == shard_a else rpc_b
        rpc_other = rpc_b if owner == shard_a else rpc_a
        # Anyone may fill a cold entry.
        reply = rpc_other.request(
            {"kind": "put", "key": key, "cost": 60.0, "shard": non_owner}
        )
        assert reply["applied"] is True
        # A non-owner must NOT overwrite a live entry...
        reply = rpc_other.request(
            {"kind": "put", "key": key, "cost": 999.0, "shard": non_owner}
        )
        assert reply["applied"] is False
        # ...the owner may.
        reply = rpc_owner.request(
            {"kind": "put", "key": key, "cost": 70.0, "shard": owner}
        )
        assert reply["applied"] is True
        reply = rpc_a.request({"kind": "get", "key": key, "shard": shard_a})
        assert reply["cost"] == 70.0
        stats = rpc_a.request({"kind": "stats"})["stats"]
        assert stats["single_writer_drops"] == 1
        assert stats["entries"] == 1
    finally:
        rpc_a.close()
        rpc_b.close()


def test_probe_registry_pushes_resolution_to_joined_shard(service) -> None:
    key = "(db = true)"

    async def scenario():
        # Shard 1 keeps a subscription connection open (like a real
        # front-end); shard 0 is the prober and needs RPC only.
        tier1 = RemoteSizeTier("127.0.0.1", service.port, shard=1)
        await tier1.start()
        rpc0 = _rpc(service, 0)
        try:
            rpc0.request(
                {"kind": "open", "key": key, "shard": 0, "tag": "pr-1"}
            )
            # Shard 1 misses, finds shard 0's probe in flight, joins it.
            got: list = []
            joined = tier1.join_probe(
                key, 1, 0, lambda k, cost, now: got.append((k, cost))
            )
            assert joined is True
            # A shard never joins its own probe.
            reply = rpc0.request({"kind": "join", "key": key, "shard": 0})
            assert reply["joined"] is False
            # The prober resolves; shard 1's callback fires via the push.
            reply = rpc0.request(
                {"kind": "resolve", "key": key, "tag": "pr-1", "cost": 42.0}
            )
            assert reply["resolved"] is True
            await _until(lambda: got)
            assert got == [(key, 42.0)]
            # The answer was force-published cluster-wide.
            assert tier1.get(key, 0.0, shard=1) == 42.0
            # A stale tag cannot resolve twice.
            reply = rpc0.request(
                {"kind": "resolve", "key": key, "tag": "pr-1", "cost": 7.0}
            )
            assert reply["resolved"] is False
        finally:
            rpc0.close()
            await tier1.close()

    asyncio.run(scenario())


def test_join_window_expires_stale_probes() -> None:
    thread = ServiceThread("cache-window-test")
    service = CacheService(ttl=60.0, join_window=0.05)
    thread.call(service.start())
    try:
        rpc0, rpc1 = _rpc(service, 0), _rpc(service, 1)
        try:
            rpc0.request(
                {"kind": "open", "key": "(g = true)", "shard": 0, "tag": "t"}
            )
            time.sleep(0.15)  # older than the join window
            reply = rpc1.request(
                {"kind": "join", "key": "(g = true)", "shard": 1}
            )
            assert reply["joined"] is False
        finally:
            rpc0.close()
            rpc1.close()
    finally:
        try:
            thread.call(service.close(), timeout=5.0)
        finally:
            thread.stop()


def test_remote_tier_degrades_to_private_behaviour_when_service_dies() -> None:
    thread = ServiceThread("cache-degrade-test")
    service = CacheService(ttl=60.0)
    thread.call(service.start())

    async def scenario():
        tier = RemoteSizeTier("127.0.0.1", service.port, shard=0)
        await tier.start()
        assert tier.put("(k = true)", 10.0, 0.0, shard=0) is True
        assert tier.get("(k = true)", 0.0, shard=0) == 10.0
        assert tier.l1_stats()["l1_entries"] == 1
        # Kill the service.  The push stream dies with it, and a lease
        # nothing keeps coherent is not served: the L1 is flushed.
        flushes = tier.l1_flushes
        thread.call(service.close(), timeout=5.0)
        await _until(lambda: tier.l1_flushes > flushes)
        assert tier.l1_stats()["l1_entries"] == 0
        assert tier.link_health()["state"] == "degraded"
        # Every call degrades, none raises.
        assert tier.get("(k = true)", 0.0, shard=0) is None
        assert tier.put("(k = true)", 11.0, 0.0, shard=0) is False
        assert tier.join_probe("(k = true)", 0, 0, lambda *a: None) is False
        assert tier.resolve_probe("(k = true)", "t", 5.0, 0.0) is None
        tier.open_probe("(k = true)", 0, "t", 0)  # no-op, no raise
        assert tier.l1_stats()["l1_entries"] == 0
        await tier.close()

    try:
        asyncio.run(scenario())
    finally:
        thread.stop()


def test_service_learns_shards_and_rebuilds_router(service) -> None:
    assert len(service.tier.router) == 0
    rpc5 = _rpc(service, 5)
    rpc9 = _rpc(service, 9)
    try:
        assert service.tier.router.members == {5, 9}
        # owner() now works over the learned membership.
        assert service.tier.router.owner("(x = true)") in {5, 9}
    finally:
        rpc5.close()
        rpc9.close()


# ---------------------------------------------------------------------
# the lease-holding L1 in front of the service
# ---------------------------------------------------------------------


@pytest.fixture
def pair():
    """A two-shard service (ring pinned, fixed 60 s TTL, fake clock) and
    a started client per shard, as ``(service, clock, tiers, run)``."""
    thread = ServiceThread("cache-l1-test")
    service = CacheService(num_shards=2, ttl=60.0, adaptive=False)
    clock = [100.0]
    service.now = lambda: clock[0]  # type: ignore[method-assign]
    thread.call(service.start())
    tiers = [RemoteSizeTier("127.0.0.1", service.port, shard=s) for s in (0, 1)]

    def run(scenario) -> None:
        async def wrapped():
            for tier in tiers:
                await tier.start()
            try:
                await scenario()
            finally:
                for tier in tiers:
                    await tier.close()

        asyncio.run(wrapped())

    yield service, clock, tiers, run
    try:
        thread.call(service.close(), timeout=5.0)
    finally:
        thread.stop()


def _owned_key(service: CacheService, shard: int) -> str:
    return next(
        key
        for key in (f"(g{i} = true)" for i in range(64))
        if service.tier.router.owner(key) == shard
    )


def test_second_shard_sees_a_changed_cost_after_the_drop_push(pair) -> None:
    service, clock, (owner, other), run = pair
    key = _owned_key(service, 0)

    async def scenario():
        assert owner.put(key, 10.0, 0.0, shard=0) is True
        assert other.get(key, 0.0, shard=1) == 10.0  # RPC: takes a lease
        assert other.get(key, 0.0, shard=1) == 10.0  # served by the lease
        assert other.l1_hits == 1
        # The owner's estimate moves.  A changed cost always goes to the
        # service, which pushes `drop` to the other shard *before* it
        # answers the owner ...
        assert owner.put(key, 14.0, 1.0, shard=0) is True
        # ... but the other shard reads its pushes on this loop, which
        # has not run since: the superseded cost is visible for exactly
        # that long (one push latency), and within the lease bound.
        assert other.get(key, 1.0, shard=1) == 10.0
        await _until(lambda: other.l1_stats()["l1_entries"] == 0)
        assert other.get(key, 1.0, shard=1) == 14.0
        # The writer's own lease came with its reply, not with a push.
        assert owner.get(key, 1.0, shard=0) == 14.0
        assert owner.l1_hits == 1

    run(scenario)


def test_a_lost_push_is_bounded_by_the_lease(pair) -> None:
    service, clock, (owner, other), run = pair
    key = _owned_key(service, 0)

    async def scenario():
        owner.put(key, 10.0, 0.0, shard=0)
        assert other.get(key, 5.0, shard=1) == 10.0
        owner.put(key, 14.0, 6.0, shard=0)
        # Never yield, so the `drop` is never read: the old cost is
        # served up to the lease's end and not a moment longer.
        assert other.get(key, 65.0, shard=1) == 10.0
        clock[0] += 30.0
        assert other.get(key, 65.1, shard=1) == 14.0

    run(scenario)


def test_a_lease_never_outlives_the_service_entry(pair) -> None:
    service, clock, (owner, other), run = pair
    key = _owned_key(service, 0)

    def entry_live(elapsed: float) -> bool:
        return service.tier.lease(key, 100.0 + elapsed, 0)["lease"] is not None

    async def scenario():
        # t = 0: the owner fills.  Its clock reads 7.0, the service's
        # 100.0; the entry lives until service time 160.0 (t = 60).
        owner.put(key, 10.0, 7.0, shard=0)
        # t = 25 on the second shard's clock (which reads t itself): it
        # fills from a `get` that spends 2 s on the way, so the service
        # handles it at 127.0 and grants the 33 s that remain.  Anchored
        # at the `now` from *before* the round trip, that lease ends at
        # t = 58, inside the entry's life, not at t = 60 + 2.
        clock[0] = 127.0
        assert other.get(key, 25.0, shard=1) == 10.0
        for t in (0.0, 30.0, 57.9, 58.0, 58.1, 60.0, 60.1, 90.0):
            for tier, offset, ends in ((owner, 7.0, 60.0), (other, 0.0, 58.0)):
                live = tier._live(key, offset + t) is not None
                assert live == (t <= ends)
                assert entry_live(t) or not live

    run(scenario)


def test_local_writer_drop_is_the_shared_tiers_decision(pair) -> None:
    import random

    from repro.core.plan_cache import SharedGroupSizeCache
    from repro.core.shard_router import FrontendShardRouter

    service, clock, tiers, run = pair
    reference = SharedGroupSizeCache(router=FrontendShardRouter(2), ttl=60.0)
    rng = random.Random(2008)
    keys = [f"(g{i} = true)" for i in range(6)]
    # Inside half a TTL nothing expires and no refresh is due, so the
    # client + service pair must be indistinguishable from the tier.
    ops = [
        (
            rng.random() * 25.0,
            rng.choice(("get", "put", "put")),
            rng.randrange(2),
            rng.choice(keys),
            float(rng.choice((10, 10, 10, 12, 14))),
        )
        for _ in range(400)
    ]
    ops.sort()

    async def scenario():
        for at, op, shard, key, cost in ops:
            clock[0] = 100.0 + at
            tier, other = tiers[shard], tiers[1 - shard]
            if op == "get":
                assert tier.get(key, at, shard) == reference.get(key, at, shard)
                continue
            before = reference.get(key, at, shard)
            applied = reference.put(key, cost, at, shard)
            assert tier.put(key, cost, at, shard) is applied
            if applied and before not in (None, cost):
                await _until(lambda: key not in other._leases)
        dropped = sum(t.local_writer_drops for t in tiers)
        assert dropped > 50
        assert (
            dropped + service.tier.single_writer_drops
            == reference.single_writer_drops
        )
        assert sum(t.refreshes_skipped for t in tiers) > 50

    run(scenario)


def test_admitting_a_new_shard_flushes_every_l1(service) -> None:
    async def scenario():
        tiers = [
            RemoteSizeTier("127.0.0.1", service.port, shard=s) for s in (0, 1)
        ]
        for tier in tiers:
            await tier.start()
        try:
            # Shard 1's own admission flushed shard 0 once already.
            await _until(lambda: tiers[0].l1_flushes == 1)
            for tier in tiers:
                tier.put(f"(k{tier.shard} = true)", 10.0, 0.0, tier.shard)
                tier.get("(k0 = true)", 0.0, tier.shard)
                assert tier.l1_stats()["l1_entries"] >= 1
            before = [tier.l1_flushes for tier in tiers]
            # Ownership moves when the ring grows: the "am I the
            # writer?" bit of every lease out there is suspect.
            rpc7 = _rpc(service, 7)
            try:
                await _until(
                    lambda: all(
                        t.l1_flushes == b + 1 for t, b in zip(tiers, before)
                    )
                )
                assert all(t.l1_stats()["l1_entries"] == 0 for t in tiers)
                # A shard the ring already knows moves nothing.
                _rpc(service, 7).close()
                await asyncio.sleep(0.05)
                assert [t.l1_flushes for t in tiers] == [b + 1 for b in before]
            finally:
                rpc7.close()
        finally:
            for tier in tiers:
                await tier.close()

    asyncio.run(scenario())


def test_stale_drop_after_a_fresher_fill_costs_one_miss(pair) -> None:
    service, clock, (owner, other), run = pair
    key = _owned_key(service, 0)

    async def scenario():
        owner.put(key, 10.0, 0.0, shard=0)
        owner.put(key, 14.0, 1.0, shard=0)  # `drop` now queued for `other`
        # The service saw the write first: this fill is already fresh.
        assert other.get(key, 1.0, shard=1) == 14.0
        assert other.l1_stats()["l1_entries"] == 1
        served = _ledger(service)
        # The stale `drop` lands on the good lease ...
        await _until(lambda: other.l1_stats()["l1_entries"] == 0)
        # ... which costs exactly one more trip to the service,
        assert other.get(key, 1.0, shard=1) == 14.0
        assert _ledger(service) == served + 1
        # and nothing else: the lease is back, the answer never wavered.
        assert other.get(key, 1.0, shard=1) == 14.0
        assert _ledger(service) == served + 1
        assert other.l1_hits == 1

    run(scenario)


def test_warm_repeat_of_a_three_group_query_makes_no_rpc(service) -> None:
    from repro.core.cluster import MoaraCluster
    from repro.core.frontend import Frontend
    from repro.serve.transport import LocalLoopback

    backend = MoaraCluster(num_nodes=60, num_frontends=0, seed=11)
    ids = backend.overlay.node_ids
    for name, members in (("a", ids[:20]), ("b", ids[10:30]), ("c", ids[5:40])):
        backend.set_group(name, members)
    text = "SELECT COUNT(*) WHERE (a = true OR b = true) AND c = true"

    async def scenario():
        # A second shard on the ring, so shard 0 is the writer of some
        # of the three groups and not of others: both local paths run.
        _rpc(service, 1).close()
        tier = RemoteSizeTier("127.0.0.1", service.port, shard=0)
        await tier.start()
        try:
            transport = LocalLoopback(backend, node_id=-1)
            frontend = Frontend(
                transport, backend.overlay, node_id=-1, shared_sizes=tier
            )

            def ask() -> int:
                qid = frontend.submit(text)
                while qid not in frontend.results:
                    transport.pump()
                return frontend.results.pop(qid).value

            cold = ask()
            assert ask() == cold  # leases taken from the piggybacked puts
            served = _ledger(service)
            requests = []
            send = tier.rpc.request
            tier.rpc.request = lambda *a, **kw: (  # type: ignore[method-assign]
                requests.append(a),
                send(*a, **kw),
            )[1]
            stats = frontend.size_cache.stats
            hits, misses = stats.hits, stats.misses
            for _ in range(5):
                assert ask() == cold
            assert requests == []
            assert _ledger(service) == served
            assert (stats.hits, stats.misses) == (hits + 15, misses)
            l1 = tier.l1_stats()
            assert l1["l1_hits"] >= 15 and l1["l1_entries"] == 3
            assert l1["local_writer_drops"] + l1["refreshes_skipped"] >= 5
        finally:
            await tier.close()

    asyncio.run(scenario())
