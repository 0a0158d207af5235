"""The node's duplicate-suppression memory: two generations, no expiries.

``MoaraNode`` remembers which ``(qid, tree)`` pairs it processed and
which qids it already contributed to in two generations of plain
membership maps, rotated every ``answered_ttl`` on the engine clock.
The contract pinned here: every decision *inside* ``answered_ttl`` is
the one per-entry expiry times made (a rotation is invisible), nothing
older than two TTLs survives, and a query leaves well under 2.5 KB
behind on a 512-node cluster.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.core import messages as mt
from repro.core.cluster import MoaraCluster
from repro.core.moara_node import MoaraConfig
from repro.core.parser import parse_query
from repro.sim.network import Message

TTL = 10.0
CALLER = -99


class _Caller:
    """Stands where a parent (or front-end) would: records the replies."""

    node_id = CALLER

    def __init__(self) -> None:
        self.replies: list[dict] = []

    def handle_message(self, message: Message) -> None:
        self.replies.append(message.payload)


def _single_node():
    """One node in groups ``a`` and ``b``: the root and only member of
    both trees, so its reply is exactly its own contribution."""
    cluster = MoaraCluster(
        num_nodes=1, num_frontends=0, config=MoaraConfig(answered_ttl=TTL)
    )
    (node_id,) = cluster.overlay.node_ids
    cluster.set_group("a", [node_id])
    cluster.set_group("b", [node_id])
    caller = _Caller()
    cluster.network.attach(caller)
    return cluster, cluster.nodes[node_id], caller


def _deliver(cluster, node, caller, qid: str, group: str, at: float) -> dict:
    """Deliver QUERY ``qid`` for ``group``'s tree at engine time ``at``;
    returns the node's reply payload."""
    if at > cluster.engine.now:
        cluster.engine.run(until=at)
    query = parse_query("SELECT COUNT(*) WHERE a = true OR b = true")
    predicate = parse_query(f"SELECT COUNT(*) WHERE {group} = true").predicate
    seen = len(caller.replies)
    node.handle_message(
        Message(
            mt.QUERY,
            CALLER,
            node.node_id,
            {"qid": qid, "seq": 1, "query": query, "predicate": predicate},
        )
    )
    cluster.run_until_idle()
    assert len(caller.replies) == seen + 1
    return caller.replies[-1]


def test_duplicate_query_is_suppressed_across_a_rotation() -> None:
    cluster, node, caller = _single_node()
    first = _deliver(cluster, node, caller, "q1", "a", at=9.8)
    assert first["contributors"] == 1
    # Immediately before the rotation (due at 10.0) ...
    again = _deliver(cluster, node, caller, "q1", "a", at=9.9)
    assert (again["partial"], again["contributors"]) == (None, 0)
    # ... and immediately after it: q1 is 0.3 s old, in the previous
    # generation now, and still a duplicate.
    again = _deliver(cluster, node, caller, "q1", "a", at=10.1)
    assert (again["partial"], again["contributors"]) == (None, 0)
    assert "q1" not in node._seen
    assert node._seen_old["q1"] == first["pred_key"]
    # The whole TTL long (per-entry expiry: suppressed through t = 19.8).
    again = _deliver(cluster, node, caller, "q1", "a", at=19.8)
    assert (again["partial"], again["contributors"]) == (None, 0)


def test_second_cover_group_is_suppressed_across_a_rotation() -> None:
    cluster, node, caller = _single_node()
    before = _deliver(cluster, node, caller, "q-before", "a", at=9.7)
    later = _deliver(cluster, node, caller, "q-across", "a", at=9.9)
    assert before["contributors"] == later["contributors"] == 1
    # The same qid arriving down the cover's *other* tree is a new
    # (qid, tree) pair -- it is processed, not bounced as a duplicate
    # delivery -- but the node's value already went up the first tree.
    second = _deliver(cluster, node, caller, "q-before", "b", at=9.95)
    assert (second["partial"], second["contributors"]) == (None, 0)
    assert ("q-before", second["pred_key"]) in node._seen
    second = _deliver(cluster, node, caller, "q-across", "b", at=10.05)
    assert (second["partial"], second["contributors"]) == (None, 0)
    assert node._seen["q-across"] == second["pred_key"]
    assert "q-across" in node._answered_old
    # A qid that never came contributes, either side of the rotation.
    assert _deliver(cluster, node, caller, "q-new", "b", at=10.06)[
        "contributors"
    ] == 1


def test_nothing_older_than_two_ttls_survives() -> None:
    cluster, node, caller = _single_node()
    for n in range(50):
        _deliver(cluster, node, caller, f"early-{n}", "a", at=1.0 + n * 0.1)
    _deliver(cluster, node, caller, "mid", "a", at=12.0)  # rotates at 12.0
    assert len(node._answered_old) == 50
    # One TTL on, the early ids (11+ s old) are dropped; "mid" (10.5 s)
    # went to the previous generation.
    _deliver(cluster, node, caller, "late", "a", at=22.5)
    assert set(node._answered_old) == {"mid"}
    assert set(node._answered) == {"late"}
    # Idle for two TTLs and more: the next arrival finds only ids older
    # than the TTL in both generations, and keeps neither.
    _deliver(cluster, node, caller, "after-idle", "a", at=60.0)
    assert node._answered_old == {} and node._seen_old == {}
    assert set(node._answered) == {"after-idle"}
    assert list(node._seen) == ["after-idle"]
    # A recycled id from the forgotten era is, correctly, new again.
    assert _deliver(cluster, node, caller, "early-0", "a", at=60.1)[
        "contributors"
    ] == 1


def test_retained_bytes_per_query_on_512_nodes() -> None:
    cluster = MoaraCluster(num_nodes=512, seed=12)
    ids = cluster.overlay.node_ids
    for g in range(16):
        cluster.set_group(f"g{g}", [ids[(g * 31 + i * 7) % 512] for i in range(16)])
    cluster.set_attribute_all("load", 1.0)
    texts = []
    for i in range(24):
        a, b = i % 16, (i * 5 + 3) % 16
        texts.append(
            (
                f"SELECT COUNT(*) WHERE g{a} = true",
                f"SELECT COUNT(*) WHERE g{a} = true AND g{b} = true",
                f"SELECT AVG(load) WHERE g{a} = true OR g{b} = true",
            )[i % 3]
        )
    for text in texts * 2:  # plans, sizes and trees warm
        cluster.query(text)
    queries = 480
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for n in range(queries):
            cluster.query(texts[n % 24])
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(d.size_diff for d in after.compare_to(before, "filename"))
    # 4.65 KB with a (qid, pred_key) tuple key + expiry float per node
    # touched; ~1.5 KB with generational membership maps.
    assert retained / queries < 2500
