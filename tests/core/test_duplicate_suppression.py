"""The node's duplicate-suppression memory ends with the queries.

Every share a front-end dispatches is stamped ``(origin, n, floor)``:
``origin`` names the front-end incarnation, ``n`` the share, and
``floor`` the oldest share of that origin whose end the front-end has
not heard.  ``MoaraNode`` keys what it processed and what it contributed
to by ``(origin, n)``, and a higher floor retires what lies below it.
The contract pinned here: a duplicate is suppressed while its share is
unheard, a node in two cover groups contributes once, a delivery below
the floor is answered empty and goes no further (at a root it neither
walks nor joins), and the memory stops growing once the workload
repeats.  A front-end restarted under a reused node id is a new origin,
so its queries are not mistaken for the old incarnation's.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.campaigns.planes import LoopbackPlane
from repro.core import messages as mt
from repro.core.cluster import MoaraCluster
from repro.core.frontend import Frontend
from repro.core.parser import parse_query
from repro.serve.transport import LinkFault
from repro.sim.network import Message

CALLER = -99
ORIGIN = "test"
COMPOSITE = "SELECT COUNT(*) WHERE a = true OR b = true"


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
    cluster = MoaraCluster(num_nodes=1, num_frontends=0)
    (node_id,) = cluster.overlay.node_ids
    cluster.set_group("a", [node_id])
    cluster.set_group("b", [node_id])
    caller = _Caller()
    cluster.network.attach(caller)
    return cluster, cluster.nodes[node_id], caller


def _deliver(
    cluster, node, caller, n: int, floor: int, group: str = "a", origin: str = ORIGIN
) -> dict:
    """Deliver share ``n`` of ``origin`` (stamped with ``floor``) down
    ``group``'s tree; returns the node's reply payload."""
    query = parse_query(COMPOSITE)
    predicate = parse_query(f"SELECT COUNT(*) WHERE {group} = true").predicate
    payload = {
        "qid": f"sh-{n}",
        "seq": 1,
        "query": query,
        "predicate": predicate,
        "share": (origin, n, floor),
    }
    seen = len(caller.replies)
    node.handle_message(Message(mt.QUERY, CALLER, node.node_id, payload))
    cluster.run_until_idle()
    assert len(caller.replies) == seen + 1
    return caller.replies[-1]


def _empty(reply: dict) -> bool:
    return (reply["partial"], reply["contributors"]) == (None, 0)


def _shares(memory: dict) -> set:
    """An origin's seen and answered keys (not its floor and top)."""
    return {key for key in memory if type(key) is not str}


def _entries(cluster, origin=None) -> int:
    """Seen plus answered entries over every node (of one origin, or
    of all of them)."""
    return sum(
        len(_shares(memory))
        for node in cluster.nodes.values()
        for key, memory in node._memory.items()
        if origin is None or key == origin
    )


def test_duplicate_delivery_is_suppressed_while_its_share_is_unheard() -> None:
    cluster, node, caller = _single_node()
    assert _deliver(cluster, node, caller, 1, floor=1)["contributors"] == 1
    assert _empty(_deliver(cluster, node, caller, 1, floor=1))
    # Share 2 goes out while share 1 is unheard: same floor, new share.
    assert _deliver(cluster, node, caller, 2, floor=1)["contributors"] == 1
    assert _empty(_deliver(cluster, node, caller, 1, floor=1))
    # Share 1 is heard: share 3's floor retires it, and only it.  Share
    # 2 sits exactly on the floor, so it is still remembered.
    assert _deliver(cluster, node, caller, 3, floor=2)["contributors"] == 1
    memory = node._memory[ORIGIN]
    assert memory["floor"] == 2
    assert _shares(memory) == {2, 3, -2, -3}  # seen, and answered
    assert _empty(_deliver(cluster, node, caller, 2, floor=2))
    # Everything heard: one step drops what the origin holds.
    assert _deliver(cluster, node, caller, 4, floor=4)["contributors"] == 1
    assert _shares(node._memory[ORIGIN]) == {4, -4}


def test_second_cover_tree_does_not_contribute_twice() -> None:
    cluster, node, caller = _single_node()
    first = _deliver(cluster, node, caller, 1, floor=1, group="a")
    assert first["contributors"] == 1
    # The same share down the cover's *other* tree is a new (share,
    # tree) pair -- processed, not bounced as a duplicate delivery --
    # but the node's value already went up the first tree.
    second = _deliver(cluster, node, caller, 1, floor=1, group="b")
    assert _empty(second)
    assert (1, second["pred_key"]) in node._memory[ORIGIN]
    # Across a retirement that keeps the share: its second tree still
    # finds the contribution.
    assert _deliver(cluster, node, caller, 2, floor=1, group="a")["contributors"] == 1
    assert _deliver(cluster, node, caller, 3, floor=2, group="a")["contributors"] == 1
    assert _empty(_deliver(cluster, node, caller, 2, floor=2, group="b"))
    # Share 3 of another origin is another share.
    other = _deliver(cluster, node, caller, 3, floor=3, group="b", origin="another")
    assert other["contributors"] == 1


def _internal_root(num_nodes: int = 24):
    """A cluster whose every node is in group ``a``, and the root of
    ``a``'s tree (it has children to forward to)."""
    cluster = MoaraCluster(num_nodes=num_nodes, num_frontends=0, seed=4)
    cluster.set_group("a", cluster.node_ids)
    cluster.set_group("b", [])
    root_id = cluster.overlay.root(cluster.overlay.space.hash_name("a"))
    caller = _Caller()
    cluster.network.attach(caller)
    return cluster, cluster.nodes[root_id], caller


def test_delivery_below_the_floor_gets_an_empty_reply_and_is_not_forwarded() -> None:
    cluster, node, caller = _internal_root()
    walked = _deliver(cluster, node, caller, 5, floor=5)
    assert walked["contributors"] == len(cluster)
    queries = cluster.stats.by_type[mt.QUERY]
    assert queries > 0
    # Share 3 was never delivered here, but the floor says its end was
    # heard: a late copy, answered like a duplicate and not walked.
    late = _deliver(cluster, node, caller, 3, floor=3)
    assert _empty(late)
    assert cluster.stats.by_type[mt.QUERY] == queries
    assert 3 not in node._memory[ORIGIN]


def test_root_neither_walks_nor_joins_for_a_frontend_query_below_the_floor() -> None:
    cluster, root, caller = _internal_root()
    query = parse_query("SELECT COUNT(*) WHERE a = true")
    cover = (query.predicate.canonical(),)

    def frontend_query(n: int, floor: int) -> Message:
        return Message(
            mt.FRONTEND_QUERY,
            CALLER,
            root.node_id,
            {
                "qid": f"sh-{n}",
                "query": query,
                "predicate": query.predicate,
                "cover": cover,
                "share": (ORIGIN, n, floor),
            },
        )

    # Share 4's walk starts and stays open (the engine has not run).
    root.handle_message(frontend_query(4, floor=4))
    assert len(root.inflight) == 1
    queries = cluster.stats.by_type[mt.QUERY]
    # A late copy of share 2 asks for the identical execution: it is
    # answered empty at once instead of joining the open walk.
    root.handle_message(frontend_query(2, floor=2))
    assert cluster.stats.root_subscriptions == 0
    assert cluster.stats.by_type[mt.FRONTEND_RESPONSE] == 1
    cluster.run_until_idle()
    replies = {reply["qid"]: reply for reply in caller.replies}
    assert _empty(replies["sh-2"])
    assert replies["sh-4"]["contributors"] == len(cluster)
    assert len(root.inflight) == 0
    # With nothing open, a below-floor request starts no walk either.
    walked = cluster.stats.by_type[mt.QUERY]
    assert walked >= queries > 0
    root.handle_message(frontend_query(3, floor=3))
    cluster.run_until_idle()
    assert _empty(caller.replies[-1])
    assert cluster.stats.by_type[mt.QUERY] == walked


def test_entry_count_stops_growing_once_the_waves_repeat() -> None:
    cluster = MoaraCluster(num_nodes=160, seed=12)
    ids = cluster.overlay.node_ids
    for g in range(6):
        cluster.set_group(f"g{g}", [ids[(g * 37 + i * 11) % 160] for i in range(24)])
    cluster.set_attribute_all("load", 2.0)
    wave = []
    for g in range(6):
        h = (g + 1) % 6
        wave += [
            f"SELECT COUNT(*) WHERE g{g} = true",
            f"SELECT AVG(load) WHERE g{g} = true OR g{h} = true",
            f"SELECT SUM(load) WHERE g{g} = true AND g{h} = true",
        ]
    counts = {}
    for n in range(1, 21):
        results = cluster.query_concurrent(wave)
        assert not any(r.failed for r in results)
        counts[n] = _entries(cluster)
    assert counts[5] > 0
    assert counts[5] == counts[20]


def test_frontend_restarted_under_a_reused_node_id_gets_exact_answers() -> None:
    cluster = MoaraCluster(num_nodes=200, seed=3)
    cluster.set_group("web", cluster.node_ids[::5])  # 40 members
    text = "SELECT COUNT(*) WHERE web = true"
    for _ in range(3):
        assert cluster.query(text).value == 40
    old = cluster.frontend
    cluster.network.detach(old.node_id)
    fresh = Frontend(
        cluster.network,
        cluster.overlay,
        node_id=old.node_id,
        semantics=cluster.semantics,
    )
    for _ in range(3):
        qid = fresh.submit(text)
        cluster.run_until_idle()
        result = fresh.results.pop(qid)
        assert (result.value, result.failed) == (40, False)
        # Its tags are new too: the dead one's drained tags (tombstoned
        # in the message ledger) would have read 0 messages.
        assert result.message_cost > 0


def test_link_reset_rolls_the_origin_and_spares_the_joined_walk() -> None:
    plane = LoopbackPlane(200, seed=6, num_frontends=2, latency="lan")
    plane.set_group("web", plane.node_ids[::5])  # 40 members
    plane.set_group("db", plane.node_ids[1::20])  # 10 members
    text = "SELECT COUNT(*) WHERE web = true"
    fe0, fe1 = plane.frontends
    link0 = plane.transports[0]
    for fe in (fe0, fe1):  # trees formed, sizes cached
        qid = fe.submit(text)
        plane._drive([(fe, qid)])
        assert fe.results.pop(qid).value == 40
    cluster = plane.cluster
    root = cluster.nodes[cluster.overlay.root(cluster.overlay.space.hash_name("web"))]
    # Front-end 0's share starts walking; front-end 1's identical
    # request joins it at the root.
    first = fe0.submit(text)
    while not len(root.inflight):
        cluster.engine.step()
    abandoned = fe0._origin
    joined = fe1.submit(text)
    subscriptions = cluster.stats.root_subscriptions
    while cluster.stats.root_subscriptions == subscriptions:
        cluster.engine.step()
    assert len(root.inflight) == 1, "the walk is still running"
    # Front-end 0's link dies mid-walk: its share resolves NULL, and its
    # origin is abandoned with the walk still running for front-end 1.
    link0.reset_link(duration=1.0)
    plane._drive([(fe0, first), (fe1, joined)])
    assert fe0.results.pop(first).failed
    answer = fe1.results.pop(joined)
    assert (answer.value, answer.failed, answer.root_shared) == (40, False, True)
    left = _entries(cluster, abandoned)
    assert left > 0
    # Front-end 0 goes on, over other trees too: none of it touches
    # what the nodes keep of the abandoned origin.
    plane.advance(1.0)
    for n in range(20):
        qid = fe0.submit(text if n % 2 else "SELECT COUNT(*) WHERE db = true")
        plane._drive([(fe0, qid)])
        assert fe0.results.pop(qid).value == (40 if n % 2 else 10)
    assert _entries(cluster, abandoned) == left
    assert fe0._origin != abandoned


def test_a_node_keeps_the_memory_of_at_most_64_origins() -> None:
    cluster, node, caller = _single_node()
    assert _deliver(cluster, node, caller, 1, floor=1)["contributors"] == 1
    # 100 origins each leave an unheard share behind (failed over, say),
    # while the live origin keeps coming back.
    for k in range(100):
        _deliver(cluster, node, caller, 1, floor=1, origin=f"gone{k}")
        if k % 10 == 0:
            assert _deliver(cluster, node, caller, 2 + k, floor=1)["contributors"] == 1
    assert len(node._memory) == 64
    assert set(node._memory) == {ORIGIN} | {f"gone{k}" for k in range(37, 100)}
    # What the live origin holds was never dropped: its unheard share
    # is still suppressed.
    assert _empty(_deliver(cluster, node, caller, 1, floor=1))


def test_lost_frontend_queries_leave_a_bounded_memory() -> None:
    plane = LoopbackPlane(120, seed=9, num_frontends=1)
    plane.set_group("web", plane.node_ids[::4])  # 30 members
    plane.set_group("db", plane.node_ids[1::12])  # 10 members
    (fe,) = plane.frontends
    link = plane.transports[0]
    cluster = plane.cluster

    def ask(text: str):
        qid = fe.submit(text)
        plane._drive([(fe, qid)])
        return fe.results.pop(qid)

    counts, origins = {}, set()
    for round_ in range(1, 101):
        # The FRONTEND_QUERY is lost on its way to the root, so its share
        # is never heard; the plane resolves it NULL once nothing else
        # moves (on sockets, the transport's deadline sweep does).
        link.inject(LinkFault("drop", "outbound", until=cluster.engine.now + 0.5))
        assert ask("SELECT COUNT(*) WHERE web = true").failed
        plane.advance(1.0)
        assert ask("SELECT COUNT(*) WHERE web = true").value == 30
        assert ask("SELECT COUNT(*) WHERE db = true").value == 10
        origins.add(fe._origin)
        counts[round_] = _entries(cluster)
    assert len(origins) == 100  # every loss moved the front-end on
    assert max(len(node._memory) for node in cluster.nodes.values()) == 64
    assert counts[70] == counts[100]


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
    # touched, ~1.5 KB with generational membership maps; retiring
    # below the floor keeps only the last query's entries.
    assert retained / queries < 2500
