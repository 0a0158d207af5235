"""Standing queries vs naive re-polling under sustained attribute churn.

The standing plane's efficiency claim: once delta subscriptions are
installed down a query's cover trees, keeping the answer fresh costs
only the *changed paths* (each write pushes a replacement partial up
one root path, suppressed when nothing changed), while the one-shot
plane must re-walk the cover trees every time somebody wants a fresh
answer.

Both legs run the identical churn schedule (same seed) and are read at
identical freshness points -- once per churn round, after the plane
quiesces -- so the comparison is message cost at *equal update
latency*:

* **standing**: register once, then read the folded answer off the
  handle (zero wire cost per read; deltas already paid for it);
* **polling**: re-issue the one-shot query every round.

The standing leg is differentially checked against the centralized
recompute every round (the same invariant the campaign oracle
enforces); the benchmark asserts standing delta traffic lands strictly
below re-polling traffic.
"""

from __future__ import annotations

import random

from repro.baselines.centralized import centralized_answer
from repro.campaigns.oracle import values_equal
from repro.core import MoaraCluster

from conftest import full_scale, run_once, tiny_scale

if tiny_scale():
    NUM_NODES, ROUNDS = 48, 6
elif full_scale():
    NUM_NODES, ROUNDS = 512, 60
else:
    NUM_NODES, ROUNDS = 192, 24

#: per round: value writes on random nodes + group membership flips.
WRITES_PER_ROUND = 6
FLIPS_PER_ROUND = 2
QUERY = "SELECT SUM(load) WHERE svc = true"
SEED = 311


def _build(seed: int) -> MoaraCluster:
    cluster = MoaraCluster(NUM_NODES, seed=seed)
    ids = cluster.node_ids
    cluster.set_group("svc", ids[: NUM_NODES // 3])
    for index, node_id in enumerate(ids):
        cluster.set_attribute(node_id, "load", float(index % 10))
    cluster.run_until_idle()
    return cluster


def _churn_round(cluster: MoaraCluster, rng: random.Random) -> None:
    ids = cluster.node_ids
    for _ in range(WRITES_PER_ROUND):
        cluster.set_attribute(rng.choice(ids), "load", rng.uniform(0.0, 10.0))
    for _ in range(FLIPS_PER_ROUND):
        node_id = rng.choice(ids)
        member = bool(cluster.nodes[node_id].attributes.get("svc", False))
        cluster.set_attribute(node_id, "svc", not member)
    cluster.run_until_idle()


def _ground_truth(cluster: MoaraCluster, query) -> object:
    return centralized_answer(
        query, [(nid, node.attributes) for nid, node in cluster.nodes.items()]
    )


def run_standing_churn() -> dict:
    """Both legs over the identical schedule; per-leg message totals."""
    # -- standing leg --------------------------------------------------
    cluster = _build(SEED)
    frontend = cluster.frontends[0]
    handle = frontend.subscribe(QUERY)
    cluster.run_until_idle()  # installs flood once; excluded from deltas
    # The subscribe cost, read before the reset: one SUB_INSTALL per node
    # plus the first reports (only subtrees holding a member send one).
    install_msgs = cluster.stats.total_messages
    install_deltas = cluster.stats.by_type["SUB_DELTA"]
    cluster.stats.reset()
    rng = random.Random(SEED + 1)
    mismatches = 0
    for _ in range(ROUNDS):
        _churn_round(cluster, rng)
        if not values_equal(
            handle.current_value(), _ground_truth(cluster, handle.query)
        ):
            mismatches += 1
    standing_msgs = cluster.stats.total_messages
    standing_updates = cluster.stats.standing_updates

    # -- polling leg ---------------------------------------------------
    cluster = _build(SEED)
    cluster.query(QUERY)  # warm the plan and the group probe
    cluster.stats.reset()
    rng = random.Random(SEED + 1)
    for _ in range(ROUNDS):
        _churn_round(cluster, rng)
        cluster.query(QUERY)
    polling_msgs = cluster.stats.total_messages

    return {
        "nodes": NUM_NODES,
        "rounds": ROUNDS,
        "standing_msgs": standing_msgs,
        "standing_updates": standing_updates,
        "polling_msgs": polling_msgs,
        "ratio": standing_msgs / polling_msgs if polling_msgs else 0.0,
        "mismatches": mismatches,
        "install_msgs": install_msgs,
        "install_deltas": install_deltas,
    }


def test_standing_beats_repolling_under_churn(benchmark, emit) -> None:
    row = run_once(benchmark, run_standing_churn)
    lines = [
        f"Standing deltas vs naive re-polling at equal freshness "
        f"(N={row['nodes']}, {row['rounds']} churn rounds, "
        f"{WRITES_PER_ROUND} writes + {FLIPS_PER_ROUND} flips/round)",
        f"{'leg':>12s}{'wire msgs':>12s}{'msgs/round':>12s}",
        f"{'standing':>12s}{row['standing_msgs']:>12d}"
        f"{row['standing_msgs'] / row['rounds']:>12.1f}",
        f"{'polling':>12s}{row['polling_msgs']:>12d}"
        f"{row['polling_msgs'] / row['rounds']:>12.1f}",
        f"standing/polling ratio: {row['ratio']:.3f}",
        f"subscribe (before the rounds): {row['install_msgs']} msgs, "
        f"of which {row['install_deltas']} first-report deltas",
    ]
    emit("standing_churn", lines)

    # The folded answer must equal the centralized recompute at every
    # quiesced read point -- correctness before efficiency.
    assert row["mismatches"] == 0
    # The headline claim: keeping the answer fresh by deltas is strictly
    # cheaper than re-walking the cover trees each round.
    assert row["standing_msgs"] < row["polling_msgs"]
