"""Golden dump of every node's per-predicate protocol state.

A sweep of small clusters -- 2 seeds x threshold 1/2/3 x the three
maintenance policies x zero/LAN latency, plus one run per non-default
garbage-collection policy -- each driven through four steps: cold
queries, attribute writes and group flips, one join and one leave, then
more queries.  After each step the test dumps, for every node and every
predicate key it holds state for (a compact record dumps as the state
it stands for), the protocol values a parent or a
later query can observe (child reports, sent/computed updateSet,
``local_sat``, the adaptor's flag and window, ``last_seen_seq``,
``known_parent``, report/recv versions) plus the message counts by type
and the step's answers (value, cover, contributors, simulated latency,
message cost -- under LAN latency these move with any change of event
order), and compares the sha256 of each dump with ``tree_state_golden.json``.

Any change to how tree state is stored must leave every digest as it
is.  A change that means to alter protocol behaviour re-records the file
and says so::

    PYTHONPATH=src python tests/core/test_tree_state_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Optional

import pytest

from repro.core import MoaraCluster
from repro.core.adapt import AdaptationConfig, MaintenancePolicy
from repro.core.gc import GCPolicy, IdleTimeoutGC, KeepLastKGC, LeastFrequentGC
from repro.core.moara_node import MoaraConfig
from repro.sim.latency import LANLatencyModel

GOLDEN = Path(__file__).with_name("tree_state_golden.json")

NODES = 40
GROUPS = ("g0", "g1", "g2")


def _configs() -> dict[str, dict]:
    configs: dict[str, dict] = {}
    for seed in (3, 11):
        for threshold in (1, 2, 3):
            for policy in MaintenancePolicy:
                for latency in ("zero", "lan"):
                    name = f"s{seed}-t{threshold}-{policy.value}-{latency}"
                    configs[name] = dict(
                        seed=seed, threshold=threshold, policy=policy, latency=latency
                    )
    gc_policies: dict[str, Callable[[], GCPolicy]] = {
        "idle": lambda: IdleTimeoutGC(timeout=1.0),
        "keep-last": lambda: KeepLastKGC(k=1),
        "least-frequent": lambda: LeastFrequentGC(capacity=1),
    }
    for name, factory in gc_policies.items():
        configs[f"gc-{name}"] = dict(
            seed=5,
            threshold=2,
            policy=MaintenancePolicy.ADAPTIVE,
            latency="lan",
            gc=factory,
        )
    return configs


CONFIGS = _configs()


def _dump_state(state) -> dict:
    def nodes(values: Optional[frozenset]) -> Optional[list]:
        return None if values is None else sorted(values)

    return {
        "children": {
            str(child): [nodes(info.update_set), info.subtree_recv]
            for child, info in sorted(state.children.items())
        },
        "sent": nodes(state.sent_update_set),
        "computed": nodes(state.computed_update_set),
        "local_sat": state.local_sat,
        "update": state.adaptor.update,
        "window": state.adaptor.window,
        "last_seen_seq": state.last_seen_seq,
        "known_parent": state.known_parent,
        "report_version": state.report_version,
        "recv_version": state.recv_version,
    }


def dump(cluster: MoaraCluster, answers: list) -> str:
    """Every node's protocol state per predicate key, canonical JSON."""
    nodes = {}
    for node_id in sorted(cluster.nodes):
        node = cluster.nodes[node_id]
        nodes[str(node_id)] = {
            key: _dump_state(node.tree_state(key))
            for key in sorted(node.tree_keys())
        }
    return json.dumps(
        {
            "nodes": nodes,
            "messages": dict(sorted(cluster.stats.by_type.items())),
            "answers": answers,
        },
        sort_keys=True,
    )


def run_steps(config: dict) -> list[str]:
    """Drive one configuration through the four steps; the dump digest
    after each."""
    seed = config["seed"]
    rng = random.Random(seed)
    factory = config.get("gc")
    cluster = MoaraCluster(
        NODES,
        seed=seed,
        latency_model=(
            LANLatencyModel(seed=seed) if config["latency"] == "lan" else None
        ),
        config=MoaraConfig(
            threshold=config["threshold"],
            adaptation=AdaptationConfig(policy=config["policy"]),
            gc_policy_factory=factory,
        ),
    )
    ids = cluster.node_ids
    for name in GROUPS:
        cluster.set_group(name, rng.sample(ids, 6))
    for node_id in ids:
        cluster.set_attribute(node_id, "load", rng.randrange(100))
    cluster.run_until_idle()
    digests = []
    answers: list = []

    def ask(text: str) -> None:
        result = cluster.query(text)
        answers.append(
            [
                repr(result.value),
                result.cover,
                result.contributors,
                repr(result.latency),
                result.message_cost,
            ]
        )

    def step() -> None:
        cluster.run_until_idle()
        if factory is not None:
            cluster.run(2.0)  # let the idle-timeout policy's clock move
        digests.append(hashlib.sha256(dump(cluster, answers).encode()).hexdigest())
        answers.clear()

    def queries() -> None:
        for name in GROUPS:
            ask(f"SELECT COUNT(*) WHERE {name} = true")
        ask("SELECT MAX(load) WHERE g0 = true OR g1 = true")
        ask("SELECT AVG(load) WHERE g2 = true AND load < 50")

    # 1. cold queries: the first query on each predicate is a broadcast
    queries()
    step()
    # 2. attribute writes and group flips, both ways, plus writes that
    #    leave the predicate as it was
    ids = cluster.node_ids
    for name in GROUPS:
        for node_id in rng.sample(ids, 4):
            cluster.set_attribute(node_id, name, rng.random() < 0.5)
        for node_id in rng.sample(ids, 2):
            cluster.set_attribute(node_id, name, 0)
    for node_id in rng.sample(ids, 8):
        cluster.set_attribute(node_id, "load", rng.randrange(100))
    ask("SELECT COUNT(*) WHERE g1 = true")
    step()
    # 3. one join and one leave
    joined = cluster.join_node()
    for name in GROUPS:
        cluster.set_attribute(joined, name, rng.random() < 0.5)
    cluster.set_attribute(joined, "load", rng.randrange(100))
    cluster.leave_node(rng.choice([n for n in cluster.node_ids if n != joined]))
    step()
    # 4. more queries, enough for the adaptation windows to move
    for _ in range(3):
        queries()
    step()
    return digests


def _load() -> dict[str, list[str]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_tree_state_dump_matches_golden(name: str) -> None:
    assert run_steps(CONFIGS[name]) == _load()[name]


def test_golden_file_covers_every_config() -> None:
    assert sorted(_load()) == sorted(CONFIGS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_tree_state_golden.py --write")
    GOLDEN.write_text(
        json.dumps({name: run_steps(CONFIGS[name]) for name in sorted(CONFIGS)}, indent=1)
        + "\n",
        encoding="utf-8",
    )
