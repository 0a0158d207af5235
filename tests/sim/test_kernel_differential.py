"""Differential tests: the engine's calendar queue vs the heap reference.

The calendar-queue (timer-wheel) scheduler exists for speed; its contract
is that speed is the *only* observable difference.  Same seed, same
workload => bit-identical fire order, answers, and message counts as the
single-heap reference in ``tests/sim/heap_engine.py``.  The reference is
injected by patching the ``Engine`` name that ``MoaraCluster`` builds
from, so both runs share every line of ``Network`` and above.  These
tests drive both schedulers through:

* randomized engine workloads (post/schedule/cancel/batch), comparing
  the exact (time, label) fire sequence;
* full clusters under zero-latency and LAN models, comparing answers and
  per-type message counts;
* scenario campaigns with their online oracle (zero violations, equal
  message totals);

plus direct unit coverage of the wheel's own edges (far-future overflow,
cross-slot ordering, cursor re-anchoring, batch repackaging).
"""

from __future__ import annotations

import random

import pytest

import repro.core.cluster
from repro.core import MoaraCluster
from repro.sim import Engine
from repro.sim.latency import LANLatencyModel
from tests.sim.heap_engine import KERNELS


def _use_kernel(monkeypatch, kernel: str) -> None:
    """Make every ``MoaraCluster`` built from here on run on ``kernel``."""
    monkeypatch.setattr(repro.core.cluster, "Engine", KERNELS[kernel])


# ----------------------------------------------------------------------
# engine-level differential: randomized workloads fire identically
# ----------------------------------------------------------------------


def _random_workload(engine: Engine, seed: int) -> list[tuple[float, str]]:
    """Drive one engine through a randomized mixed workload.

    Mixes every scheduling surface: fire-and-forget posts (wheel fifo /
    ring), far-future posts (wheel overflow heap), cancellable handles
    (heap on both schedulers), same-tick batches, and events that
    schedule more events and cancel others from inside callbacks.
    """
    rng = random.Random(seed)
    fired: list[tuple[float, str]] = []
    handles: list = []

    def note(label: str) -> None:
        fired.append((engine.now, label))
        # From inside a callback, occasionally schedule/cancel more work.
        roll = rng.random()
        if roll < 0.25:
            delay = rng.choice([0.0, 0.0003, 0.004, 7.5])
            engine.post1_at(engine.now + delay, note, f"{label}/child")
        elif roll < 0.35 and handles:
            handles.pop(rng.randrange(len(handles))).cancel()

    for i in range(300):
        t = rng.choice([0.0, 0.0001, 0.001, 0.0025, 0.5, 3.0, 50.0])
        t += rng.randrange(4) * 0.001
        kind = rng.random()
        if kind < 0.6:
            engine.post1_at(t, note, f"q{i}")
        elif kind < 0.8:
            batch = engine.batch_list()
            for j in range(rng.randrange(1, 6)):
                batch.append(f"b{i}.{j}")
            engine.post_batch_at(t, note, batch)
        else:
            handles.append(engine.schedule_at(t, note, f"h{i}"))
    engine.run_until_idle(max_events=100_000)
    return fired


@pytest.mark.parametrize("seed", [7, 42, 1234])
def test_random_workload_fires_identically(seed: int) -> None:
    runs = {}
    for kernel, cls in KERNELS.items():
        runs[kernel] = _random_workload(cls(), seed)
    assert runs["wheel"] == runs["heap"]
    assert len(runs["wheel"]) > 300  # children actually spawned


def test_identical_event_accounting() -> None:
    engines = {k: cls() for k, cls in KERNELS.items()}
    for engine in engines.values():
        _random_workload(engine, seed=99)
    heap, wheel = engines["heap"], engines["wheel"]
    assert wheel.events_processed == heap.events_processed
    assert wheel.pending == heap.pending == 0
    assert wheel.now == heap.now


# ----------------------------------------------------------------------
# wheel-specific edges
# ----------------------------------------------------------------------


def test_far_future_overflows_to_heap_and_still_fires() -> None:
    engine = Engine()
    fired: list[str] = []
    # Far beyond the wheel horizon (2048 buckets * 1ms ~= 2s).
    engine.post1_at(1_000.0, fired.append, "far")
    engine.post1_at(0.5, fired.append, "near")
    engine.run_until_idle()
    assert fired == ["near", "far"]
    assert engine.now == 1_000.0


def test_cross_slot_ordering_with_ties() -> None:
    engine = Engine()
    fired: list[str] = []
    # Same bucket, different times, plus ties inserted out of order.
    for label, t in [("c", 0.0023), ("a", 0.0021), ("b", 0.0021)]:
        engine.post1_at(t, fired.append, label)
    engine.run_until_idle()
    assert fired == ["a", "b", "c"]  # time order, then schedule order


def test_cursor_reanchors_after_idle_gap() -> None:
    engine = Engine()
    fired: list[str] = []
    engine.post1_at(0.001, fired.append, "first")
    engine.run_until_idle()
    # Way past the original horizon: the wheel must re-anchor, not wrap.
    engine.post1_at(10_000.0, fired.append, "second")
    engine.post1_at(10_000.5, fired.append, "third")
    engine.run_until_idle()
    assert fired == ["first", "second", "third"]
    assert engine.now == 10_000.5


@pytest.mark.parametrize("kernel", KERNELS)
def test_batch_fires_in_insertion_order(kernel: str) -> None:
    engine = KERNELS[kernel]()
    fired: list[str] = []
    batch = engine.batch_list()
    for i in range(5):
        batch.append(f"item{i}")
    engine.post_batch_at(1.0, fired.append, batch)
    engine.run_until_idle()
    assert fired == [f"item{i}" for i in range(5)]
    assert engine.events_processed == 5  # each item is one event


@pytest.mark.parametrize("kernel", KERNELS)
def test_batch_respects_mid_batch_event_budget(kernel: str) -> None:
    engine = KERNELS[kernel]()
    fired: list[str] = []
    batch = engine.batch_list()
    for i in range(6):
        batch.append(f"item{i}")
    engine.post_batch_at(1.0, fired.append, batch)
    engine.run(max_events=4)
    assert engine.events_processed == 4
    assert fired == [f"item{i}" for i in range(4)]
    # The unfired tail survives and fires on the next drive.
    assert engine.pending == 2
    engine.run_until_idle()
    assert fired == [f"item{i}" for i in range(6)]


@pytest.mark.parametrize("kernel", KERNELS)
def test_pending_counts_batches_per_item(kernel: str) -> None:
    engine = KERNELS[kernel]()
    batch = engine.batch_list()
    batch.extend(["x", "y", "z"])
    engine.post_batch_at(1.0, lambda _: None, batch)
    engine.post1_at(0.5, lambda _: None, None)
    assert engine.pending == 4


@pytest.mark.parametrize("kernel", KERNELS)
def test_request_stop_mid_batch(kernel: str) -> None:
    engine = KERNELS[kernel]()
    fired: list[str] = []

    def stopping(label: str) -> None:
        fired.append(label)
        if label == "item1":
            engine.request_stop()

    batch = engine.batch_list()
    for i in range(4):
        batch.append(f"item{i}")
    engine.post_batch_at(1.0, stopping, batch)
    engine.run()
    # request_stop ends the run right after the in-flight item; the
    # unfired tail is repackaged at the front for the next drive.
    assert fired == ["item0", "item1"]
    assert engine.pending == 2
    engine.run()
    assert fired == [f"item{i}" for i in range(4)]


# ----------------------------------------------------------------------
# cluster-level differential: answers and message counts
# ----------------------------------------------------------------------


def _cluster_run(monkeypatch, kernel: str, latency=None) -> tuple[list, dict, int]:
    _use_kernel(monkeypatch, kernel)
    cluster = MoaraCluster(64, seed=11, latency_model=latency)
    assert type(cluster.engine) is KERNELS[kernel]
    rng = random.Random(12)
    for name in ("A", "B"):
        cluster.set_group(name, rng.sample(cluster.node_ids, 12))
    queries = [
        "SELECT COUNT(*) WHERE A = true",
        "SELECT COUNT(*) WHERE B = true",
        "SELECT COUNT(*) WHERE A = true AND B = true",
        "SELECT COUNT(*) WHERE A = true OR B = true",
    ]
    values = []
    for text in queries * 3:
        values.append(cluster.query(text).value)
    values.extend(r.value for r in cluster.query_concurrent(queries * 5))
    snapshot = cluster.stats.snapshot()
    return values, snapshot.by_type, cluster.engine.events_processed


def test_cluster_differential_zero_latency(monkeypatch) -> None:
    heap = _cluster_run(monkeypatch, "heap")
    wheel = _cluster_run(monkeypatch, "wheel")
    assert wheel == heap
    assert all(v is not None for v in wheel[0])


def test_cluster_differential_lan_latency(monkeypatch) -> None:
    # LAN exercises the fused arrive+deliver path and non-zero delays
    # (wheel ring + overflow), not just the same-tick FIFO.
    heap = _cluster_run(monkeypatch, "heap", latency=LANLatencyModel(seed=5))
    wheel = _cluster_run(monkeypatch, "wheel", latency=LANLatencyModel(seed=5))
    assert wheel == heap


# ----------------------------------------------------------------------
# campaign-level differential: the online oracle sees no difference
# ----------------------------------------------------------------------


def _campaign_totals(monkeypatch, name: str, kernel: str) -> dict:
    from pathlib import Path

    from repro.campaigns import load_campaign, run_campaign

    _use_kernel(monkeypatch, kernel)
    root = Path(__file__).resolve().parents[2]
    spec = load_campaign(root / "campaigns" / f"{name}.yaml")
    report = run_campaign(spec, plane="sim")
    return report["totals"]


def test_smoke_campaign_differential(monkeypatch) -> None:
    totals = {
        k: _campaign_totals(monkeypatch, "smoke", k) for k in KERNELS
    }
    for kernel, row in totals.items():
        assert row["violations"] == 0, kernel
    assert totals["wheel"]["queries"] == totals["heap"]["queries"]
    assert totals["wheel"]["messages"] == totals["heap"]["messages"]


@pytest.mark.system
def test_flash_crowd_campaign_differential(monkeypatch) -> None:
    totals = {
        k: _campaign_totals(monkeypatch, "flash_crowd", k) for k in KERNELS
    }
    for kernel, row in totals.items():
        assert row["violations"] == 0, kernel
    assert totals["wheel"]["queries"] == totals["heap"]["queries"]
    assert totals["wheel"]["messages"] == totals["heap"]["messages"]


# ----------------------------------------------------------------------
# benchmark-level differential (subprocess: module-scale env knobs)
# ----------------------------------------------------------------------

#: prepended to a heap-leg snippet: patch the reference in before the
#: benchmark module builds its first cluster.
_HEAP_PATCH = (
    "import repro.core.cluster; from tests.sim.heap_engine import HeapEngine; "
    "repro.core.cluster.Engine = HeapEngine; "
)


def _bench_subprocess(code: str, kernel: str) -> dict:
    """Run a benchmark snippet in a clean interpreter under one kernel."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["MOARA_BENCH_TINY"] = "1"
    env["PYTHONPATH"] = f"{root / 'src'}:{root / 'benchmarks'}:{root}"
    if kernel == "heap":
        code = _HEAP_PATCH + code
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        cwd=root,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.system
def test_tiny_scale_bench_differential() -> None:
    code = (
        "import json; from bench_scale import run_scale; "
        "print(json.dumps(run_scale()))"
    )
    rows = {k: _bench_subprocess(code, k) for k in KERNELS}
    for key in ("queries", "events", "msgs_per_query", "total_msgs"):
        assert rows["wheel"][key] == rows["heap"][key], key


@pytest.mark.system
def test_fig17_bench_differential() -> None:
    code = (
        "import json; from bench_fig17_throughput import _experiment; "
        "rows = _experiment(); "
        "print(json.dumps({m: {'msgs': rows[m]['total_msgs_per_query'], "
        "'qps': rows[m]['qps']} for m in rows}))"
    )
    rows = {k: _bench_subprocess(code, k) for k in KERNELS}
    assert rows["wheel"] == rows["heap"]
