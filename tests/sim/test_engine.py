"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.sim import Engine
from tests.sim.heap_engine import KERNELS


def test_clock_starts_at_zero(engine: Engine) -> None:
    assert engine.now == 0.0
    assert engine.events_processed == 0


def test_events_fire_in_time_order(engine: Engine) -> None:
    fired: list[str] = []
    engine.schedule(2.0, fired.append, "late")
    engine.schedule(1.0, fired.append, "early")
    engine.schedule(3.0, fired.append, "latest")
    engine.run_until_idle()
    assert fired == ["early", "late", "latest"]
    assert engine.now == 3.0


def test_ties_break_by_schedule_order(engine: Engine) -> None:
    fired: list[int] = []
    for i in range(10):
        engine.schedule(1.0, fired.append, i)
    engine.run_until_idle()
    assert fired == list(range(10))


def test_negative_delay_rejected(engine: Engine) -> None:
    with pytest.raises(ValueError):
        engine.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected(engine: Engine) -> None:
    engine.schedule(1.0, lambda: None)
    engine.run_until_idle()
    with pytest.raises(ValueError):
        engine.schedule_at(0.5, lambda: None)


def test_cancelled_events_do_not_fire(engine: Engine) -> None:
    fired: list[str] = []
    handle = engine.schedule(1.0, fired.append, "cancelled")
    engine.schedule(2.0, fired.append, "kept")
    handle.cancel()
    engine.run_until_idle()
    assert fired == ["kept"]


def test_cancel_is_idempotent(engine: Engine) -> None:
    handle = engine.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    engine.run_until_idle()
    assert engine.events_processed == 0


def test_run_until_time_bound(engine: Engine) -> None:
    fired: list[float] = []
    for t in (1.0, 2.0, 3.0):
        engine.schedule(t, lambda t=t: fired.append(t))
    engine.run(until=2.0)
    assert fired == [1.0, 2.0]
    assert engine.now == 2.0
    engine.run()
    assert fired == [1.0, 2.0, 3.0]


def test_run_until_advances_clock_when_idle(engine: Engine) -> None:
    engine.run(until=5.0)
    assert engine.now == 5.0


def test_events_can_schedule_events(engine: Engine) -> None:
    fired: list[float] = []

    def chain(depth: int) -> None:
        fired.append(engine.now)
        if depth:
            engine.schedule(1.0, chain, depth - 1)

    engine.schedule(0.0, chain, 3)
    engine.run_until_idle()
    assert fired == [0.0, 1.0, 2.0, 3.0]


def test_run_until_predicate(engine: Engine) -> None:
    counter = {"n": 0}

    def tick() -> None:
        counter["n"] += 1
        engine.schedule(1.0, tick)

    engine.schedule(0.0, tick)
    assert engine.run_until(lambda: counter["n"] >= 5)
    assert counter["n"] == 5


def test_run_until_idle_guards_livelock(engine: Engine) -> None:
    def forever() -> None:
        engine.schedule(0.0, forever)

    engine.schedule(0.0, forever)
    with pytest.raises(RuntimeError):
        engine.run_until_idle(max_events=100)


def test_step_returns_false_when_empty(engine: Engine) -> None:
    assert engine.step() is False


def test_pending_excludes_cancelled(engine: Engine) -> None:
    h1 = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    assert engine.pending == 2
    h1.cancel()
    assert engine.pending == 1


def test_max_events_budget(engine: Engine) -> None:
    fired: list[int] = []
    for i in range(10):
        engine.schedule(float(i), fired.append, i)
    engine.run(max_events=4)
    assert fired == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# live-event counter, heap compaction, event-driven wake-ups
# ----------------------------------------------------------------------


def test_pending_counts_post_at_events(engine: Engine) -> None:
    engine.post1_at(1.0, lambda _: None, None)
    engine.post1_at(2.0, lambda _: None, None)
    engine.schedule(3.0, lambda: None)
    assert engine.pending == 3
    engine.step()
    assert engine.pending == 2
    engine.run_until_idle()
    assert engine.pending == 0


def test_pending_exact_through_cancel_and_fire(engine: Engine) -> None:
    handles = [engine.schedule(float(i + 1), lambda: None) for i in range(10)]
    for handle in handles[::2]:
        handle.cancel()
    assert engine.pending == 5
    # Cancelling after the event fired must not double-decrement.
    engine.run_until_idle()
    assert engine.pending == 0
    handles[1].cancel()
    assert engine.pending == 0


def test_compaction_drops_only_cancelled_events(engine: Engine) -> None:
    fired: list[int] = []
    keep = []
    cancelled = []
    # Enough entries to clear the compaction floor, then cancel a
    # majority so dead entries outnumber live ones.
    for i in range(200):
        handle = engine.schedule(float(i), fired.append, i)
        (keep if i % 4 == 0 else cancelled).append(handle)
    for handle in cancelled:
        handle.cancel()
    assert engine.compactions >= 1
    assert engine.pending == len(keep)
    # Every live event still fires, in the original time order, exactly
    # once -- compaction must never drop or reorder live work.
    engine.run_until_idle()
    assert fired == [i for i in range(200) if i % 4 == 0]


def test_compaction_preserves_tie_order(engine: Engine) -> None:
    fired: list[int] = []
    dead = []
    for i in range(300):
        handle = engine.schedule(1.0, fired.append, i)  # all tied at t=1
        if i % 3 != 0:
            dead.append(handle)
    for handle in dead:
        handle.cancel()
    assert engine.compactions >= 1
    engine.run_until_idle()
    assert fired == [i for i in range(300) if i % 3 == 0]


def test_compaction_inside_a_running_callback(engine: Engine) -> None:
    """Compacting from *within* an event callback (a handler cancelling
    timeouts mid-run) must not strand the run loop on a stale queue:
    events posted after the compaction still fire, in time order, within
    the same run."""
    fired: list[str] = []
    handles = []

    def burst() -> None:
        # Cancel a heap-majority of events while run() is iterating.
        for handle in handles:
            handle.cancel()
        assert engine.compactions >= 1
        # Work scheduled *after* the compaction, earlier than the
        # already-queued tail event, must still fire first.
        engine.post1_at(engine.now, fired.append, "posted-after-compact")

    for _ in range(200):
        handles.append(engine.schedule(5.0, fired.append, "dead"))
    engine.schedule(0.0, burst)
    engine.schedule(9.0, fired.append, "tail")
    engine.run()
    assert fired == ["posted-after-compact", "tail"]
    assert engine.pending == 0
    assert engine.now == 9.0


def test_small_queues_are_never_compacted(engine: Engine) -> None:
    handles = [engine.schedule(1.0, lambda: None) for _ in range(10)]
    for handle in handles:
        handle.cancel()
    assert engine.compactions == 0
    engine.run_until_idle()
    assert engine.pending == 0


def test_request_stop_ends_run_after_current_event(engine: Engine) -> None:
    fired: list[int] = []

    def stopper() -> None:
        fired.append(0)
        engine.request_stop()

    engine.schedule(1.0, stopper)
    engine.schedule(2.0, fired.append, 1)
    engine.run()
    assert fired == [0]
    assert engine.pending == 1
    # The next run is unaffected by the consumed stop request.
    engine.run()
    assert fired == [0, 1]


def test_stale_request_stop_does_not_end_next_run(engine: Engine) -> None:
    engine.request_stop()  # nothing running: must not leak into run()
    fired: list[int] = []
    engine.schedule(1.0, fired.append, 0)
    engine.schedule(2.0, fired.append, 1)
    engine.run()
    assert fired == [0, 1]


def test_request_stop_with_time_bound(engine: Engine) -> None:
    fired: list[int] = []

    def stopper() -> None:
        fired.append(0)
        engine.request_stop()

    engine.schedule(1.0, stopper)
    engine.schedule(2.0, fired.append, 1)
    engine.run(until=10.0)
    assert fired == [0]
    assert engine.now == 1.0


# ----------------------------------------------------------------------
# run_until_idle drives the kernel in whole passes, not event by event
# ----------------------------------------------------------------------


def test_run_until_idle_swallows_a_stop_request_mid_drain(engine: Engine) -> None:
    fired: list[int] = []

    def stopper() -> None:
        fired.append(0)
        engine.request_stop()

    engine.schedule(1.0, stopper)
    engine.schedule(2.0, fired.append, 1)
    batch = engine.batch_list()
    batch.extend([2, 3])
    engine.post_batch_at(3.0, fired.append, batch)
    engine.run_until_idle()
    assert fired == [0, 1, 2, 3]
    assert engine.pending == 0
    # ... and the swallowed request does not end a later run early.
    engine.schedule(1.0, fired.append, 4)
    engine.schedule(2.0, fired.append, 5)
    engine.run()
    assert fired == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("kernel", KERNELS)
def test_run_until_idle_budget_overrun_is_noticed_once_it_fired(kernel: str) -> None:
    engine = KERNELS[kernel]()
    fired: list[int] = []
    batch = engine.batch_list()
    batch.extend(range(10))
    engine.post_batch_at(1.0, fired.append, batch)
    with pytest.raises(RuntimeError, match="did not go idle within 4 events"):
        engine.run_until_idle(max_events=4)
    # The event that overran the budget is the last one fired; the rest
    # of the batch is still queued, in order.
    assert fired == [0, 1, 2, 3, 4]
    assert engine.pending == 5
    engine.run_until_idle()
    assert fired == list(range(10))


def test_run_until_idle_within_budget_does_not_raise(engine: Engine) -> None:
    fired: list[int] = []
    for i in range(4):
        engine.schedule(float(i), fired.append, i)
    engine.run_until_idle(max_events=4)
    assert fired == [0, 1, 2, 3]


def _fan_out_order(kernel: str) -> list[str]:
    """Batches that post batches and stop mid-way, drained by
    run_until_idle: the fire order must not depend on the kernel."""
    engine = KERNELS[kernel]()
    fired: list[str] = []

    def deliver(item: str) -> None:
        fired.append(item)
        if len(item) < 3:
            batch = engine.batch_list()
            batch.extend(item + suffix for suffix in "xyz")
            engine.post_batch_at(engine.now, deliver, batch)
            engine.post1_at(engine.now + 0.5, fired.append, item + "!")
        if item.endswith("y"):
            engine.request_stop()

    batch = engine.batch_list()
    batch.extend("abc")
    engine.post_batch_at(1.0, deliver, batch)
    engine.run_until_idle()
    assert engine.pending == 0
    return fired


def test_run_until_idle_fan_out_order_is_kernel_independent() -> None:
    wheel = _fan_out_order("wheel")
    assert wheel == _fan_out_order("heap")
    assert wheel[:6] == ["a", "b", "c", "ax", "ay", "az"]
    assert len(wheel) == 3 + 9 + 27 + 12


# ----------------------------------------------------------------------
# the engine's internals stay behind its public API
# ----------------------------------------------------------------------


def test_no_module_outside_the_engine_touches_its_private_slots() -> None:
    """Components schedule through ``schedule*`` / ``post1_at`` /
    ``post_batch_at`` and read the clock as ``now``.  An ``engine._*``
    access anywhere else ties that module to one scheduler's layout, and
    the differential reference would no longer run the same code."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    engine_module = src / "sim" / "engine.py"
    offenders = [
        f"{path.relative_to(src)}:{lineno}"
        for path in sorted(src.rglob("*.py"))
        if path != engine_module
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"engine\._", line)
    ]
    assert offenders == []
