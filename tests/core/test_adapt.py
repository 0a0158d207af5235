"""Unit tests for the dynamic-maintenance adaptation policy (Figure 4)."""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adapt import AdaptationConfig, Adaptor, MaintenancePolicy


def adaptor(k_update: int = 1, k_no_update: int = 3, policy=MaintenancePolicy.ADAPTIVE) -> Adaptor:
    return Adaptor(
        AdaptationConfig(policy=policy, k_update=k_update, k_no_update=k_no_update)
    )


def test_starts_in_no_update() -> None:
    """Procedure 2: "in the beginning, a node receives every query"."""
    assert adaptor().update is False


def test_always_update_policy_pins_true() -> None:
    a = adaptor(policy=MaintenancePolicy.ALWAYS_UPDATE)
    assert a.update is True
    for _ in range(10):
        a.record_change()
    assert a.update is True


def test_never_update_policy_pins_false() -> None:
    a = adaptor(policy=MaintenancePolicy.NEVER_UPDATE)
    for _ in range(10):
        a.record_query(contributing=False)
    assert a.update is False


def test_query_moves_to_update() -> None:
    """Figure 4(b): (NO-UPDATE, NO-SAT) + query -> UPDATE (2*qn > c)."""
    a = adaptor(k_update=1, k_no_update=1)
    flipped = a.record_query(contributing=False)
    assert flipped and a.update is True


def test_change_moves_to_no_update() -> None:
    """Figure 4(b): a change in UPDATE with k_UPDATE=1 -> NO-UPDATE."""
    a = adaptor(k_update=1, k_no_update=1)
    a.record_query(contributing=False)  # enter UPDATE
    flipped = a.record_change()
    assert flipped and a.update is False


def test_sat_node_receiving_queries_stays_no_update() -> None:
    """Figure 4(b): with k=1, (UPDATE, SAT) is unreachable -- a node that
    contributes receives queries anyway, so sending updates buys nothing
    (2*qn = 0 = c: no transition)."""
    a = adaptor(k_update=1, k_no_update=1)
    assert a.record_query(contributing=True) is False
    assert a.update is False


def test_paper_example_update_node_goes_silent_on_change() -> None:
    """"for kUPDATE = 1, when a node in UPDATE undergoes a local change,
    it immediately switches to NO-UPDATE, and sends no more messages"."""
    a = adaptor(k_update=1, k_no_update=3)
    a.record_query(contributing=False)  # enter UPDATE
    assert a.update is True
    assert a.record_change() is True  # window of 1: [change] -> 0 < 1
    assert a.update is False


def test_no_update_with_default_window_needs_queries_to_dominate() -> None:
    a = adaptor(k_update=1, k_no_update=3)
    # Alternate change/query: within a window of 3, 2*qn vs c hovers.
    a.record_change()  # window [c]: 2*0 < 1 -> stays NO-UPDATE
    assert a.update is False
    a.record_query(contributing=False)  # [c, q]: 2*1 > 1 -> UPDATE
    assert a.update is True


def test_equality_means_no_transition() -> None:
    # Construct 2*qn == c exactly: window [q, c, c] with k_no_update=3.
    a = adaptor(k_update=10, k_no_update=3)
    a.record_query(contributing=False)
    assert a.update is True  # 2 > 0
    # k_update=10 window: add changes until 2*qn < c flips it back.
    a.record_change()  # [q, c]: 2 > 1, stays UPDATE
    assert a.update is True
    a.record_change()  # [q, c, c]: 2*1 == 2 -> no change (hysteresis-free)
    assert a.update is True
    a.record_change()  # [q, c, c, c]: 2 < 3 -> NO-UPDATE
    assert a.update is False


def test_missed_queries_count_as_qn() -> None:
    """Sequence-number gaps from pruned periods feed qn (Section 4)."""
    a = adaptor(k_update=1, k_no_update=3)
    a.record_query(contributing=False)
    # Three changes with k_update=1: flip to NO-UPDATE.
    a.record_change()
    assert a.update is False
    # A query with a gap of 5 missed queries: qn dominates instantly.
    a.record_query(contributing=True, missed=5)
    assert a.update is True


def test_missed_gap_capped_at_window() -> None:
    a = adaptor(k_update=2, k_no_update=2)
    a.record_query(contributing=False, missed=10_000)  # must not blow up
    qn, qs, c = a.counts()
    assert qn + qs + c <= 2


def test_counts_reflect_current_window() -> None:
    a = adaptor(k_update=2, k_no_update=4)
    a.record_query(contributing=True)
    a.record_query(contributing=False)
    a.record_change()
    qn, qs, c = a.counts()  # UPDATE state after queries: window = last 2
    assert a.update is True
    assert (qn, qs, c) == (1, 0, 1)


def test_window_length_validation() -> None:
    with pytest.raises(ValueError):
        AdaptationConfig(k_update=0)
    with pytest.raises(ValueError):
        AdaptationConfig(k_no_update=0)


class _ReferenceAdaptor:
    """The window as the plain data structure it stands for -- a bounded
    deque of event names -- and Procedure 2 applied to its last-k slice
    once per recorded event.  The oracle for the packed-int window."""

    def __init__(self, k_update: int, k_no_update: int, policy=MaintenancePolicy.ADAPTIVE) -> None:
        self.k_update = k_update
        self.k_no_update = k_no_update
        self.adaptive = policy is MaintenancePolicy.ADAPTIVE
        self.update = policy is MaintenancePolicy.ALWAYS_UPDATE
        self.events: deque[str] = deque(maxlen=max(k_update, k_no_update))

    def _window(self) -> list[str]:
        k = self.k_update if self.update else self.k_no_update
        return list(self.events)[-k:]

    def counts(self) -> tuple[int, int, int]:
        window = self._window()
        return window.count("qn"), window.count("qs"), window.count("c")

    def _reevaluate(self) -> bool:
        if not self.adaptive:
            return False
        qn, _, c = self.counts()
        before = self.update
        if 2 * qn < c:
            self.update = False
        elif 2 * qn > c:
            self.update = True
        return self.update != before

    def record_query(self, contributing: bool, missed: int = 0) -> bool:
        self.events.extend(["qn"] * min(missed, self.events.maxlen))
        self.events.append("qs" if contributing else "qn")
        return self._reevaluate()

    def record_change(self) -> bool:
        self.events.append("c")
        return self._reevaluate()


def _assert_in_step(a: Adaptor, ref: _ReferenceAdaptor, events) -> None:
    for kind, flag, missed in events:
        if kind == "q":
            flipped = a.record_query(contributing=flag, missed=missed)
            assert flipped == ref.record_query(flag, missed)
        else:
            assert a.record_change() == ref.record_change()
        assert a.update == ref.update
        assert a.counts() == ref.counts()


_EVENTS = st.lists(
    st.tuples(
        st.sampled_from("qqc"),
        st.booleans(),
        st.sampled_from([0, 0, 0, 1, 2, 7]),
    ),
    max_size=50,
)


@settings(max_examples=200, deadline=None)
@given(
    _EVENTS,
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
)
def test_matches_reference_model(events, k_update, k_no_update) -> None:
    """The packed window agrees with the deque it replaces, flip for
    flip, including sequence-number gaps."""
    _assert_in_step(
        adaptor(k_update=k_update, k_no_update=k_no_update),
        _ReferenceAdaptor(k_update, k_no_update),
        events,
    )


@pytest.mark.parametrize("policy", list(MaintenancePolicy))
def test_matches_reference_model_for_every_window_pair(policy) -> None:
    """Every (k_update, k_no_update) in 1..5, long seeded sequences (the
    sampled test above visits the pairs at random)."""
    rng = random.Random(4)
    for k_update in range(1, 6):
        for k_no_update in range(1, 6):
            events = [
                (rng.choice("qqc"), rng.random() < 0.5, rng.choice([0, 0, 0, 1, 2, 7]))
                for _ in range(400)
            ]
            _assert_in_step(
                adaptor(k_update, k_no_update, policy),
                _ReferenceAdaptor(k_update, k_no_update, policy),
                events,
            )


def test_default_window_is_a_small_int() -> None:
    """The memory claim: with the default (1, 3) windows the packed
    window never leaves the interpreter's small-int cache."""
    a = adaptor()
    rng = random.Random(9)
    for _ in range(200):
        if rng.random() < 0.5:
            a.record_query(rng.random() < 0.5, missed=rng.choice([0, 3, 50]))
        else:
            a.record_change()
        assert 0 <= a._events < 64
