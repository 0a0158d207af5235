"""Invariant checker unit tests (no campaign execution needed)."""

from __future__ import annotations

import pytest

from repro.campaigns.oracle import InvariantChecker, values_equal
from repro.campaigns.planes import SimPlane
from repro.campaigns.schema import OracleSpec
from repro.core.messages import SIZE_PROBE
from repro.core.parser import parse_query
from repro.core.query import QueryResult


@pytest.fixture(scope="module")
def plane() -> SimPlane:
    plane = SimPlane(8, seed=3, num_frontends=1)
    plane.set_group("g", plane.node_ids[:4])
    plane.quiesce()
    return plane


def _result(text: str, value, **kwargs) -> QueryResult:
    return QueryResult(query=parse_query(text), value=value, **kwargs)


# ----------------------------------------------------------------------
# values_equal
# ----------------------------------------------------------------------


def test_values_equal_numbers_with_float_noise() -> None:
    assert values_equal(0.1 + 0.2, 0.3)
    assert values_equal(4, 4.0)
    assert not values_equal(4, 5)
    assert not values_equal(True, 1.0000000001)  # bools stay exact


def test_values_equal_structures() -> None:
    assert values_equal([1.0, 2.0], (1.0, 2.0 + 1e-12))
    assert values_equal({"a": 0.1 + 0.2}, {"a": 0.3})
    assert not values_equal({"a": 1}, {"b": 1})
    assert values_equal(None, None)
    assert not values_equal(None, 0)


# ----------------------------------------------------------------------
# differential
# ----------------------------------------------------------------------


def test_differential_passes_on_true_answer(plane: SimPlane) -> None:
    checker = InvariantChecker(OracleSpec(), plane)
    text = "SELECT COUNT(*) WHERE g = true"
    before = plane.stats.snapshot()
    results = plane.query_batch([text])
    checker.check_batch("p", [text], results, before, membership_stable=True)
    assert checker.violations == []
    assert checker.compared == 1


def test_differential_flags_a_wrong_answer(plane: SimPlane) -> None:
    checker = InvariantChecker(OracleSpec(), plane)
    text = "SELECT COUNT(*) WHERE g = true"
    before = plane.stats.snapshot()
    results = plane.query_batch([text])
    results[0].value = (results[0].value or 0) + 1  # inject the fault
    checker.check_batch("p", [text], results, before, membership_stable=True)
    assert [v["invariant"] for v in checker.violations] == ["differential"]
    assert checker.violations[0]["phase"] == "p"


def test_differential_skipped_when_membership_unstable(
    plane: SimPlane,
) -> None:
    checker = InvariantChecker(OracleSpec(), plane)
    text = "SELECT COUNT(*) WHERE g = true"
    before = plane.stats.snapshot()
    results = plane.query_batch([text])
    results[0].value = 999
    checker.check_batch("p", [text], results, before, membership_stable=False)
    assert checker.violations == []
    assert checker.skipped_epoch == 1


# ----------------------------------------------------------------------
# probe budget
# ----------------------------------------------------------------------


def test_probe_budget_flags_a_probe_storm(plane: SimPlane) -> None:
    checker = InvariantChecker(OracleSpec(check_differential=False), plane)
    text = "SELECT COUNT(*) WHERE g = true"
    before = plane.stats.snapshot()
    for _ in range(5):  # 5 wire probes for 1 distinct predicate attribute
        plane.stats.record_send(-1, 7, SIZE_PROBE, 0)
    checker.check_batch("p", [text, text, text], [], before, True)
    assert [v["invariant"] for v in checker.violations] == ["probes"]
    violation = checker.violations[0]
    assert violation["probes"] == 5
    assert violation["budget"] == 1


def test_probe_slack_raises_the_budget(plane: SimPlane) -> None:
    checker = InvariantChecker(
        OracleSpec(check_differential=False, probe_slack=4),
        plane,
    )
    text = "SELECT COUNT(*) WHERE g = true"
    before = plane.stats.snapshot()
    for _ in range(5):
        plane.stats.record_send(-1, 7, SIZE_PROBE, 0)
    checker.check_batch("p", [text], [], before, True)
    assert checker.violations == []


# ----------------------------------------------------------------------
# in-flight leaks
# ----------------------------------------------------------------------


def test_clean_phase_boundary_has_no_leaks(plane: SimPlane) -> None:
    checker = InvariantChecker(OracleSpec(), plane)
    plane.query_batch(["SELECT COUNT(*) WHERE g = true"])
    plane.quiesce()
    checker.check_phase_end("p")
    assert checker.violations == []


def test_leaked_execution_is_flagged(plane: SimPlane) -> None:
    checker = InvariantChecker(OracleSpec(), plane)
    node = next(iter(plane.cluster.nodes.values()))
    node.inflight.open(("leaked", "execution"))
    try:
        checker.check_phase_end("p")
    finally:
        node.inflight.close(("leaked", "execution"))
    assert [v["invariant"] for v in checker.violations] == ["inflight"]
    assert checker.violations[0]["leaked"] == {"node_executions": 1}


def test_summary_counts_by_invariant(plane: SimPlane) -> None:
    checker = InvariantChecker(OracleSpec(), plane)
    checker._record("probes", {"phase": "p"})
    checker._record("probes", {"phase": "q"})
    checker._record("inflight", {"phase": "q"})
    summary = checker.summary()
    assert summary["violations"] == 3
    assert summary["by_invariant"] == {"probes": 2, "inflight": 1}
