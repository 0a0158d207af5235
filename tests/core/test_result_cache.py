"""Unit tests for the root-side execution key and InflightTable."""

from __future__ import annotations

from repro.core.inflight import InflightTable, execution_key
from repro.core.parser import parse_query


def _key(n: int = 0) -> tuple:
    return ("cpu", "avg", f"(pred-{n})", f"(group-{n})")


class TestExecutionKey:
    def test_single_group_cover_is_reusable(self) -> None:
        query = parse_query("SELECT COUNT(*) WHERE g = true")
        key = execution_key(query, "(g = true)", ("(g = true)",))
        assert key is not None
        assert key[3] == "(g = true)"

    def test_multi_group_cover_is_not_reusable(self) -> None:
        """Multi-tree covers dedup contributions per query id across
        trees (Section 6.2); partials from different executions must not
        be mixed, so they are never shared."""
        query = parse_query("SELECT COUNT(*) WHERE g = true OR h = true")
        cover = ("(g = true)", "(h = true)")
        assert execution_key(query, "(g = true)", cover) is None

    def test_unannounced_cover_is_not_reusable(self) -> None:
        query = parse_query("SELECT COUNT(*) WHERE g = true")
        assert execution_key(query, "(g = true)", None) is None

    def test_key_distinguishes_function_parameters(self) -> None:
        from repro.core.aggregation import Histogram
        from repro.core.parser import parse_predicate
        from repro.core.query import Query

        pred = parse_predicate("g = true")
        wide = Query(attr="cpu", function=Histogram(0.0, 100.0, 4), predicate=pred)
        narrow = Query(attr="cpu", function=Histogram(0.0, 10.0, 4), predicate=pred)
        cover = (pred.canonical(),)
        assert execution_key(wide, cover[0], cover) != execution_key(
            narrow, cover[0], cover
        )


class TestInflightTable:
    def test_subscribe_requires_open_execution(self) -> None:
        table = InflightTable()
        assert not table.subscribe(_key(), 5, "q1")
        table.open(_key())
        assert table.subscribe(_key(), 5, "q1")
        assert table.subscriptions == 1

    def test_close_returns_subscribers_in_order(self) -> None:
        table = InflightTable()
        table.open(_key())
        table.subscribe(_key(), 5, "q1")
        table.subscribe(_key(), 6, "q2")
        assert table.close(_key()) == [(5, "q1"), (6, "q2")]
        assert _key() not in table
        assert len(table) == 0

    def test_close_unknown_key_is_empty(self) -> None:
        assert InflightTable().close(_key()) == []

    def test_open_is_idempotent(self) -> None:
        table = InflightTable()
        table.open(_key())
        table.subscribe(_key(), 5, "q1")
        table.open(_key())
        assert table.close(_key()) == [(5, "q1")]
