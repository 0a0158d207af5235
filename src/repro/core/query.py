"""Query and result types.

Paper Section 3.1: "A query in Moara comprises of three parts:
(query-attribute, aggregation function, group-predicate)."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.aggregation import AggregateFunction
from repro.core.predicates import Predicate, TruePredicate

__all__ = ["Query", "QueryResult"]

#: Query-attribute meaning "no attribute needed" (e.g. COUNT(*)): every node
#: contributes the constant 1.
STAR_ATTRIBUTE = "*"


@dataclass(frozen=True)
class Query:
    """One Moara query: (query-attribute, aggregation fn, group-predicate)."""

    attr: str
    function: AggregateFunction
    predicate: Predicate

    def canonical(self) -> str:
        """Stable textual form (used for logging and dedup in tests)."""
        return f"({self.attr}, {self.function.name}, {self.predicate.canonical()})"

    def __str__(self) -> str:
        return self.canonical()

    def targets_all_nodes(self) -> bool:
        """True for the default "whole system" group."""
        return isinstance(self.predicate, TruePredicate)


@dataclass
class QueryResult:
    """The outcome of one query execution."""

    query: Query
    value: Any
    #: canonical names of the groups actually queried (the selected cover)
    cover: list[str] = field(default_factory=list)
    #: number of nodes whose local value contributed to the aggregate
    contributors: int = 0
    #: simulated seconds from injection to the final answer
    latency: float = 0.0
    #: portion of the latency spent waiting for size probes (the paper's
    #: Figure 13(b) reports latency with and without this component)
    probe_latency: float = 0.0
    #: *marginal* network messages this query added (its own probes plus,
    #: for the query that initiated a sub-query, the full sub-query cost;
    #: a query that joined an in-flight shared sub-query pays 0 for it, so
    #: message costs sum correctly across a concurrent workload)
    message_cost: int = 0
    #: True when this query was answered by a shared sub-query initiated by
    #: an identical concurrent query (batched dispatch)
    shared: bool = False
    #: True when the composite plan was served from the front-end plan cache
    plan_cached: bool = False
    #: True when at least one sub-query joined an identical in-flight
    #: execution at its root (cross-front-end sub-query sharing): same
    #: fresh tree walk, shared by every subscribed front-end
    root_shared: bool = False
    #: estimated per-group query costs the cover choice used (canonical
    #: predicate -> 2*np estimate, from size probes or the front-end's
    #: group-size cache); empty when no estimates were needed
    probed_costs: dict[str, float] = field(default_factory=dict)
    #: True when the planner proved the predicate unsatisfiable and answered
    #: locally without touching the network
    short_circuited: bool = False
    #: True when this query was resolved NULL by a transport-link failure
    #: (Section 7 contract, surfaced explicitly): :attr:`value` reflects
    #: only the sub-queries that answered before the link died and MUST
    #: NOT be treated as a correct aggregate
    failed: bool = False
    #: human-readable reason when :attr:`failed` is set
    failure: str = ""

    def __repr__(self) -> str:
        flag = ", FAILED" if self.failed else ""
        return (
            f"QueryResult(value={self.value!r}, cover={self.cover}, "
            f"contributors={self.contributors}, latency={self.latency:.4f}s, "
            f"messages={self.message_cost}{flag})"
        )
