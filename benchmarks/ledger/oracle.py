"""Ground truth: every answer is compared with the centralized recompute.

Truth is ``repro.baselines.centralized.centralized_answer`` folded over
the attribute stores of the live nodes.  One sound shortcut keeps it
affordable at 4 000 nodes x 2 400 texts: the workloads' predicates are
negation-free combinations of ``S<i> = true`` literals, so a node that is
a member of none of the groups a predicate names cannot satisfy it, and
the fold runs over the union of those groups' members only.
``tests/test_ledger_oracle.py`` checks the shortcut against the full fold.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.baselines.centralized import centralized_answer
from repro.campaigns.oracle import values_equal
from repro.core.attributes import AttributeStore
from repro.core.parser import parse_query
from repro.core.query import Query

__all__ = ["Oracle", "spec_stores", "truth"]


def spec_stores(spec: Mapping[str, Any], ids: list[int]) -> dict[int, AttributeStore]:
    """The attribute store of every node as the spec's set-up defines it,
    keyed by node id (static-membership workloads)."""
    stores = {node_id: AttributeStore({"load": spec["load"][i]}) for i, node_id in enumerate(ids)}
    for name, members in spec["groups"].items():
        member_ids = {ids[i] for i in members}
        for node_id, store in stores.items():
            store.set(name, node_id in member_ids)
    return stores


def truth(
    query: Query,
    groups: Iterable[str],
    members: Mapping[str, Iterable[int]],
    stores: Mapping[int, AttributeStore],
) -> Any:
    """``centralized_answer`` over the live members of the named groups."""
    candidates = sorted({node_id for name in groups for node_id in members[name]})
    return centralized_answer(query, [(node_id, stores[node_id]) for node_id in candidates])


class Oracle:
    """Counts answers that differ from the truth.

    ``plant_bug`` is the self-test: it corrupts the first one-shot answer
    and the first folded standing value it is shown, so a run with it must
    report ``wrong_answers`` > 0 and exit non-zero.
    """

    def __init__(self, plant_bug: bool = False) -> None:
        self.checked = 0
        self.wrong = 0
        self._plant = {"answer": plant_bug, "standing": plant_bug}
        self._parsed: dict[str, Query] = {}

    def parse(self, text: str) -> Query:
        query = self._parsed.get(text)
        if query is None:
            query = self._parsed[text] = parse_query(text)
        return query

    def check(self, kind: str, got: Any, expected: Any) -> None:
        """Compare one ``answer`` or folded ``standing`` value with the truth."""
        if self._plant[kind]:
            self._plant[kind] = False
            got = ("corrupted", got)
        self.checked += 1
        if not values_equal(got, expected):
            self.wrong += 1
