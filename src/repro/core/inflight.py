"""Root-side in-flight execution table.

Identical sub-queries arriving at a tree root from *different*
front-ends would each trigger a full tree walk.  This module gives every
:class:`~repro.core.moara_node.MoaraNode` acting as a root the memory to
absorb that duplicated work, the same server-side sharing move that
Enmeshed Queries makes for overlapping continuous queries:
:class:`InflightTable` -- when a sub-query arrives while an identical
execution is already walking the tree, the late arrival (from any
front-end) is *subscribed* to the pending execution and answered from
its single result: one tree walk, N answers.  Every subscriber sees the
same fresh execution, so the answer is exact and sharing is enabled by
default.

Execution identity
------------------

An execution key is ``(query attribute, aggregate-function signature,
query-predicate canonical form, group canonical form)``.  Sharing
engages only for **single-group covers**: for a multi-group cover the
roots suppress duplicate contributions *per query id* across their trees
(Section 6.2), so the partial at one root depends on which overlap nodes
happened to answer via the other trees of that particular execution --
mixing partials from different executions across the roots of one cover
could double-count.  A single-group cover's answer is self-contained and
safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["InflightTable", "execution_key"]

#: An execution key: (query attr, function signature, query predicate
#: canonical, group predicate canonical).
ExecutionKey = tuple


def execution_key(
    query: Any, group_key: str, cover: Optional[tuple]
) -> Optional[ExecutionKey]:
    """Identity of one root-side sub-query execution, or None if the
    execution's result is not reusable across query ids.

    ``cover`` is the full cover the front-end chose (piggybacked on the
    ``FRONTEND_QUERY`` payload); only single-group covers are reusable
    (see the module docstring).  Requests from callers that do not
    announce their cover are never shared.
    """
    if cover is None or len(cover) != 1:
        return None
    return (
        query.attr,
        query.function.signature(),
        query.predicate.canonical(),
        group_key,
    )


@dataclass
class _InflightExecution:
    """Late subscribers riding one pending (query, group) execution."""

    key: ExecutionKey
    #: (reply_to node id, query id) per late arrival, in arrival order.
    subscribers: list[tuple[int, str]] = field(default_factory=list)


class InflightTable:
    """Executions currently walking the tree from this root, by key.

    The owning node ``open()``s an entry when it dispatches a sub-query
    down the tree and ``close()``s it when the aggregation finalizes
    (normally, by timeout, or by failure resolution); identical requests
    arriving in between ``subscribe()`` and are answered from the single
    result.  Closing always returns the subscriber list, so a resolution
    forced by churn still fans out (subscribers get the partial -- or
    NULL -- answer, never a hang).
    """

    def __init__(self) -> None:
        self._executions: dict[ExecutionKey, _InflightExecution] = {}
        #: total late arrivals answered from a pending execution.
        self.subscriptions = 0

    def __len__(self) -> int:
        return len(self._executions)

    def __contains__(self, key: ExecutionKey) -> bool:
        return key in self._executions

    def open(self, key: ExecutionKey) -> None:
        """Register a newly dispatched execution (idempotent)."""
        if key not in self._executions:
            self._executions[key] = _InflightExecution(key=key)

    def subscribe(self, key: ExecutionKey, reply_to: int, qid: str) -> bool:
        """Attach a late arrival to a pending execution.

        Returns True (and records the subscriber) iff an identical
        execution is in flight; the caller then owes ``(reply_to, qid)``
        a reply when that execution closes.
        """
        execution = self._executions.get(key)
        if execution is None:
            return False
        execution.subscribers.append((reply_to, qid))
        self.subscriptions += 1
        return True

    def close(self, key: ExecutionKey) -> list[tuple[int, str]]:
        """Finish an execution; returns its subscribers (possibly empty)."""
        execution = self._executions.pop(key, None)
        if execution is None:
            return []
        return execution.subscribers
