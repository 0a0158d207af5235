"""Predicate-state garbage-collection policies (paper Section 4).

"Several policies for deciding when to garbage-collect state information
are possible: we could 1) garbage-collect each predicate after a timeout
expires, 2) keep only the last k predicates queried, 3) garbage-collect the
least frequently queried predicate every time a new query arrives."

All three are implemented here.  A policy never overrides safety: state is
only dropped when :meth:`repro.core.moara_node.MoaraNode.garbage_collect`
agrees (the node is in NO-UPDATE and still routed queries by default), so
eventual completeness is preserved regardless of policy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.moara_node import MoaraNode

__all__ = [
    "GCPolicy",
    "IdleTimeoutGC",
    "KeepLastKGC",
    "LeastFrequentGC",
    "NoGC",
]


class GCPolicy(ABC):
    """Decides which predicate states are worth keeping."""

    @abstractmethod
    def on_query(self, node: "MoaraNode", pred_key: str, now: float) -> None:
        """Called whenever a query for ``pred_key`` is processed."""

    @abstractmethod
    def collect(self, node: "MoaraNode", now: float) -> list[str]:
        """Return the predicate keys to *attempt* collecting now."""

    def sweep(self, node: "MoaraNode", now: float) -> int:
        """Attempt collection; returns how many states were dropped."""
        dropped = 0
        for pred_key in self.collect(node, now):
            if node.garbage_collect(pred_key):
                dropped += 1
        return dropped


class NoGC(GCPolicy):
    """Keep every predicate's state forever (the default)."""

    def on_query(self, node: "MoaraNode", pred_key: str, now: float) -> None:
        pass

    def collect(self, node: "MoaraNode", now: float) -> list[str]:
        return []


@dataclass
class IdleTimeoutGC(GCPolicy):
    """Policy 1: collect a predicate once it has been idle for ``timeout``
    seconds (no query seen)."""

    timeout: float = 600.0
    _last_query: dict[str, float] = field(default_factory=dict)

    def on_query(self, node: "MoaraNode", pred_key: str, now: float) -> None:
        self._last_query[pred_key] = now

    def collect(self, node: "MoaraNode", now: float) -> list[str]:
        stale = []
        for pred_key in node.tree_keys():
            last = self._last_query.get(pred_key)
            if last is None:
                # State created by a child report, never queried here: give
                # it a full timeout window from now.
                self._last_query[pred_key] = now
            elif now - last >= self.timeout:
                stale.append(pred_key)
        for pred_key in stale:
            self._last_query.pop(pred_key, None)
        return stale


@dataclass
class KeepLastKGC(GCPolicy):
    """Policy 2: keep state only for the last ``k`` distinct predicates
    queried; older ones become collection candidates."""

    k: int = 8
    _recency: list[str] = field(default_factory=list)

    def on_query(self, node: "MoaraNode", pred_key: str, now: float) -> None:
        if pred_key in self._recency:
            self._recency.remove(pred_key)
        self._recency.append(pred_key)

    def collect(self, node: "MoaraNode", now: float) -> list[str]:
        keep = set(self._recency[-self.k :])
        return [key for key in node.tree_keys() if key not in keep]


@dataclass
class LeastFrequentGC(GCPolicy):
    """Policy 3: when more than ``capacity`` predicates are tracked,
    collect the least frequently queried ones."""

    capacity: int = 16
    _counts: dict[str, int] = field(default_factory=dict)

    def on_query(self, node: "MoaraNode", pred_key: str, now: float) -> None:
        self._counts[pred_key] = self._counts.get(pred_key, 0) + 1

    def collect(self, node: "MoaraNode", now: float) -> list[str]:
        keys = node.tree_keys()
        if len(keys) <= self.capacity:
            return []
        keys.sort(key=lambda key: (self._counts.get(key, 0), key))
        return keys[: len(keys) - self.capacity]
