"""Dynamic-maintenance adaptation policy (paper Section 4, Figure 4).

Each node keeps, per predicate, an ``update`` flag deciding whether it
propagates pruning state to its parent:

* ``update = 1`` (UPDATE): the node informs its parent of PRUNE/NO-PRUNE
  transitions -- one message per change, and queries reach it only when
  useful (cost ``c + 2*qs``).
* ``update = 0`` (NO-UPDATE): the node stays silent and therefore must
  receive every query (cost ``2*(qn + qs)``).

The decision rule (Procedure 2) compares those costs over a recent window
of events: switch to NO-UPDATE when ``2*qn < c``, to UPDATE when
``2*qn > c``, where ``qn`` counts recent queries received while the node was
not contributing ("NO-SAT" / own id absent from its updateSet), ``qs``
queries while contributing, and ``c`` recent satisfiability changes.  The
window holds the last ``k_UPDATE`` events in UPDATE state and the last
``k_NO_UPDATE`` events in NO-UPDATE state; the paper finds (1, 3) works well
and we default to that.

Because a pruned node receives no queries, it learns about missed queries
from the root-assigned sequence numbers piggybacked on later messages and
accounts for the gap as ``qn`` events.

Two degenerate policies give the baselines of Figure 9: ``ALWAYS_UPDATE``
pins ``update = 1`` (the "Moara (Always-Update)" curve) and ``NEVER_UPDATE``
pins ``update = 0``, making every query a global broadcast (the "Global"
curve, equivalently the SDIMS single-tree approach).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["AdaptationConfig", "Adaptor", "MaintenancePolicy"]


class MaintenancePolicy(Enum):
    """How a node maintains its per-predicate tree state."""

    ADAPTIVE = "adaptive"  # Moara's dynamic policy (Section 4)
    ALWAYS_UPDATE = "always-update"  # aggressive tree maintenance baseline
    NEVER_UPDATE = "never-update"  # global broadcast baseline ("Global")


@dataclass(frozen=True)
class AdaptationConfig:
    """Tunables for the adaptation policy."""

    policy: MaintenancePolicy = MaintenancePolicy.ADAPTIVE
    k_update: int = 1  # window length while in UPDATE state
    k_no_update: int = 3  # window length while in NO-UPDATE state

    def __post_init__(self) -> None:
        if self.k_update < 1 or self.k_no_update < 1:
            raise ValueError("window lengths must be >= 1")


# Event codes of the packed window: two bits each, 0 = empty slot.
_QUERY_SAT = 1
_QUERY_NOSAT = 2
_CHANGE = 3


@dataclass(slots=True)
class Adaptor:
    """Per-(node, predicate) adaptation state machine.

    Slotted: one instance per (node, predicate) tree state, consulted on
    every query receipt."""

    config: AdaptationConfig = field(default_factory=AdaptationConfig)
    update: bool = field(init=False)
    #: the recent-event window, packed into one int: two bits per event,
    #: newest in the low bits, cut to the longer of the two window
    #: lengths.  With the default (1, 3) windows it stays below 64 -- an
    #: interpreter-cached small int, so the window costs no memory beyond
    #: its slot (there is one Adaptor per tree state per node).
    _events: int = field(init=False, repr=False, compare=False)
    #: hot-path copies of the (immutable) config knobs, resolved once
    #: (:meth:`record_query` runs per query per receiving node): the
    #: policy test, and each state's window length ``k`` as the bit mask
    #: ``4**k - 1`` that cuts ``_events`` to its newest ``k`` events.
    _adaptive: bool = field(init=False, repr=False, compare=False)
    _mask_update: int = field(init=False, repr=False, compare=False)
    _mask_no_update: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Paper Procedure 2: "Initial Value: update <- 0 // in the
        # beginning, a node receives every query".
        self.update = self.config.policy is MaintenancePolicy.ALWAYS_UPDATE
        self._events = 0
        self._adaptive = self.config.policy is MaintenancePolicy.ADAPTIVE
        self._mask_update = 4**self.config.k_update - 1
        self._mask_no_update = 4**self.config.k_no_update - 1

    # ------------------------------------------------------------------
    # event recording (each returns True when the update flag flipped)
    # ------------------------------------------------------------------

    def record_query(self, contributing: bool, missed: int = 0) -> bool:
        """Account for one received query, plus ``missed`` earlier queries
        inferred from a sequence-number gap (those arrived while this node
        was pruned out, hence counted as non-contributing).

        This runs once per query per receiving node, hence the short-cut
        for the common ``k == 1`` window, where only the event just
        pushed matters.
        """
        # The longer window's mask (both are all-ones, so OR is max).
        keep = self._mask_update | self._mask_no_update
        events = self._events
        if missed:
            for _ in range(min(missed, keep.bit_length() >> 1)):
                events = (events << 2) | _QUERY_NOSAT
        self._events = (
            (events << 2) | (_QUERY_SAT if contributing else _QUERY_NOSAT)
        ) & keep
        if not self._adaptive:
            return False  # pinned
        update = self.update
        if (self._mask_update if update else self._mask_no_update) != 3:
            return self._reevaluate()
        # k == 1: the window is exactly the event pushed above (a query
        # event, never a change), so qn = not contributing and c = 0:
        # Procedure 2 can only say UPDATE, and only for a
        # non-contributing query.
        if contributing or update:
            return False
        self.update = True
        return True

    def record_change(self) -> bool:
        """Account for one satisfiability / updateSet change."""
        self._events = ((self._events << 2) | _CHANGE) & (
            self._mask_update | self._mask_no_update
        )
        return self._reevaluate()

    def resume(self, window: int) -> None:
        """Continue in UPDATE from a saved :attr:`window`."""
        self.update = True
        self._events = window

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def window(self) -> int:
        """The packed recent-event window."""
        return self._events

    def counts(self) -> tuple[int, int, int]:
        """(qn, qs, c) over the window for the current state."""
        mask = self._mask_update if self.update else self._mask_no_update
        window = self._events & mask
        # Split each two-bit code into its low and high bit (``mask // 3``
        # is 0b...0101): qs sets only the low one, qn only the high one,
        # a change both; empty slots neither.
        low_bits = mask // 3
        low = window & low_bits
        high = (window >> 1) & low_bits
        c = (low & high).bit_count()
        return high.bit_count() - c, low.bit_count() - c, c

    # ------------------------------------------------------------------
    # Procedure 2
    # ------------------------------------------------------------------

    def _reevaluate(self) -> bool:
        if not self._adaptive:
            return False  # pinned
        qn, _, c = self.counts()
        if 2 * qn == c:
            return False
        new_update = 2 * qn > c
        if new_update == self.update:
            return False
        self.update = new_update
        return True
