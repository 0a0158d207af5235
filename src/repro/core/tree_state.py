"""Per-(node, predicate) group-tree state, in two forms with one owner.

This module holds the pure (side-effect-free) part of Sections 4 and 5:
given what a node knows -- its own satisfiability, what each child last
reported, the separate-query-plane ``threshold`` -- compute the derived
``qSet``, ``updateSet``, ``sat``/``prune`` values and the forwarding targets
for a query.  The message-driven behaviour lives in
:mod:`repro.core.moara_node`.

A node's state for one predicate takes one of two forms, both owned
here with the conversion between them: the full
:class:`PredicateTreeState` every handler works on, and the
:class:`PrunedLeaf` record of the shape most states have -- a leaf
outside the group that told its parent PRUNE (Section 4: such a node
keeps only what pruning needs).  :meth:`PredicateTreeState.compact`
makes a record only when :meth:`PrunedLeaf.expand` rebuilds every
protocol field as it was, and the node expands it before any handler
mutates it, so the protocol cannot tell the two forms apart.

Key modelling points (see DESIGN.md):

* The paper's Section 5 machinery (``qSet``/``updateSet``) subsumes the
  Section 4 pruned tree: ``threshold = 1`` degenerates to plain pruning, so
  we implement only the general mechanism.
* A child the parent has *no state for* is treated as if it had reported
  ``updateSet = {child}``: the parent must forward queries to it directly
  (Procedure 1's "by default, a parent does not maintain any state on its
  children" rule) -- this is what makes the very first query a global
  broadcast and guarantees eventual completeness for silent subtrees.
* ``subtree_recv`` is the lazily aggregated count of nodes in the subtree
  that would receive a query; the root's value gives the query-cost
  estimate ``2 * np`` served to size probes (Section 6.3).
* The standing-query plane (:mod:`repro.standing`) deliberately
  **bypasses** this state: PRUNE/NO-UPDATE makes churn inside a pruned
  region invisible until the next query -- exactly the blind spot a
  standing subscription exists to close -- so subscriptions fan down
  the *raw* DHT tree (every node of the attribute's tree) and this
  module's pruning only ever shapes one-shot query forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Optional, Sequence

from repro.core.adapt import Adaptor
from repro.core.predicates import SimplePredicate

__all__ = ["ChildInfo", "PredicateTreeState", "PrunedLeaf"]

# Most tree states belong to leaves that are not in the group, and theirs
# are all the same values: nobody to forward to, nobody reported, an empty
# updateSet.  One read-only instance of each serves every such state
# instead of a private empty container apiece.
_NO_NODES: frozenset[int] = frozenset()
_NO_REPORTS: Mapping[int, "ChildInfo"] = MappingProxyType({})


class ChildInfo(NamedTuple):
    """What a node knows about one DHT child for one predicate (immutable:
    a new report replaces the entry, so equal reports can share one)."""

    #: The child's last reported updateSet.  ``None`` means the child has
    #: never reported (default: forward queries straight to the child);
    #: an empty set means the child sent PRUNE.
    update_set: Optional[frozenset[int]] = None
    #: The child's last piggybacked subtree receive-count estimate.
    subtree_recv: int = 1


#: PRUNE with nobody below receiving queries: every pruned leaf outside
#: the group reports this, so one instance serves all of them.
_PRUNED = ChildInfo(_NO_NODES, 0)


@dataclass(slots=True)
class PredicateTreeState:
    """All protocol state one node keeps for one simple predicate.

    Slotted: a busy node holds one instance per predicate it has seen,
    and every field below is touched on message hot paths."""

    predicate: SimplePredicate
    tree_key: int  # DHT key = hash(group-attribute), paper Section 3.2
    node_id: int
    adaptor: Adaptor
    threshold: int = 2
    #: the predicate's canonical key, interned once (hot path: every
    #: message handler needs it; computed in __post_init__ if not given).
    pred_key: str = ""

    #: ``frozenset({node_id})``, the updateSet of a node that must receive
    #: queries itself.  The agent assigns one instance per node, shared by
    #: all of that node's states, right after construction.
    self_set: frozenset[int] = field(init=False, repr=False, compare=False)

    local_sat: bool = False
    #: last report per DHT child; a dict from the first report on
    #: (:meth:`record_child_report`), read-only and shared before.
    children: Mapping[int, ChildInfo] = field(default_factory=lambda: _NO_REPORTS)
    #: last updateSet actually sent to the parent; None = nothing ever sent
    #: (the parent then defaults to treating us as ``{node_id}``).
    sent_update_set: Optional[frozenset[int]] = None
    #: last computed updateSet (change detection for adaptation events).
    computed_update_set: frozenset[int] = _NO_NODES
    last_seen_seq: int = 0
    known_parent: Optional[int] = None
    #: creation ordinal: a node visits all its states in this order,
    #: whichever form each one is in.
    created: int = 0

    #: version-gated caches of this node's DHT children/parent in the tree
    #: for ``tree_key``, maintained by the agent against the overlay's
    #: membership version (stale entries are never consulted; every
    #: membership change bumps the version).  ``-1`` means never computed.
    cached_children: Sequence[int] = ()
    cached_children_version: int = -1
    cached_parent: Optional[int] = None
    cached_parent_version: int = -1

    #: bumped when the children-report map changes in a way that affects
    #: routing (membership of the map or an ``update_set``); together with
    #: the membership version it keys the agent's memos of
    #: :meth:`forward_targets` / :meth:`subtree_recv` (the two derived
    #: values recomputed on every query receipt / reply otherwise).
    report_version: int = 0
    #: bumped when a child's ``subtree_recv`` estimate changes (piggybacked
    #: on every reply, so kept separate: np churn must not invalidate the
    #: routing memo).
    recv_version: int = 0
    fwd_targets_key: Optional[tuple] = None
    fwd_targets: Optional[AbstractSet[int]] = None
    #: ``sorted(fwd_targets)`` memoized alongside the set (the query path
    #: sorts the fan-out for deterministic send order on every receipt;
    #: invalidated whenever ``fwd_targets`` is recomputed).
    fwd_targets_sorted: Optional[list] = None
    subtree_recv_key: Optional[tuple] = None
    subtree_recv_value: int = 0

    def __post_init__(self) -> None:
        if not self.pred_key:
            self.pred_key = self.predicate.canonical()

    # ------------------------------------------------------------------
    # derived values (Sections 4 and 5)
    # ------------------------------------------------------------------

    def q_set(self, dht_children: Iterable[int]) -> set[int]:
        """Nodes this one would forward a query to, by child report."""
        children = self.children
        if not children:
            # Fast path (every tree-state creation): no reports yet, so
            # every DHT child is a silent child.
            result = set(dht_children)
        else:
            result = set()
            for child in dht_children:
                info = children.get(child)
                if info is None or info.update_set is None:
                    result.add(child)  # silent child: must receive queries
                else:
                    result |= info.update_set
        if self.local_sat:
            result.add(self.node_id)
        return result

    def compute_update_set(self, dht_children: Iterable[int]) -> frozenset[int]:
        """Section 5: ``updateSet = qSet`` while it stays under the
        threshold, else collapse to our own ID (we become a forwarding
        hub that must receive queries itself)."""
        q = self.q_set(dht_children)
        if not q:
            return _NO_NODES
        if len(q) >= self.threshold or q == self.self_set:
            return self.self_set
        return frozenset(q)

    def sat(self, dht_children: Iterable[int]) -> bool:
        """Procedure 1: the subtree should keep receiving queries."""
        return bool(self.q_set(dht_children))

    def prune(self, dht_children: Iterable[int]) -> bool:
        """Procedure 3's invariants (update=0 implies prune=0)."""
        return self.adaptor.update and not self.sat(dht_children)

    def effective_sent_set(self) -> frozenset[int]:
        """What the parent currently believes our updateSet is.

        Never having sent anything is equivalent to ``{node_id}``: the
        parent forwards queries directly to us by default.
        """
        if self.sent_update_set is None:
            return self.self_set
        return self.sent_update_set

    def would_receive_queries(self) -> bool:
        """Does the parent's view route queries to this node?"""
        return self.node_id in self.effective_sent_set()

    def forward_targets(self, dht_children: Sequence[int]) -> AbstractSet[int]:
        """Where to forward a received query (excluding ourselves).
        Read-only for the caller."""
        if not dht_children:
            return _NO_NODES
        targets: set[int] = set()
        for child in dht_children:
            info = self.children.get(child)
            if info is None or info.update_set is None:
                targets.add(child)
            else:
                targets |= info.update_set
        targets.discard(self.node_id)
        return targets

    def subtree_recv(self, dht_children: Iterable[int], is_root: bool) -> int:
        """Estimated number of query receivers in our subtree (np).

        Children that never reported are estimated at 1 (at least
        themselves); the estimate is lazily corrected as reports arrive --
        the paper accepts this staleness since it "only affects
        communication overhead, but not the correctness of the response".
        """
        if is_root:
            total = 1
        else:
            # Inlined would_receive_queries (this runs on every reply).
            sent = self.sent_update_set
            total = 1 if (sent is None or self.node_id in sent) else 0
        children = self.children
        for child in dht_children:
            info = children.get(child)
            total += info.subtree_recv if info is not None else 1
        return total

    # ------------------------------------------------------------------
    # child-report bookkeeping
    # ------------------------------------------------------------------

    def record_child_report(
        self,
        child: int,
        update_set: Optional[frozenset[int]],
        subtree_recv: Optional[int],
    ) -> None:
        """Store a STATUS_UPDATE / STATE_SYNC / piggybacked report.

        Version bumps are gated on actual value changes so the memos over
        this map survive the no-op reports that dominate steady state
        (every reply re-piggybacks an unchanged ``subtree_recv``)."""
        old = self.children.get(child)
        if old is None:
            if self.children is _NO_REPORTS:
                self.children = {}
            self.report_version += 1
        reported, recv = old or ChildInfo()
        if update_set is not None and update_set != reported:
            reported = update_set
            self.report_version += 1
        if subtree_recv is not None and subtree_recv != recv:
            recv = subtree_recv
            self.recv_version += 1
        info = ChildInfo(reported, recv)
        self.children[child] = _PRUNED if info == _PRUNED else info

    def forget_children(self, departed: set[int]) -> bool:
        """Drop state for departed children; True if anything was removed."""
        removed = False
        for child in departed:
            if child in self.children:
                del self.children[child]
                removed = True
        if removed:
            self.report_version += 1
        return removed

    # ------------------------------------------------------------------
    # the compact form
    # ------------------------------------------------------------------

    def compact(self) -> Optional["PrunedLeaf"]:
        """This state as a record, or None unless it has exactly the values
        :meth:`PrunedLeaf.expand` rebuilds: no DHT children and no child
        report ever (both versions 0), not in the group, PRUNE computed
        and sent, adaptor in UPDATE.  The caller checks that nothing
        pending or held refers to it."""
        if (
            self.local_sat
            or self.computed_update_set
            or self.sent_update_set != _NO_NODES
            or self.report_version
            or self.recv_version
            or self.cached_children
            or not self.adaptor.update
        ):
            return None
        return PrunedLeaf(
            self.predicate,
            self.tree_key,
            self.last_seen_seq,
            self.known_parent,
            self.adaptor.window,
            self.created,
        )


class PrunedLeaf(NamedTuple):
    """A pruned leaf outside the group: only what varies between such
    leaves.  Its parent holds the shared PRUNE report for it, and it
    receives no queries."""

    predicate: SimplePredicate
    tree_key: int
    last_seen_seq: int
    known_parent: Optional[int]
    #: the adaptor's packed recent-event window (the adaptor is in UPDATE)
    window: int
    created: int

    def expand(self, state: PredicateTreeState) -> PredicateTreeState:
        """Fill the node's blank state for this predicate (its id,
        threshold, a new adaptor) with the values the record stands for."""
        state.sent_update_set = state.computed_update_set = _NO_NODES
        state.last_seen_seq = self.last_seen_seq
        state.known_parent = self.known_parent
        state.adaptor.resume(self.window)
        return state
