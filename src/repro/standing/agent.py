"""Node-side standing subscriptions: install, delta push, lease expiry.

A :class:`StandingAgent` is composed into every
:class:`~repro.core.moara_node.MoaraNode` (as ``node.standing``).  It
keeps one entry per ``(sub_id, cover group)`` installed at this node and
pushes **replacement subtree partials** toward the group tree's root
whenever its subtree's contribution changes:

* the partial is the whole recomputed subtree aggregate, not an
  invertible increment -- correct for MIN/MAX/TOP-K, where a departed
  contributor cannot be "subtracted";
* pushes are suppressed when the recomputed partial equals the last one
  pushed (the :mod:`repro.sdims.continuous` suppression rule), so
  steady state costs zero messages;
* a subtree with nothing to say says nothing: a node that has never
  pushed, still sits under the parent it was installed under, and whose
  subtree partial is empty stays silent -- the parent holding no entry
  for a child already means "empty";
* an install goes down the group attribute's DHT tree (memoised per
  membership version in :meth:`StandingAgent._place`) and skips each
  child whose one-shot report here is PRUNE.  Such a child has no member
  below it and is in UPDATE mode, so it reports when one appears, and
  that report installs it (:meth:`StandingAgent.on_child_report`).  A
  cold tree costs one ``SUB_INSTALL`` per node, a warm one about members
  x depth; a refresh (a replan's new cover, a re-install sweep) and a
  cancel also retrace the edges reached, so they find holders a later
  one-shot query pruned; deltas cost one ``SUB_DELTA`` per hop from
  each contributor to the root.

Enmeshed covers and duplicate suppression: a node satisfying the
standing query's predicate may belong to several groups of an OR cover.
It contributes its value in exactly one tree -- the cover group with the
lexicographically smallest canonical key among those it satisfies -- so
the front-end can merge per-group streams without double counting.  An
attribute change that moves the node between cover groups surfaces as
two deltas (leave one tree, join the other).

Leases are enforced **lazily** at the root: the simulation kernel's
``run_until_idle`` drains every scheduled event, so the agent never
schedules recurring timers.  :meth:`StandingAgent.expire_stale` runs on
every standing message receipt (and is exposed for drivers); an expired
subscription sends the front-end a final ``expired`` update and fans a
cancel down its tree.  The agent tracks a lower bound on the earliest
deadline armed here, so the check is one comparison unless a lease held
at this node is due.

The per-flood constants of a subscription -- its canonical group key,
its tree key, the attribute names it depends on -- are resolved once
where the flood starts (:func:`install_payload`, :func:`cancel_payload`)
and ride the one shared, read-only payload down the tree; no node
re-derives them.

Every payload keys the subscription id as ``sub_id`` -- never ``qid`` --
so the network's per-query tag accounting ignores this long-lived
traffic (see :mod:`repro.core.messages`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.core import messages as mt
from repro.baselines.centralized import local_answer
from repro.core.moara_node import group_attribute
from repro.core.predicates import Predicate
from repro.core.query import STAR_ATTRIBUTE, Query
from repro.pastry.idspace import IdSpace
from repro.sim.network import Message

if TYPE_CHECKING:
    from repro.core.moara_node import MoaraNode

__all__ = ["StandingAgent", "cancel_payload", "install_payload"]

#: a subtree with no contributor: what a parent assumes of a child it
#: holds no entry for, and what a never-pushed node need not say.
_EMPTY: tuple[Any, int] = (None, 0)

#: "no lease deadline armed at this node".
_NEVER = float("inf")


def install_payload(
    sub_id: str,
    query: Query,
    predicate: Predicate,
    cover: tuple[Predicate, ...],
    lease: float,
    frontend: int,
    space: IdSpace,
) -> dict[str, Any]:
    """The SUB_INSTALL schema, resolved once where a flood starts.

    ``pred_key``, ``tree_key`` and ``attrs`` are the same at every node
    of the tree, so the front-end derives them here and every node reads
    them off the one shared payload it also forwards, unchanged, to its
    children."""
    attrs = set(query.predicate.attributes())
    if query.attr != STAR_ATTRIBUTE:
        attrs.add(query.attr)
    for group in cover:
        attrs |= group.attributes()
    return {
        "sub_id": sub_id,
        "query": query,
        "predicate": predicate,
        "pred_key": predicate.canonical(),
        "tree_key": space.hash_name(group_attribute(predicate)),
        "cover": cover,
        "attrs": frozenset(attrs),
        "lease": lease,
        "frontend": frontend,
    }


def cancel_payload(
    sub_id: str, predicate: Predicate, space: IdSpace
) -> dict[str, Any]:
    """The SUB_CANCEL schema, with the same per-flood keys as the install
    so no node of the tree re-derives them."""
    return {
        "sub_id": sub_id,
        "predicate": predicate,
        "pred_key": predicate.canonical(),
        "tree_key": space.hash_name(group_attribute(predicate)),
    }


@dataclass(slots=True)
class _Subscription:
    """One (standing query, cover group) installed at this node."""

    sub_id: str
    pred_key: str
    predicate: Predicate
    tree_key: int
    query: Query
    #: the full chosen cover (group predicates), for enmeshed OR-dedup.
    cover: tuple[Predicate, ...]
    lease: float
    frontend: int
    #: attribute names whose change can alter our contribution.
    attrs: frozenset[str]
    #: child node id -> (partial, contributors) it last pushed to us; a
    #: child without an entry has an empty subtree.
    child_partials: dict[int, tuple[Any, int]] = field(default_factory=dict)
    #: children that may hold this subscription through us (we sent them
    #: an install, or they pushed us a delta): where a cancel goes.
    reached: set[int] = field(default_factory=set)
    #: last (partial, contributors) pushed up (suppression state).
    last_pushed: Optional[tuple[Any, int]] = None
    #: parent at the time of the last push (re-push on change).
    known_parent: Optional[int] = None
    #: root-side lease deadline (0.0 = no expiry / not the root).
    expires_at: float = 0.0
    #: root-side monotone delta sequence for STANDING_UPDATE.
    seq: int = 0


def _install_payload(sub: _Subscription) -> dict[str, Any]:
    """:func:`install_payload` rebuilt from an installed subscription, for
    a delta to carry: a parent that never saw the install can install
    itself lazily from it."""
    return {
        "sub_id": sub.sub_id,
        "query": sub.query,
        "predicate": sub.predicate,
        "pred_key": sub.pred_key,
        "tree_key": sub.tree_key,
        "cover": sub.cover,
        "attrs": sub.attrs,
        "lease": sub.lease,
        "frontend": sub.frontend,
    }


class StandingAgent:
    """Per-node standing-subscription state machine."""

    def __init__(self, node: "MoaraNode") -> None:
        self._node = node
        #: the overlay's id index (stable identity; only ``.version``
        #: changes): gates the memo below.
        self._index = node.overlay.index
        #: tree key -> our place in that tree (see :meth:`_place`).
        self._places: dict[int, tuple[int, Optional[int], Sequence[int]]] = {}
        #: (sub_id, pred_key) -> subscription state.
        self._subs: dict[tuple[str, str], _Subscription] = {}
        #: a lower bound on the earliest ``expires_at`` armed here:
        #: :meth:`expire_stale` scans only once the clock reaches it.
        self._next_expiry = _NEVER

    # ------------------------------------------------------------------
    # introspection (leak invariant)
    # ------------------------------------------------------------------

    def sub_ids(self) -> set[str]:
        """Subscription ids with state at this node (leak checking)."""
        return {sub_id for sub_id, _ in self._subs}

    def __len__(self) -> int:
        return len(self._subs)

    # ------------------------------------------------------------------
    # tree navigation (the DHT tree; the one-shot reports prune installs)
    # ------------------------------------------------------------------

    def _place(self, tree_key: int) -> tuple[int, Optional[int], Sequence[int]]:
        """``(membership version, parent, children)`` of this node in the
        tree for ``tree_key``, read from the overlay once per membership
        version and shared by every subscription on that tree -- a fresh
        subscription on a known tree costs a dict hit, not a lookup."""
        place = self._places.get(tree_key)
        version = self._index.version
        if place is None or place[0] != version:
            overlay = self._node.overlay
            node_id = self._node.node_id
            if node_id in overlay:
                tree = overlay.tree(tree_key)
                place = (version, tree.parent_of(node_id), tree.children_of(node_id))
            else:
                place = (version, None, ())
            self._places[tree_key] = place
        return place

    def _children(self, sub: _Subscription) -> Sequence[int]:
        """Our children in the subscription's tree, sorted; read-only."""
        return self._place(sub.tree_key)[2]

    def _parent(self, sub: _Subscription) -> Optional[int]:
        return self._place(sub.tree_key)[1]

    # ------------------------------------------------------------------
    # message handlers (wired into MoaraNode's dispatch table)
    # ------------------------------------------------------------------

    def handle_install(self, message: Message) -> None:
        payload = message.payload
        sub = self._install(payload)
        # Idempotent fan-down: reach children that joined since the last
        # sweep (the front-end re-installs on every membership change).
        # The flood's one payload goes down as it came.
        self._install_down(sub, payload)
        # Installed over an edge churn has since moved: tell our parent,
        # or no cancel would ever reach us.
        self._push(sub, force=sub.known_parent not in (None, message.src))
        self.expire_stale(self._node.network.engine.now)

    def handle_delta(self, message: Message) -> None:
        payload = message.payload
        key = (payload["sub_id"], payload["pred_key"])
        sub = self._subs.get(key)
        rerooted = sub is None
        if rerooted:
            if not payload.get("rerooted"):
                # A routine delta for a subscription we do not hold was
                # sent before our cancel reached the sender (cancels walk
                # down while deltas walk up).  Installing from it would
                # bring the subscription back above the cancel.
                return
            # Post-churn re-rooting: a child pushed to us before our own
            # install arrived.  The delta carries the install schema, so
            # install lazily (no fan-down; the front-end's re-install
            # sweep covers the rest of the tree).
            sub = self._install(payload)
        if message.src not in self._children(sub):
            # Stale sender (no longer our child after reconfiguration):
            # accepting it would double-count its subtree, which now
            # reaches the root through its new parent.
            return
        sub.reached.add(message.src)
        sub.child_partials[message.src] = (
            payload["partial"],
            payload["contributors"],
        )
        # Our own parent may not hold the subscription either.
        self._push(sub, force=rerooted)
        self.expire_stale(self._node.network.engine.now)

    def handle_cancel(self, message: Message) -> None:
        payload = message.payload
        sub = self._subs.pop((payload["sub_id"], payload["pred_key"]), None)
        # Down the edges the subscription reached.  Without an entry (a
        # repeated cancel) there is no record of them: fan down the whole
        # subtree, which still reaches every descendant holding state.
        if sub is None:
            self._fan_down(self._place(payload["tree_key"])[2], mt.SUB_CANCEL, payload)
        else:
            self._cancel_down(sub, payload)

    def handle_renew(self, message: Message) -> None:
        payload = message.payload
        key = (payload["sub_id"], payload["predicate"].canonical())
        sub = self._subs.get(key)
        now = self._node.network.engine.now
        if sub is not None:
            sub.lease = payload["lease"]
            if sub.lease > 0 and self._parent(sub) is None:
                self._arm(sub, now + sub.lease)
        self.expire_stale(now)

    # ------------------------------------------------------------------
    # churn hooks (called from MoaraNode)
    # ------------------------------------------------------------------

    def on_child_report(self, pred_key: str, child: int) -> None:
        """A child's one-shot report names a member below it: every
        subscription on that group that has not reached the child installs
        it there, and it fans down under the same rule."""
        node = self._node
        for sub in self._subs.values():
            if sub.pred_key == pred_key and child not in sub.reached:
                if child in self._children(sub):
                    sub.reached.add(child)
                    node.network.send(node.node_id, child, mt.SUB_INSTALL, _install_payload(sub))

    def on_attribute_change(self, name: str) -> None:
        """A local attribute changed: re-push every affected subscription
        (suppressed when the recomputed subtree partial is unchanged)."""
        for sub in list(self._subs.values()):
            if name in sub.attrs:
                self._push(sub)

    def on_membership_change(self, joined: set[int], left: set[int]) -> None:
        """Overlay churn: re-derive parents/children per subscription.

        Partials from nodes that stopped being our children are dropped
        (their subtrees now reach the root through another path --
        keeping them would double-count), and a changed parent gets a
        forced push (marked ``rerooted``) carrying the install schema so
        it can install itself lazily before its own install arrives.
        """
        if self._node.node_id not in self._node.overlay:
            self._subs.clear()
            return
        now = self._node.network.engine.now
        for sub in list(self._subs.values()):
            children = self._children(sub)
            for child in [
                c for c in sub.child_partials if c not in children
            ]:
                del sub.child_partials[child]
            sub.reached.intersection_update(children)
            parent = self._parent(sub)
            if parent != sub.known_parent:
                if parent is None and sub.lease > 0 and sub.expires_at == 0.0:
                    # We just became this tree's root: start the lease
                    # clock (the old root's deadline died with it).
                    self._arm(sub, now + sub.lease)
                self._push(sub, force=True)
            else:
                self._push(sub)
        self.expire_stale(now)

    # ------------------------------------------------------------------
    # lease enforcement (lazy -- no engine timers)
    # ------------------------------------------------------------------

    def _arm(self, sub: _Subscription, deadline: float) -> None:
        """Set the root-side lease deadline (every ``expires_at``
        assignment goes through here, so ``_next_expiry`` never
        overshoots a live deadline)."""
        sub.expires_at = deadline
        if deadline < self._next_expiry:
            self._next_expiry = deadline

    def expire_stale(self, now: float) -> None:
        """Drop root-side subscriptions whose lease ran out.

        The front-end gets a final ``expired`` STANDING_UPDATE and the
        subtree a cancel fan-down.  Called on every standing message
        receipt and exposed for drivers; never scheduled (the simulation
        kernel's ``run_until_idle`` must terminate).  One comparison
        unless a deadline armed here has been reached.
        """
        if now < self._next_expiry:
            return
        node = self._node
        next_expiry = _NEVER
        for key, sub in list(self._subs.items()):
            if sub.expires_at <= 0.0:
                continue
            if sub.expires_at > now:
                next_expiry = min(next_expiry, sub.expires_at)
                continue
            if self._parent(sub) is not None:
                sub.expires_at = 0.0  # no longer the root: not our call
                continue
            del self._subs[key]
            node.network.stats.standing_expired += 1
            sub.seq += 1
            node.network.send(
                node.node_id,
                sub.frontend,
                mt.STANDING_UPDATE,
                {
                    "sub_id": sub.sub_id,
                    "pred_key": sub.pred_key,
                    "predicate": sub.predicate,
                    "partial": None,
                    "contributors": 0,
                    "seq": sub.seq,
                    "cost": 2.0,
                    "expired": True,
                },
            )
            self._cancel_down(sub, cancel_payload(sub.sub_id, sub.predicate, node.overlay.space))
        self._next_expiry = next_expiry

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _install(self, payload: dict[str, Any]) -> _Subscription:
        key = (payload["sub_id"], payload["pred_key"])
        sub = self._subs.get(key)
        if sub is None:
            sub = self._subs[key] = _Subscription(
                sub_id=payload["sub_id"],
                pred_key=payload["pred_key"],
                predicate=payload["predicate"],
                tree_key=payload["tree_key"],
                query=payload["query"],
                cover=payload["cover"],
                lease=payload["lease"],
                frontend=payload["frontend"],
                attrs=payload["attrs"],
            )
        else:
            # Refresh (re-install sweep / lease change): covers and
            # leases may move; the subtree state is kept.
            sub.cover = payload["cover"]
            sub.attrs = payload["attrs"]
            sub.lease = payload["lease"]
            sub.frontend = payload["frontend"]
        sub.known_parent = self._parent(sub)
        if sub.known_parent is None and sub.lease > 0:
            self._arm(sub, self._node.network.engine.now + sub.lease)
        return sub

    def _install_down(self, sub: _Subscription, payload: dict[str, Any]) -> None:
        """Install every child but those whose one-shot report here is
        PRUNE (no state, or no report: covered).  A child the subscription
        already reached still gets it: it may hold the subscription below
        the frontier, and a refresh must carry it the new cover."""
        state = self._node.states.get(sub.pred_key)
        reports = state.children if state is not None else {}
        children = [
            c
            for c in self._children(sub)
            if c in sub.reached or c not in reports or reports[c].update_set != frozenset()
        ]
        sub.reached.update(children)
        self._fan_down(children, mt.SUB_INSTALL, payload)

    def _cancel_down(self, sub: _Subscription, payload: dict[str, Any]) -> None:
        children = [c for c in self._children(sub) if c in sub.reached]
        self._fan_down(children, mt.SUB_CANCEL, payload)

    def _fan_down(self, children: Sequence[int], mtype: str, payload: dict[str, Any]) -> None:
        if children:
            node = self._node
            node.network.send_many(node.node_id, children, mtype, payload)

    def _local_contribution(self, sub: _Subscription) -> tuple[Any, int]:
        """This node's own (partial, contributed) for the standing query,
        with enmeshed OR-dedup: contribute in this tree only if it is the
        lexicographically smallest cover group we satisfy."""
        node = self._node
        partial, contributed = local_answer(
            sub.query, node.node_id, node.attributes
        )
        if not contributed:
            return None, 0
        attrs = node.attributes.data
        designated = min(
            (
                group.canonical()
                for group in sub.cover
                if group.evaluate(attrs)
            ),
            # A node satisfying the query predicate satisfies at least
            # one cover group (the CNF clause property); the fallback
            # only fires on a cover/predicate mismatch mid-replan.
            default=sub.pred_key,
        )
        if designated != sub.pred_key:
            return None, 0
        return partial, 1

    def _subtree(self, sub: _Subscription) -> tuple[Any, int]:
        """Merge our contribution with every live child's partial."""
        partial, contributors = self._local_contribution(sub)
        merge = sub.query.function.merge
        for child_partial, child_count in sub.child_partials.values():
            partial = merge(partial, child_partial)
            contributors += child_count
        return partial, contributors

    def _push(self, sub: _Subscription, force: bool = False) -> None:
        """Recompute the subtree partial and push it toward the root
        (suppressed when unchanged, exactly like sdims continuous).

        A first report of an empty subtree to the parent we were
        installed under is suppressed too: no entry at the parent reads
        as empty.  The root's first update, a re-rooting push and an
        emptying after something was pushed all still leave."""
        current = self._subtree(sub)
        parent = self._parent(sub)
        rerooted = force or parent != sub.known_parent
        if not rerooted:
            if sub.last_pushed is None:
                if parent is not None and current == _EMPTY:
                    return
            elif sub.last_pushed == current:
                return
        sub.last_pushed = current
        sub.known_parent = parent
        node = self._node
        partial, contributors = current
        if parent is None:
            # We are the root: fold into a front-end update.
            sub.seq += 1
            payload = {
                "sub_id": sub.sub_id,
                "pred_key": sub.pred_key,
                "predicate": sub.predicate,
                "partial": partial,
                "contributors": contributors,
                "seq": sub.seq,
                # The same 2*np-style estimate a SIZE_RESPONSE would
                # carry, approximated by live contributor count: feeds
                # the front-end size cache for standing replans without
                # a probe round-trip.
                "cost": 2.0 * max(contributors, 1),
            }
            mtype, dst = mt.STANDING_UPDATE, sub.frontend
        else:
            payload = _install_payload(sub)
            payload["partial"] = partial
            payload["contributors"] = contributors
            mtype, dst = mt.SUB_DELTA, parent
        if rerooted:
            # Not a routine change: the receiver may not know this
            # subscription (a parent installs from the delta), or may
            # have torn it down (a front-end answers with a cancel).
            payload["rerooted"] = True
        node.network.send(node.node_id, dst, mtype, payload)
