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
* the subscription walks the **raw DHT tree** for the group attribute
  (``overlay.parent``/``overlay.children``), deliberately bypassing the
  PRUNE state of :mod:`repro.core.tree_state`: every churn event in the
  subtree is visible by construction.

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
cancel down its tree.

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
from repro.core.query import Query
from repro.sim.network import Message

if TYPE_CHECKING:
    from repro.core.moara_node import MoaraNode

__all__ = ["StandingAgent"]


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
    #: child node id -> (partial, contributors) it last pushed to us.
    child_partials: dict[int, tuple[Any, int]] = field(default_factory=dict)
    #: last (partial, contributors) pushed up (suppression state).
    last_pushed: Optional[tuple[Any, int]] = None
    #: parent at the time of the last push (re-push on change).
    known_parent: Optional[int] = None
    #: root-side lease deadline (0.0 = no expiry / not the root).
    expires_at: float = 0.0
    #: root-side monotone delta sequence for STANDING_UPDATE.
    seq: int = 0


def _install_payload(sub: _Subscription) -> dict[str, Any]:
    """The SUB_INSTALL schema for ``sub`` (also piggybacked on deltas so
    a parent that never saw the install can install itself lazily)."""
    return {
        "sub_id": sub.sub_id,
        "query": sub.query,
        "predicate": sub.predicate,
        "cover": sub.cover,
        "lease": sub.lease,
        "frontend": sub.frontend,
    }


class StandingAgent:
    """Per-node standing-subscription state machine."""

    def __init__(self, node: "MoaraNode") -> None:
        self._node = node
        #: (sub_id, pred_key) -> subscription state.
        self._subs: dict[tuple[str, str], _Subscription] = {}

    # ------------------------------------------------------------------
    # introspection (leak invariant)
    # ------------------------------------------------------------------

    def sub_ids(self) -> set[str]:
        """Subscription ids with state at this node (leak checking)."""
        return {sub_id for sub_id, _ in self._subs}

    def __len__(self) -> int:
        return len(self._subs)

    # ------------------------------------------------------------------
    # tree navigation (raw DHT tree -- no prune state)
    # ------------------------------------------------------------------

    def _children(self, sub: _Subscription) -> Sequence[int]:
        overlay = self._node.overlay
        if self._node.node_id not in overlay:
            return ()
        return overlay.children(self._node.node_id, sub.tree_key)

    def _parent(self, sub: _Subscription) -> Optional[int]:
        overlay = self._node.overlay
        if self._node.node_id not in overlay:
            return None
        return overlay.parent(self._node.node_id, sub.tree_key)

    # ------------------------------------------------------------------
    # message handlers (wired into MoaraNode's dispatch table)
    # ------------------------------------------------------------------

    def handle_install(self, message: Message) -> None:
        sub = self._install(message.payload)
        # Idempotent fan-down: reach children that joined since the last
        # sweep (the front-end re-installs on every membership change).
        self._fan_down(sub, mt.SUB_INSTALL, _install_payload(sub))
        self._push(sub)
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
        sub.child_partials[message.src] = (
            payload["partial"],
            payload["contributors"],
        )
        # Our own parent may not hold the subscription either.
        self._push(sub, force=rerooted)
        self.expire_stale(self._node.network.engine.now)

    def handle_cancel(self, message: Message) -> None:
        payload = message.payload
        sub_id = payload["sub_id"]
        key = (sub_id, payload["predicate"].canonical())
        sub = self._subs.pop(key, None)
        # Fan down unconditionally: teardown must reach descendants that
        # still hold state even if our own entry drifted away (each node
        # receives one cancel from its parent; the tree is finite and
        # acyclic, so the fan terminates).
        overlay = self._node.overlay
        if self._node.node_id in overlay:
            tree_key = (
                sub.tree_key
                if sub is not None
                else overlay.space.hash_name(
                    group_attribute(payload["predicate"])
                )
            )
            children = overlay.children(self._node.node_id, tree_key)
            if children:
                self._node.network.send_many(
                    self._node.node_id, sorted(children), mt.SUB_CANCEL, payload
                )

    def handle_renew(self, message: Message) -> None:
        payload = message.payload
        key = (payload["sub_id"], payload["predicate"].canonical())
        sub = self._subs.get(key)
        now = self._node.network.engine.now
        if sub is not None:
            sub.lease = payload["lease"]
            if sub.lease > 0 and self._parent(sub) is None:
                sub.expires_at = now + sub.lease
        self.expire_stale(now)

    # ------------------------------------------------------------------
    # churn hooks (called from MoaraNode)
    # ------------------------------------------------------------------

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
            children = set(self._children(sub))
            for child in [
                c for c in sub.child_partials if c not in children
            ]:
                del sub.child_partials[child]
            parent = self._parent(sub)
            if parent != sub.known_parent:
                if parent is None and sub.lease > 0 and sub.expires_at == 0.0:
                    # We just became this tree's root: start the lease
                    # clock (the old root's deadline died with it).
                    sub.expires_at = now + sub.lease
                self._push(sub, force=True)
            else:
                self._push(sub)
        self.expire_stale(now)

    # ------------------------------------------------------------------
    # lease enforcement (lazy -- no engine timers)
    # ------------------------------------------------------------------

    def expire_stale(self, now: float) -> None:
        """Drop root-side subscriptions whose lease ran out.

        The front-end gets a final ``expired`` STANDING_UPDATE and the
        subtree a cancel fan-down.  Called on every standing message
        receipt and exposed for drivers; never scheduled (the simulation
        kernel's ``run_until_idle`` must terminate).
        """
        node = self._node
        for key, sub in list(self._subs.items()):
            if sub.expires_at <= 0.0 or sub.expires_at > now:
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
            self._fan_down(
                sub,
                mt.SUB_CANCEL,
                {"sub_id": sub.sub_id, "predicate": sub.predicate},
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _install(self, payload: dict[str, Any]) -> _Subscription:
        predicate: Predicate = payload["predicate"]
        pred_key = predicate.canonical()
        key = (payload["sub_id"], pred_key)
        sub = self._subs.get(key)
        now = self._node.network.engine.now
        if sub is None:
            query: Query = payload["query"]
            attrs = set(query.predicate.attributes())
            if query.attr != "*":
                attrs.add(query.attr)
            for group in payload["cover"]:
                attrs |= group.attributes()
            sub = _Subscription(
                sub_id=payload["sub_id"],
                pred_key=pred_key,
                predicate=predicate,
                tree_key=self._node.overlay.space.hash_name(
                    group_attribute(predicate)
                ),
                query=query,
                cover=tuple(payload["cover"]),
                lease=payload["lease"],
                frontend=payload["frontend"],
                attrs=frozenset(attrs),
            )
            self._subs[key] = sub
        else:
            # Refresh (re-install sweep / lease change): covers and
            # leases may move; the subtree state is kept.
            sub.cover = tuple(payload["cover"])
            sub.lease = payload["lease"]
            sub.frontend = payload["frontend"]
        sub.known_parent = self._parent(sub)
        if sub.known_parent is None and sub.lease > 0:
            sub.expires_at = now + sub.lease
        return sub

    def _fan_down(
        self, sub: _Subscription, mtype: str, payload: dict[str, Any]
    ) -> None:
        children = self._children(sub)
        if children:
            self._node.network.send_many(
                self._node.node_id, sorted(children), mtype, payload
            )

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
        (suppressed when unchanged, exactly like sdims continuous)."""
        current = self._subtree(sub)
        parent = self._parent(sub)
        rerooted = force or parent != sub.known_parent
        if (
            not rerooted
            and sub.last_pushed is not None
            and sub.last_pushed == current
        ):
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
            payload["pred_key"] = sub.pred_key
            payload["partial"] = partial
            payload["contributors"] = contributors
            mtype, dst = mt.SUB_DELTA, parent
        if rerooted:
            # Not a routine change: the receiver may not know this
            # subscription (a parent installs from the delta), or may
            # have torn it down (a front-end answers with a cancel).
            payload["rerooted"] = True
        node.network.send(node.node_id, dst, mtype, payload)
