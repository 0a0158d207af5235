"""Front-end side of the standing-query plane: registration, folding,
replans, leases, and the ordering/staleness contract.

:class:`StandingQueryManager` lives on every
:class:`~repro.core.frontend.Frontend` (as ``frontend.standing``).  It
plans a standing query exactly like a one-shot (same planner, same
cover choice, seeded from the group-size cache -- groups the cache
cannot price default to the planner's cost 2.0, so registration is
synchronous and never waits on a probe round), installs one
subscription per cover group, and then **folds** the per-group
``STANDING_UPDATE`` streams into a live answer on the returned
:class:`StandingHandle`.

The ordering/staleness contract (documented for consumers in
docs/STANDING_QUERIES.md):

* every fold carries a front-end-assigned ``update_seq``, strictly
  monotone per standing query;
* per cover group, updates from one root are applied in root-sequence
  order -- duplicates and reorderings are dropped; a root *change*
  (churn re-rooted the tree) resets the group's sequence horizon;
* across groups there is **no atomicity**: a fold may combine group
  partials captured at different instants (eventual consistency).  At
  quiesce -- no in-flight messages anywhere -- the folded answer equals
  the centralized recompute over live membership (the campaign oracle's
  standing invariant checks exactly this);
* a fold's ``value`` is a full replacement answer, never an increment.

Enmeshed replanning: every ``standing_replan_every`` folds the manager
re-runs cover choice against the refreshed group-size cache (standing
updates piggyback a cost estimate, so the cache stays warm without
probes).  A cover change is applied **make-before-break**: new groups
are installed and must each deliver one update before the fold switches
over and the removed groups are cancelled -- the live answer never
regresses to a partial cover.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from repro.core import messages as mt
from repro.core.moara_node import group_attribute
from repro.core.parser import parse_query
from repro.core.predicates import Predicate, TruePredicate
from repro.core.query import Query, QueryResult
from repro.sim.network import Message
from repro.standing.agent import cancel_payload, install_payload

__all__ = ["StandingHandle", "StandingQueryManager"]

UpdateCallback = Callable[[QueryResult], None]

#: folds retained per handle for pull-style consumers (the HTTP
#: ``updates?since=`` endpoint); older folds are dropped and counted.
MAX_UPDATES = 256

#: ids of subscriptions this manager tore down itself that it still
#: remembers, oldest forgotten first.  An update that was in flight when
#: the teardown started would otherwise read as an unknown subscription
#: and flood a second cancel behind the first; one that outlives this
#: memory merely costs that redundant cancel.
MAX_TORN_DOWN = 1024


@dataclass
class StandingHandle:
    """A registered standing query, owned by the caller.

    The handle is the fold target: :attr:`value` / :meth:`current` track
    the live answer, :attr:`updates` the recent fold history (bounded to
    ``MAX_UPDATES``; :attr:`updates_dropped` counts what fell off).
    """

    sub_id: str
    query: Query
    #: canonical keys of the active cover (updated by replans).
    cover: list[str] = field(default_factory=list)
    lease: float = 0.0
    registered_at: float = 0.0
    #: strictly monotone fold counter (the ordering contract's spine).
    update_seq: int = 0
    #: (update_seq, QueryResult) pairs, oldest first, bounded.
    updates: list[tuple[int, QueryResult]] = field(default_factory=list)
    updates_dropped: int = 0
    on_update: Optional[UpdateCallback] = None
    #: False after cancel or lease expiry.
    active: bool = True
    #: True when the subscription's lease ran out at a root.
    expired: bool = False
    #: True when the planner proved the predicate unsatisfiable: the
    #: handle is a constant (no subscriptions exist anywhere).
    static: bool = False

    def current(self) -> Optional[QueryResult]:
        """The latest folded answer (None before the first update)."""
        if not self.updates:
            return None
        return self.updates[-1][1]

    def current_value(self) -> Any:
        """The latest folded value (None before the first update)."""
        result = self.current()
        return None if result is None else result.value

    def updates_since(self, seq: int) -> list[tuple[int, QueryResult]]:
        """Folds with ``update_seq > seq`` still in the bounded history."""
        return [(s, r) for s, r in self.updates if s > seq]

    def _record(self, result: QueryResult) -> None:
        self.updates.append((self.update_seq, result))
        if len(self.updates) > MAX_UPDATES:
            drop = len(self.updates) - MAX_UPDATES
            del self.updates[:drop]
            self.updates_dropped += drop
        if self.on_update is not None:
            self.on_update(result)


@dataclass
class _GroupState:
    """One cover group's delta stream state at the front-end."""

    predicate: Predicate
    root: int
    partial: Any = None
    contributors: int = 0
    #: monotone horizon per root: (root id, last seq applied from it).
    last_root: Optional[int] = None
    last_seq: int = 0
    #: True once this group delivered at least one update (the
    #: make-before-break switchover gate for pending groups).
    delivered: bool = False


@dataclass
class _StandingSub:
    """Manager-internal state for one registered standing query."""

    handle: StandingHandle
    plan: Any  # QueryPlan
    #: active cover: canonical key -> group state (folds read these).
    groups: dict[str, _GroupState] = field(default_factory=dict)
    #: the active cover's predicates (install payloads carry the full
    #: cover for enmeshed OR-dedup at the nodes).
    cover: tuple[Predicate, ...] = ()
    #: replan in flight: new-only groups awaiting their first update.
    pending: dict[str, _GroupState] = field(default_factory=dict)
    pending_cover: tuple[Predicate, ...] = ()
    folds: int = 0


class StandingQueryManager:
    """Registration, folding, and lifecycle for one front-end."""

    def __init__(self, frontend: Any) -> None:
        self._frontend = frontend
        self._counter = itertools.count(1)
        self._subs: dict[str, _StandingSub] = {}
        #: recently torn-down ids (insertion-ordered; see MAX_TORN_DOWN).
        self._torn_down: dict[str, None] = {}

    # ------------------------------------------------------------------
    # introspection (leak invariant / routing)
    # ------------------------------------------------------------------

    def active_sub_ids(self) -> set[str]:
        """Ids of standing queries this front-end considers live."""
        return set(self._subs)

    def __len__(self) -> int:
        return len(self._subs)

    # ------------------------------------------------------------------
    # registration / teardown
    # ------------------------------------------------------------------

    def register(
        self,
        query: Union[str, Query],
        on_update: Optional[UpdateCallback] = None,
        lease: float = 0.0,
    ) -> StandingHandle:
        """Plan a standing query and install its delta subscriptions.

        Synchronous: cover choice uses cached group sizes only (missing
        groups default to the planner's cost 2.0), so the handle returns
        immediately; the first folded update arrives with the roots'
        initial pushes.  ``lease`` > 0 arms root-side expiry (renew with
        :meth:`renew`); 0 means the subscription lives until cancelled.
        """
        frontend = self._frontend
        if isinstance(query, str):
            query = parse_query(query)
        sub_id = f"sub{frontend.node_id}-{next(self._counter)}"
        now = frontend.network.now
        frontend.network.stats.standing_registered += 1
        plan, _ = frontend._plan(query.predicate)
        handle = StandingHandle(
            sub_id=sub_id,
            query=query,
            lease=lease,
            registered_at=now,
            on_update=on_update,
        )
        sub = _StandingSub(handle=handle, plan=plan)
        self._subs[sub_id] = sub
        if plan.unsatisfiable:
            # Provably empty group: the answer is a constant; nothing is
            # installed anywhere and no deltas will ever arrive.
            handle.static = True
            handle.update_seq = 1
            handle._record(
                QueryResult(
                    query=query,
                    value=query.function.finalize(None),
                    cover=[],
                    short_circuited=True,
                )
            )
            return handle
        if plan.global_group:
            cover: list[Predicate] = [TruePredicate()]
        else:
            cover = sorted(
                frontend._choose_cover(plan, self._cached_costs(plan, now)),
                key=lambda p: p.canonical(),
            )
        sub.cover = tuple(cover)
        handle.cover = [p.canonical() for p in cover]
        for group in cover:
            state = _GroupState(
                predicate=group, root=self._root_for(group)
            )
            sub.groups[group.canonical()] = state
            self._send_install(sub_id, group, sub.cover, lease, state.root)
        return handle

    def cancel(self, handle: StandingHandle) -> None:
        """Tear the subscription down at every cover tree."""
        handle.active = False
        sub = self._subs.pop(handle.sub_id, None)
        if sub is None:
            return
        self._remember_torn_down(handle.sub_id)
        self._frontend.network.stats.standing_cancelled += 1
        for state in list(sub.groups.values()) + list(sub.pending.values()):
            self._send_cancel(handle.sub_id, state.predicate)

    def renew(
        self, handle: StandingHandle, lease: Optional[float] = None
    ) -> None:
        """Extend the lease at every cover root (no reinstall)."""
        sub = self._subs.get(handle.sub_id)
        if sub is None:
            return
        if lease is not None:
            handle.lease = lease
        for state in list(sub.groups.values()) + list(sub.pending.values()):
            self._frontend.network.send(
                self._frontend.node_id,
                self._root_for(state.predicate),
                mt.SUB_RENEW,
                {
                    "sub_id": handle.sub_id,
                    "predicate": state.predicate,
                    "lease": handle.lease,
                },
            )

    # ------------------------------------------------------------------
    # delta folding (routed from Frontend.handle_message)
    # ------------------------------------------------------------------

    def on_update(self, message: Message) -> None:
        payload = message.payload
        sub_id = payload["sub_id"]
        pred_key = payload["pred_key"]
        now = self._frontend.network.now
        sub = self._subs.get(sub_id)
        if sub is None:
            if sub_id in self._torn_down and not payload.get("rerooted"):
                return  # in flight when we cancelled; that cancel covers it
            # We never knew this subscription (state lost to a restart),
            # or a re-rooting push brought it back behind our cancel:
            # tell the pushing root to drop it so node-side tables cannot
            # leak.
            self._send_cancel(sub_id, payload["predicate"])
            return
        if payload.get("expired"):
            self._expire(sub, pred_key)
            return
        group = sub.groups.get(pred_key)
        if group is None:
            group = sub.pending.get(pred_key)
        if group is None:
            # A group this query no longer covers (replan switched away
            # while its update was in flight): cancel it at the root.
            self._send_cancel(sub_id, payload["predicate"])
            return
        seq = payload["seq"]
        if message.src == group.last_root and seq <= group.last_seq:
            return  # duplicate / reordered root delta: drop
        # A different root means churn re-rooted the tree: accept and
        # reset the sequence horizon to the new root's stream.
        group.last_root = message.src
        group.last_seq = seq
        group.root = message.src
        group.partial = payload["partial"]
        group.contributors = payload["contributors"]
        group.delivered = True
        if (
            self._frontend.config.piggyback_sizes
            and "cost" in payload
        ):
            # Standing updates keep the size cache warm for replans (and
            # for one-shot queries over the same groups) probe-free.
            self._frontend.size_cache.put(pred_key, payload["cost"], now)
        if sub.pending and all(g.delivered for g in sub.pending.values()):
            self._switch_cover(sub)
        if pred_key in sub.groups:
            self._fold(sub, now)

    # ------------------------------------------------------------------
    # churn hook (called from Frontend.on_membership_change)
    # ------------------------------------------------------------------

    def on_membership_change(self, joined: set[int], left: set[int]) -> None:
        """Re-install every live cover on any overlay change.

        Installs are idempotent and pushes are suppressed when nothing
        changed, so the sweep's steady-state cost is bounded; it is what
        reaches re-rooted trees and newly joined nodes (which hold no
        subscription state until an install arrives).
        """
        if not (joined or left):
            return
        for sub in self._subs.values():
            for state in sub.groups.values():
                state.root = self._root_for(state.predicate)
                self._send_install(
                    sub.handle.sub_id,
                    state.predicate,
                    sub.cover,
                    sub.handle.lease,
                    state.root,
                )
            for state in sub.pending.values():
                state.root = self._root_for(state.predicate)
                self._send_install(
                    sub.handle.sub_id,
                    state.predicate,
                    sub.pending_cover,
                    sub.handle.lease,
                    state.root,
                )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _root_for(self, group: Predicate) -> int:
        overlay = self._frontend.overlay
        return overlay.root(overlay.space.hash_name(group_attribute(group)))

    def _send_install(
        self,
        sub_id: str,
        group: Predicate,
        cover: tuple[Predicate, ...],
        lease: float,
        root: int,
    ) -> None:
        frontend = self._frontend
        frontend.network.send(
            frontend.node_id,
            root,
            mt.SUB_INSTALL,
            install_payload(
                sub_id,
                self._subs[sub_id].handle.query,
                group,
                cover,
                lease,
                frontend.node_id,
                frontend.overlay.space,
            ),
        )

    def _remember_torn_down(self, sub_id: str) -> None:
        self._torn_down[sub_id] = None
        if len(self._torn_down) > MAX_TORN_DOWN:
            del self._torn_down[next(iter(self._torn_down))]

    def _send_cancel(self, sub_id: str, group: Predicate) -> None:
        frontend = self._frontend
        payload = cancel_payload(sub_id, group, frontend.overlay.space)
        frontend.network.send(
            frontend.node_id,
            frontend.overlay.root(payload["tree_key"]),
            mt.SUB_CANCEL,
            payload,
        )

    def _cached_costs(self, plan: Any, now: float) -> dict[str, float]:
        costs: dict[str, float] = {}
        for group in plan.all_groups():
            cached = self._frontend.size_cache.get(group.canonical(), now)
            if cached is not None:
                costs[group.canonical()] = cached
        return costs

    def _expire(self, sub: _StandingSub, pred_key: str) -> None:
        """One cover root expired the lease: the whole standing query is
        over.  The expiring root cancelled its own tree; cancel the
        remaining cover trees explicitly (their roots enforce leases
        lazily and might otherwise hold state until the next message)."""
        handle = sub.handle
        handle.expired = True
        handle.active = False
        del self._subs[handle.sub_id]
        self._remember_torn_down(handle.sub_id)
        for key, state in list(sub.groups.items()) + list(
            sub.pending.items()
        ):
            if key != pred_key:
                self._send_cancel(handle.sub_id, state.predicate)

    def _fold(self, sub: _StandingSub, now: float) -> None:
        handle = sub.handle
        function = handle.query.function
        partial: Any = None
        contributors = 0
        for group in sub.groups.values():
            partial = function.merge(partial, group.partial)
            contributors += group.contributors
        handle.update_seq += 1
        self._frontend.network.stats.standing_updates += 1
        handle._record(
            QueryResult(
                query=handle.query,
                value=function.finalize(partial),
                cover=sorted(sub.groups),
                contributors=contributors,
                latency=now - handle.registered_at,
            )
        )
        sub.folds += 1
        every = self._frontend.config.standing_replan_every
        if every and not sub.pending and sub.folds % every == 0:
            self._maybe_replan(sub, now)

    def _maybe_replan(self, sub: _StandingSub, now: float) -> None:
        """Re-run cover choice against refreshed group sizes; on a cover
        change, start a make-before-break transition."""
        plan = sub.plan
        if plan.global_group or plan.unsatisfiable or len(plan.clauses) <= 1:
            return
        cover = sorted(
            self._frontend._choose_cover(plan, self._cached_costs(plan, now)),
            key=lambda p: p.canonical(),
        )
        new_keys = {p.canonical() for p in cover}
        if new_keys == set(sub.groups):
            return
        self._frontend.network.stats.standing_replans += 1
        sub.pending_cover = tuple(cover)
        sub_id = sub.handle.sub_id
        for group in cover:
            key = group.canonical()
            if key in sub.groups:
                # Kept group: refresh its node-side cover tuple so the
                # enmeshed OR-dedup stays consistent across the new
                # cover (nodes re-push where their designation moved).
                self._send_install(
                    sub_id,
                    group,
                    sub.pending_cover,
                    sub.handle.lease,
                    self._root_for(group),
                )
                continue
            state = _GroupState(predicate=group, root=self._root_for(group))
            sub.pending[key] = state
            self._send_install(
                sub_id, group, sub.pending_cover, sub.handle.lease, state.root
            )
        if not sub.pending:
            # The new cover is a subset of the old: switch immediately.
            self._switch_cover(sub)

    def _switch_cover(self, sub: _StandingSub) -> None:
        """Make-before-break switchover: every pending group delivered,
        so fold over the new cover and cancel the removed groups."""
        new_keys = {p.canonical() for p in sub.pending_cover}
        removed = [
            state
            for key, state in sub.groups.items()
            if key not in new_keys
        ]
        sub.groups = {
            key: state
            for key, state in sub.groups.items()
            if key in new_keys
        }
        sub.groups.update(sub.pending)
        sub.pending = {}
        sub.cover = sub.pending_cover
        sub.pending_cover = ()
        sub.handle.cover = sorted(sub.groups)
        for state in removed:
            self._send_cancel(sub.handle.sub_id, state.predicate)
