"""The Moara agent: per-node protocol engine.

One :class:`MoaraNode` runs at every server (paper Section 3.1: "Moara has
an agent running at each node that monitors the node and populates
(attribute, value) pairs").  It implements:

* query propagation down the group tree and in-network aggregation back up
  (Section 3.2), including the duplicate-answer suppression for composite
  covers (Section 6.2);
* the PRUNE/NO-PRUNE state machine with dynamic adaptation (Section 4);
* the separate query plane's ``updateSet``/``qSet`` forwarding (Section 5);
* lazily aggregated subtree receive-counts serving size probes (Section 6.3);
* reconfiguration handling: re-announcing state to a new parent and
  resolving in-flight queries when nodes fail (Section 7);
* beyond the paper, root-side execution sharing
  (:mod:`repro.core.inflight`): a node answering ``FRONTEND_QUERY``
  messages as a tree root subscribes identical in-flight sub-queries
  (from any front-end) to one execution.

Reply-path metadata piggybacking
--------------------------------

These ride on replies instead of costing extra messages:

* every **root** reply (``FRONTEND_RESPONSE``) carries the ``2 * np``
  query-cost estimate (``cost``) that a ``SIZE_PROBE`` would have
  returned, feeding the front-end's group-size cache for free;
* a root reply served from a shared in-flight execution carries
  ``subscribed``, so front-ends can surface shared answers per query
  (see :class:`~repro.sim.stats.QueryRecord`);
* every **internal** reply (``QUERY_RESPONSE``) carries the child's
  ``subtree_recv`` estimate, lazily refreshing the parent's ``np``
  bookkeeping (Section 6.3);
* an internal reply to the sender's DHT parent also carries the status
  report (``update_set`` + ``predicate``) the sender raised while
  handling that ``QUERY`` / ``QUERY_RESPONSE``.  Such a report is
  *held* (``_held``) instead of leaving as its own ``STATUS_UPDATE``:
  :meth:`MoaraNode._send_reply` attaches it when the reply goes up the
  same tree link, and the parent applies it before the reply
  (:meth:`MoaraNode._apply_report`, shared with the ``STATUS_UPDATE``
  handler) -- same link, same order, same information, one message
  fewer, so forming a group tree costs two messages per node (the
  first query's PRUNE wave rides the replies).  A held report that
  finds no such reply -- the aggregation is still pending, the reply
  goes to the front-end or to a non-parent ancestor (separate query
  plane), a second report displaces it -- leaves as a standalone
  ``STATUS_UPDATE`` at the point it would have been sent anyway.

See :mod:`repro.core.messages` for the full payload schema of every
message type.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from operator import attrgetter
from typing import AbstractSet, Any, Callable, Optional, Sequence

from repro.core import messages as mt
from repro.core.adapt import AdaptationConfig, Adaptor
from repro.core.attributes import AttributeStore
from repro.core.gc import GCPolicy, NoGC
from repro.core.predicates import Predicate, SimplePredicate, TruePredicate
from repro.core.inflight import InflightTable, execution_key
from repro.core.query import Query, STAR_ATTRIBUTE
from repro.core.tree_state import PredicateTreeState, PrunedLeaf
from repro.pastry.overlay import Overlay
from repro.sim.engine import EventHandle
from repro.sim.network import Message, Network

__all__ = ["MoaraConfig", "MoaraNode", "NodeConfig", "group_attribute"]

#: Origins whose duplicate memory a node keeps (``MoaraNode._memory``).
_ORIGINS_HELD = 64


def group_attribute(predicate: Predicate) -> str:
    """The attribute whose MD5 hash names the group's DHT tree.

    Paper Section 3.2: "Moara uses MD-5 to hash the group-attribute field".
    The global group (TruePredicate) uses the reserved name ``*``.
    """
    if isinstance(predicate, SimplePredicate):
        return predicate.attr
    if isinstance(predicate, TruePredicate):
        return STAR_ATTRIBUTE
    raise TypeError(
        "group trees exist only for simple predicates or the global group, "
        f"got {type(predicate).__name__}"
    )


@dataclass(frozen=True)
class MoaraConfig:
    """Per-node protocol tunables."""

    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    #: Section 5 separate-query-plane threshold; 1 disables the SQP and
    #: degenerates to the plain pruned tree of Section 4.
    threshold: int = 2
    #: Seconds an aggregating node waits for children before answering with
    #: what it has; None waits indefinitely (the PlanetLab methodology).
    child_timeout: Optional[float] = None
    #: Factory for the per-node predicate-state GC policy (Section 4 lists
    #: idle-timeout, keep-last-k, and least-frequently-queried; see
    #: :mod:`repro.core.gc`).  None keeps state forever.
    gc_policy_factory: Optional[Callable[[], GCPolicy]] = None
    #: Subscribe identical sub-queries (from any front-end) to an already
    #: in-flight execution instead of re-walking the tree.  Staleness-free
    #: (every subscriber sees the same fresh execution), hence on by
    #: default.
    share_executions: bool = True

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")

    @classmethod
    def uncached(cls, **overrides: Any) -> "MoaraConfig":
        """The PR 1 node: no execution sharing."""
        overrides.setdefault("share_executions", False)
        return cls(**overrides)


@dataclass(slots=True)
class _PendingQuery:
    """An aggregation in progress at one node for one (query, group).

    Slotted: with thousands of concurrent queries there is one of these
    per (query, group) per aggregating node."""

    qid: str
    pred_key: str
    query: Query
    reply_to: int
    reply_mtype: str
    waiting: set[int]
    partial: Any
    contributors: int
    timeout_handle: Optional[EventHandle] = None
    #: in-flight identity when this node is the root and the execution's
    #: result is reusable (single-group cover); None otherwise.
    exec_key: Optional[tuple] = None


class MoaraNode:
    """The protocol engine attached to one overlay node."""

    def __init__(
        self,
        node_id: int,
        overlay: Overlay,
        network: Network,
        config: Optional[MoaraConfig] = None,
    ) -> None:
        # At most 29 instance attributes: CPython 3.11 shares one key
        # table among a class's instances only up to that, and past it
        # every node's __dict__ grows by 1.3 KB and each ``self.`` read on
        # the message handlers takes the slow path.
        self.node_id = node_id
        self.overlay = overlay
        self.network = network
        self.config = config or MoaraConfig()
        #: ``{node_id}``, one instance shared by all of this node's tree
        #: states (their default updateSet).
        self._self_set = frozenset((node_id,))
        self.attributes = AttributeStore()
        self.attributes.add_listener(self._on_attribute_change)
        #: read-only dict view for hot-path predicate evaluation.
        self._attr_data = self.attributes.data
        #: direct engine binding (self.network.engine, hoisted: read on
        #: every handled message for the clock and for timer scheduling).
        self._engine = network.engine
        #: the overlay's id index, hoisted (its identity is stable for the
        #: overlay's lifetime; only ``.version`` changes): every message
        #: handler reads the membership version to gate its memos.
        self._oindex = overlay.index
        #: predicate canonical key -> tree state, in one of two maps: the
        #: full form, or the record of a pruned leaf outside the group
        #: (:mod:`repro.core.tree_state`).  Read through :meth:`tree_state`.
        self.states: dict[str, PredicateTreeState] = {}
        self._pruned: dict[str, PrunedLeaf] = {}
        self._created = 0  # creation ordinal of the next new state
        self._pending: dict[tuple[str, str], _PendingQuery] = {}
        #: Duplicate suppression, per share-stamp origin (front-end
        #: incarnation, see :mod:`repro.core.messages`), one flat dict
        #: each: ``"floor"`` the highest floor heard, ``"top"`` a bound on
        #: the highest share held, ``n -> pred_key`` for share ``n``'s
        #: first tree, a ``(n, pred_key)`` key for each further tree, and
        #: a ``-n`` key once our value went into share ``n`` (one
        #: contribution across a composite cover's trees, Section 6.2).
        #: A higher floor retires what it passes.  Origins are kept in
        #: least-recently-used order, ``_ORIGINS_HELD`` at most: what a
        #: failed-over or restarted front-end left goes once that many
        #: other origins have reached the node since.
        self._memory: dict[Any, dict] = {}
        #: per-predicate query sequence counters (used while we are root).
        self._seq_counters: dict[str, int] = {}
        factory = self.config.gc_policy_factory
        self.gc_policy: GCPolicy = factory() if factory is not None else NoGC()
        # Hot-path constants hoisted off the config (read per received
        # query; the config is set once at construction).
        self._child_timeout = self.config.child_timeout
        self._gc_enabled = type(self.gc_policy) is not NoGC
        #: in-flight executions rooted here, joinable by identical requests.
        self.inflight = InflightTable()
        #: True while a QUERY / QUERY_RESPONSE handler is in the stretch
        #: that can raise status reports: :meth:`_send_status` then parks
        #: the reporting state in ``_held`` for the reply to carry (see
        #: "Reply-path metadata piggybacking" above).
        self._holding = False
        self._held: Optional[PredicateTreeState] = None
        # Deferred import: repro.standing.agent imports this module for
        # group_attribute, so binding it at module scope would cycle.
        from repro.standing.agent import StandingAgent

        #: node-side standing-subscription state machine (push-based
        #: deltas; see repro.standing).
        self.standing = StandingAgent(self)

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------

    def get_state(self, predicate: Predicate) -> PredicateTreeState:
        """Fetch or lazily create tree state for a predicate.

        Paper Section 4 ("State Maintenance"): "By default, each node does
        not maintain any state ... A node starts maintaining states only
        when a query arrives at the node" -- or, here, when a child reports.
        """
        # Inline probe of the predicate's canonical-form cache (payloads
        # share predicate instances, so this hits for every message after
        # the first): one dict lookup instead of a method call.
        key = predicate.__dict__.get("_canonical_cache")
        if key is None:
            key = predicate.canonical()
        state = self.states.get(key)
        if state is None:
            leaf = self._pruned.pop(key, None)
            if leaf is not None:
                self.states[key] = state = self._expand(key, leaf)
                return state
            state = self._blank_state(
                predicate,  # type: ignore[arg-type]
                key,
                self.overlay.space.hash_name(group_attribute(predicate)),
                self._created,
            )
            self._created += 1
            state.local_sat = predicate.evaluate(self._attr_data)
            state.computed_update_set = state.compute_update_set(
                self._dht_children(state)
            )
            state.known_parent = self._dht_parent(state)
            self.states[key] = state
        return state

    def _blank_state(
        self, predicate: SimplePredicate, key: str, tree_key: int, created: int
    ) -> PredicateTreeState:
        state = PredicateTreeState(
            predicate=predicate,
            tree_key=tree_key,
            node_id=self.node_id,
            adaptor=Adaptor(self.config.adaptation),
            threshold=self.config.threshold,
            pred_key=key,
            created=created,
        )
        state.self_set = self._self_set
        return state

    def _expand(self, key: str, leaf: PrunedLeaf) -> PredicateTreeState:
        """The full state a pruned-leaf record stands for (not stored)."""
        return leaf.expand(
            self._blank_state(leaf.predicate, key, leaf.tree_key, leaf.created)
        )

    def _compact(self, state: PredicateTreeState) -> None:
        """Keep ``state`` as a :class:`PrunedLeaf` if it is one and no
        aggregation here still refers to it.  Called right after a reply,
        which carried or flushed any held report."""
        leaf = state.compact()
        if leaf is not None and not self._has_pending(state.pred_key):
            del self.states[state.pred_key]
            self._pruned[state.pred_key] = leaf

    def _has_pending(self, pred_key: str) -> bool:
        return bool(self._pending) and any(
            key[1] == pred_key for key in self._pending
        )

    def _entries(self) -> list:
        """Every state and record of this node, in creation order."""
        return sorted(
            [*self.states.values(), *self._pruned.values()],
            key=attrgetter("created"),
        )

    def tree_keys(self) -> list[str]:
        """The key of every predicate this node holds state for."""
        return [*self.states, *self._pruned]

    def tree_state(self, pred_key: str) -> Optional[PredicateTreeState]:
        """Read access to one predicate's state: the full state, or the
        state a compact record stands for (a detached copy), or None."""
        state = self.states.get(pred_key)
        if state is None:
            leaf = self._pruned.get(pred_key)
            if leaf is not None:
                state = self._expand(pred_key, leaf)
        return state

    def garbage_collect(self, pred_key: str) -> bool:
        """Drop state for a predicate if safe (node is in NO-UPDATE).

        Paper: "a node in NO-UPDATE state for a predicate can safely
        garbage-collect state information for that predicate without causing
        any incorrectness."  Returns True if state was removed.
        """
        state = self.states.get(pred_key)
        if state is None:
            return False
        if state.adaptor.update:
            return False  # must keep updating the parent
        if state.sent_update_set is not None and not state.would_receive_queries():
            return False  # parent would never route queries back to us
        if self._has_pending(pred_key):
            return False  # an aggregation for this predicate is in flight
        del self.states[pred_key]
        return True

    def _dht_children(self, state: PredicateTreeState) -> Sequence[int]:
        """Our children in the state's tree, cached per membership version.

        Hot path: consulted on every query/response/status for the
        predicate.  The overlay's tree lookup (membership check + cached
        tree fetch) is cheap but not free, and membership changes are rare
        relative to message deliveries, so the result is memoized on the
        state and gated by the overlay's membership version.  Callers must
        treat the returned list as read-only.
        """
        overlay = self.overlay
        version = overlay.index.version
        if state.cached_children_version == version:
            return state.cached_children
        if self.node_id in overlay:
            children = overlay.children(self.node_id, state.tree_key)
        else:
            children = ()
        state.cached_children = children
        state.cached_children_version = version
        return children

    def _dht_parent(self, state: PredicateTreeState) -> Optional[int]:
        """Our parent in the state's tree (None at the root), cached like
        :meth:`_dht_children`."""
        overlay = self.overlay
        version = overlay.index.version
        if state.cached_parent_version == version:
            return state.cached_parent
        if self.node_id in overlay:
            parent = overlay.parent(self.node_id, state.tree_key)
        else:
            parent = None
        state.cached_parent = parent
        state.cached_parent_version = version
        return parent

    def _is_root(self, state: PredicateTreeState) -> bool:
        return self._dht_parent(state) is None

    def _forward_targets(self, state: PredicateTreeState) -> AbstractSet[int]:
        """``state.forward_targets`` memoized per (reports, membership)
        version pair -- it is recomputed from the child-report map on
        every query receipt otherwise.  Callers must not mutate the
        returned set."""
        children = self._dht_children(state)
        key = (state.report_version, state.cached_children_version)
        if state.fwd_targets_key == key:
            return state.fwd_targets  # type: ignore[return-value]
        targets = state.forward_targets(children)
        state.fwd_targets_key = key
        state.fwd_targets = targets
        state.fwd_targets_sorted = None
        return targets

    def _subtree_recv(self, state: PredicateTreeState, is_root: bool) -> int:
        """``state.subtree_recv`` memoized like :meth:`_forward_targets`
        (it runs on every reply); the key also pins the inputs the value
        reads directly: ``is_root`` and ``sent_update_set``."""
        children = self._dht_children(state)
        key = (
            state.report_version,
            state.recv_version,
            state.cached_children_version,
            is_root,
            state.sent_update_set,
        )
        if state.subtree_recv_key == key:
            return state.subtree_recv_value
        value = state.subtree_recv(children, is_root=is_root)
        state.subtree_recv_key = key
        state.subtree_recv_value = value
        return value

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        """Network entry point (dispatch table built once, below the class:
        no per-message dict or bound-method churn on the hot path)."""
        handler = _DISPATCH.get(message.mtype)
        if handler is None:
            raise ValueError(f"unexpected message type {message.mtype!r}")
        try:
            handler(self, message)
        except BaseException:
            # The handler will not reach its reply: release the hold so
            # the next message starts clean, and let a report it already
            # raised leave on its own (``sent_update_set`` records it as
            # sent; the parent must hear it).
            self._holding = False
            if self._held is not None:
                self._flush_held()
            raise

    # ------------------------------------------------------------------
    # attribute changes (group churn)
    # ------------------------------------------------------------------

    def _on_attribute_change(self, name: str, old: Any, new: Any) -> None:
        for state in self._entries():
            if name not in state.predicate.attributes():
                continue
            new_sat = state.predicate.evaluate(self._attr_data)
            if type(state) is PrunedLeaf:
                if not new_sat:
                    continue  # still outside the group: the record stands
                state = self.get_state(state.predicate)
            if new_sat != state.local_sat:
                state.local_sat = new_sat
                self._recompute(state)
        # Standing subscriptions push a delta the instant an attribute
        # they depend on changes (no TTL window to wait out).
        self.standing.on_attribute_change(name)

    # ------------------------------------------------------------------
    # Sections 4 + 5: recompute / adapt / notify parent
    # ------------------------------------------------------------------

    def _recompute(self, state: PredicateTreeState) -> None:
        """Re-derive the updateSet after any input changed; on a real
        change, record an adaptation event and propagate if in UPDATE."""
        new_set = state.compute_update_set(self._dht_children(state))
        if new_set == state.computed_update_set:
            return
        state.computed_update_set = new_set
        flipped = state.adaptor.record_change()
        self._after_adaptation(state, flipped)
        self._maybe_send_status(state)

    def _after_adaptation(self, state: PredicateTreeState, flipped: bool) -> None:
        if not flipped:
            return
        if not state.adaptor.update and not state.would_receive_queries():
            # Entering NO-UPDATE requires prune = 0: tell the parent to keep
            # sending us queries (own ID with NO-PRUNE, Section 5).
            self._send_status(state, self._self_set)

    def _maybe_send_status(self, state: PredicateTreeState) -> None:
        """Push the computed updateSet to the parent when in UPDATE state
        and the parent's view is stale."""
        if not state.adaptor.update:
            return
        if self._is_root(state):
            return  # the root has nobody to update
        if state.computed_update_set != state.effective_sent_set():
            self._send_status(state, state.computed_update_set)

    def _send_status(
        self, state: PredicateTreeState, update_set: frozenset[int]
    ) -> None:
        parent = self._dht_parent(state)
        if parent is None:
            return  # the root has nobody to update
        if self._held is not None:
            # A reply carries one report: the earlier one leaves first.
            self._flush_held()
        state.known_parent = parent
        state.sent_update_set = update_set
        if self._holding:
            self._held = state  # for _send_reply to attach, or a flush
        else:
            self._post_status(state)

    def _post_status(self, state: PredicateTreeState) -> None:
        """Send the state's last report (``sent_update_set``) to its
        parent as a standalone ``STATUS_UPDATE``."""
        self.network.send(
            self.node_id,
            state.known_parent,
            mt.STATUS_UPDATE,
            {
                "predicate": state.predicate,
                "update_set": state.sent_update_set,
                "subtree_recv": self._subtree_recv(state, False),
                "last_seen_seq": state.last_seen_seq,
            },
        )

    def _flush_held(self) -> None:
        """The held report found no reply to ride: send it on its own."""
        state = self._held
        self._held = None
        self._post_status(state)

    def _handle_status(self, message: Message) -> None:
        payload = message.payload
        self._apply_report(
            self.get_state(payload["predicate"]),
            message.src,
            payload["update_set"],
            payload.get("subtree_recv"),
        )

    def _apply_report(
        self,
        state: PredicateTreeState,
        child: int,
        update_set: frozenset[int],
        subtree_recv: Optional[int],
    ) -> None:
        """A child's status report, standalone (``STATUS_UPDATE`` /
        ``STATE_SYNC``) or riding its ``QUERY_RESPONSE``."""
        state.record_child_report(child, frozenset(update_set), subtree_recv)
        self._recompute(state)
        if self.standing._subs and update_set:
            # A member below a child: standing installs follow it there.
            self.standing.on_child_report(state.pred_key, child)

    # ------------------------------------------------------------------
    # query processing (Sections 3.2 and 5)
    # ------------------------------------------------------------------

    def _handle_frontend_query(self, message: Message) -> None:
        """A sub-query arriving at this node as the tree root.

        Before walking the tree, the root looks for an identical
        in-flight execution: if one is walking, it absorbs the request as
        a subscriber -- even when the two requests came from different
        front-ends -- and the reply it owes carries ``subscribed``.  A
        share below its origin's floor gets a duplicate's empty reply
        first, so a late copy neither walks nor joins.
        """
        payload = message.payload
        # The reply needs the state even below the floor; that share's
        # first copy came here and made it, unless GC has taken it since.
        state = self.get_state(payload["predicate"])
        pred_key = state.pred_key
        qid = payload["qid"]
        origin, n, floor = share = payload["share"]
        held = self._memory
        memory = held.pop(origin, None)  # put back below: LRU order
        if memory is None or floor > memory["top"]:
            if memory is None and len(held) >= _ORIGINS_HELD:
                del held[next(iter(held))]
            memory = {"floor": floor, "top": n}
        elif floor > memory["floor"]:
            self._retire(memory, floor)
        held[origin] = memory
        if n < memory["floor"]:
            self._send_reply(state, qid, message.src, mt.FRONTEND_RESPONSE, None, 0)
            return
        query = payload["query"]
        cover = payload.get("cover")
        exec_key = execution_key(query, pred_key, cover)
        if exec_key is not None and self.config.share_executions:
            if self.inflight.subscribe(exec_key, message.src, qid):
                self.network.stats.root_subscriptions += 1
                return
        # The root stamps each query with a sequence number (Section 4);
        # continue past our highest-seen value so a root change after churn
        # keeps the sequence monotonic.
        seq = max(self._seq_counters.get(pred_key, 0), state.last_seen_seq) + 1
        self._seq_counters[pred_key] = seq
        self._process_query(
            state, qid, share, memory, seq, query, message.src, mt.FRONTEND_RESPONSE, exec_key
        )

    def _handle_query(self, message: Message) -> None:
        """Tree-internal QUERY receipt: the single hottest handler.

        This is :meth:`_process_query` specialized for the in-tree case
        (``reply_mtype = QUERY_RESPONSE``, no ``exec_key``) with the
        per-message memo probes inlined: state lookup, forward-target and
        sorted-fan-out memos.  Any behavioral change here MUST be mirrored
        in :meth:`_process_query` (the root/front-end path) -- the two are
        decision-identical by construction.  They differ only in how a
        status report raised here travels: it is held for the
        ``QUERY_RESPONSE`` (a ``FRONTEND_RESPONSE`` never carries one).
        """
        payload = message.payload
        predicate = payload["predicate"]
        pred_key = predicate.__dict__.get("_canonical_cache")
        state = self.states.get(pred_key) if pred_key is not None else None
        if state is None:
            state = self.get_state(predicate)
            pred_key = state.pred_key
        qid = payload["qid"]
        qkey = (qid, pred_key)
        reply_to = message.src
        # The duplicate memory, as in _handle_frontend_query and
        # _process_query, with the sequential case kept in one step.
        share = payload["share"]
        origin, n, floor = share
        held = self._memory
        memory = held.pop(origin, None)  # put back below: LRU order
        if memory is None or floor > memory["top"]:
            # New here, or the floor passes every share held (the
            # sequential case): a fresh record, one step.
            if memory is None and len(held) >= _ORIGINS_HELD:
                del held[next(iter(held))]
            held[origin] = memory = {"floor": floor, "top": n, n: pred_key}
            duplicate = qkey in self._pending
        else:
            held[origin] = memory
            if floor > memory["floor"]:
                self._retire(memory, floor)
            elif n < memory["floor"]:
                # Below the floor: its front-end heard its end already.
                self._send_reply(state, qid, reply_to, mt.QUERY_RESPONSE, None, 0)
                return
            first = memory.get(n)
            duplicate = qkey in self._pending or (
                first is not None and (first == pred_key or (n, pred_key) in memory)
            )
            if not duplicate:
                if first is None:
                    memory[n] = pred_key
                    if n > memory["top"]:
                        memory["top"] = n
                else:
                    memory[(n, pred_key)] = None
        if duplicate:
            # Duplicate delivery (stale forwarding state): answer empty so
            # the sender's aggregation completes; our value already flows
            # through the other path.
            self._send_reply(state, qid, reply_to, mt.QUERY_RESPONSE, None, 0)
            return
        if self._gc_enabled:
            now = self._engine.now
            self.gc_policy.on_query(self, pred_key, now)
            for candidate in self.gc_policy.collect(self, now):
                if candidate != pred_key:
                    self.garbage_collect(candidate)

        # Sequence accounting: queries missed while pruned count as qn.
        seq = payload["seq"]
        missed = seq - state.last_seen_seq - 1
        if missed < 0:
            missed = 0
        if seq > state.last_seen_seq:
            state.last_seen_seq = seq
        contributing = self.node_id in state.computed_update_set
        adaptor = state.adaptor
        self._holding = True
        flipped = adaptor.record_query(contributing, missed)
        if flipped:
            self._after_adaptation(state, flipped)
        if adaptor.update:
            self._maybe_send_status(state)
        self._holding = False

        # Forward-target memo probe (see _forward_targets), inlined with
        # the sorted-order memo: the fan-out set AND its deterministic
        # send order are both stable between report/membership changes.
        version = self._oindex.version
        if state.cached_children_version == version:
            children = state.cached_children
        else:
            children = self._dht_children(state)
        fkey = (state.report_version, state.cached_children_version)
        if state.fwd_targets_key == fkey:
            targets = state.fwd_targets
        else:
            targets = state.forward_targets(children)
            state.fwd_targets_key = fkey
            state.fwd_targets = targets
            state.fwd_targets_sorted = None
        live_targets = self.network.filter_alive(targets) if targets else targets

        query = payload["query"]
        partial, contributed = self._local_contribution(memory, n, query)
        if not live_targets:
            self._send_reply(
                state, qid, reply_to, mt.QUERY_RESPONSE, partial, int(contributed)
            )
            self._compact(state)
            return
        if live_targets is targets:
            ordered = state.fwd_targets_sorted
            if ordered is None:
                ordered = sorted(targets)
                state.fwd_targets_sorted = ordered
        else:
            ordered = sorted(live_targets)

        pending = _PendingQuery(
            qid=qid,
            pred_key=pred_key,
            query=query,
            reply_to=reply_to,
            reply_mtype=mt.QUERY_RESPONSE,
            waiting=set(live_targets),
            partial=partial,
            contributors=int(contributed),
        )
        self._pending[qkey] = pending
        if self._held is not None:
            self._flush_held()  # the reply is not imminent
        # One shared payload for the whole fan-out (receivers are
        # read-only); sorted for deterministic send order.
        self.network.send_many(
            self.node_id,
            ordered,
            mt.QUERY,
            {
                "qid": qid,
                "seq": seq,
                "query": query,
                "predicate": state.predicate,
                "share": share,
            },
        )
        if self._child_timeout is not None:
            pending.timeout_handle = self._engine.schedule(
                self._child_timeout, self._on_timeout, qkey
            )

    def _process_query(
        self,
        state: PredicateTreeState,
        qid: str,
        share: tuple,
        memory: dict,
        seq: int,
        query: Query,
        reply_to: int,
        reply_mtype: str,
        exec_key: Optional[tuple] = None,
    ) -> None:
        pred_key = state.pred_key
        key = (qid, pred_key)
        n = share[1]
        first = memory.get(n)
        if key in self._pending or (
            first is not None and (first == pred_key or (n, pred_key) in memory)
        ):
            # Duplicate delivery (stale forwarding state): answer empty so
            # the sender's aggregation completes; our value already flows
            # through the other path.
            self._send_reply(state, qid, reply_to, reply_mtype, None, 0)
            return
        if first is None:
            memory[n] = pred_key
            memory["top"] = max(memory["top"], n)
        else:
            memory[(n, pred_key)] = None
        if self._gc_enabled:
            now = self._engine.now
            self.gc_policy.on_query(self, pred_key, now)
            # Sweep other predicates; the one being processed right now is
            # protected by its fresh on_query recency/frequency record and
            # by the pending-query check in garbage_collect once
            # forwarding starts.
            for candidate in self.gc_policy.collect(self, now):
                if candidate != pred_key:
                    self.garbage_collect(candidate)

        # Sequence accounting: queries missed while pruned count as qn.
        missed = seq - state.last_seen_seq - 1
        if missed < 0:
            missed = 0
        if seq > state.last_seen_seq:
            state.last_seen_seq = seq
        contributing = self.node_id in state.computed_update_set
        flipped = state.adaptor.record_query(contributing, missed)
        if flipped:
            self._after_adaptation(state, flipped)
        if state.adaptor.update:
            self._maybe_send_status(state)

        targets = self._forward_targets(state)
        # The DHT's failure detector: skip targets known to be dead.
        live_targets = self.network.filter_alive(targets)

        partial, contributed = self._local_contribution(memory, n, query)
        if not live_targets:
            self._send_reply(
                state, qid, reply_to, reply_mtype, partial, int(contributed)
            )
            return

        pending = _PendingQuery(
            qid=qid,
            pred_key=pred_key,
            query=query,
            reply_to=reply_to,
            reply_mtype=reply_mtype,
            waiting=set(live_targets),
            partial=partial,
            contributors=int(contributed),
            exec_key=exec_key,
        )
        self._pending[key] = pending
        if exec_key is not None and self.config.share_executions:
            self.inflight.open(exec_key)
        # One shared payload for the whole fan-out (receivers are
        # read-only); sorted for deterministic send order.
        self.network.send_many(
            self.node_id,
            sorted(live_targets),
            mt.QUERY,
            {
                "qid": qid,
                "seq": seq,
                "query": query,
                "predicate": state.predicate,
                "share": share,
            },
        )
        if self._child_timeout is not None:
            pending.timeout_handle = self._engine.schedule(
                self._child_timeout, self._on_timeout, key
            )

    @staticmethod
    def _retire(memory: dict, floor: int) -> None:
        """Raise an origin's floor, keeping the shares at or above it."""
        memory["floor"] = floor
        for key in [
            k for k in memory if type(k) is not str and (abs(k) if type(k) is int else k[0]) < floor
        ]:
            del memory[key]

    def _local_contribution(self, memory: dict, n: int, query: Query) -> tuple[Any, bool]:
        """Our own (value, contributed) for share ``n`` of a query, with
        composite-cover duplicate suppression (Section 6.2)."""
        attrs = self._attr_data
        if not query.predicate.evaluate(attrs):
            return None, False
        if -n in memory:
            return None, False  # already answered via another cover group
        if query.attr == STAR_ATTRIBUTE:
            value: Any = 1
        elif query.attr in attrs:
            value = attrs[query.attr]
        else:
            return None, False  # satisfies the group but lacks the attribute
        memory[-n] = None
        return query.function.lift(value, self.node_id), True

    def _handle_response(self, message: Message) -> None:
        payload = message.payload
        pred_key = payload["pred_key"]
        state = self.states.get(pred_key)
        src = message.src
        update_set = payload.get("update_set")
        if update_set is not None:
            # The child's status report rode its reply: it lands first,
            # as the STATUS_UPDATE ahead of the reply did -- also when
            # the aggregation it answers is already resolved.
            if state is None:
                state = self.get_state(payload["predicate"])
            self._holding = True
            self._apply_report(state, src, update_set, payload["subtree_recv"])
            self._holding = False
        elif state is not None and "subtree_recv" in payload:
            # Piggybacked np maintenance (Section 6.3) -- only reports from
            # our actual DHT children describe subtrees we own.  Children
            # memo probe and the no-change report (steady state: every
            # reply re-piggybacks the same estimate) are inlined.
            if state.cached_children_version == self._oindex.version:
                children = state.cached_children
            else:
                children = self._dht_children(state)
            if src in children:
                sr = payload["subtree_recv"]
                info = state.children.get(src)
                if info is None or sr != info.subtree_recv:
                    state.record_child_report(src, None, sr)
        key = (payload["qid"], pred_key)
        pending = self._pending.get(key)
        # (else: late response after timeout/failure resolution)
        if pending is not None and src in pending.waiting:
            pending.waiting.discard(src)
            part = payload["partial"]
            if part is not None:
                # merge() treats None as the identity; skip the call for
                # the common empty-subtree response.
                pending.partial = (
                    part
                    if pending.partial is None
                    else pending.query.function.merge(pending.partial, part)
                )
            pending.contributors += payload["contributors"]
            if not pending.waiting:
                self._finalize(key)
        if self._held is not None:
            self._flush_held()  # our own report did not ride a reply

    def _on_timeout(self, key: tuple[str, str]) -> None:
        """Child-response deadline: answer with what we have (Section 7)."""
        pending = self._pending.get(key)
        if pending is not None:
            self._finalize(key)

    def _finalize(self, key: tuple[str, str]) -> None:
        pending = self._pending.pop(key)
        if pending.timeout_handle is not None:
            pending.timeout_handle.cancel()
        state = self.states.get(pending.pred_key)
        assert state is not None
        self._send_reply(
            state,
            pending.qid,
            pending.reply_to,
            pending.reply_mtype,
            pending.partial,
            pending.contributors,
        )
        if pending.exec_key is None:
            return
        # Fan the single result out to every late arrival that subscribed
        # while the tree walk was in flight.  This also covers executions
        # resolved early by a timeout or by churn (Section 7): subscribers
        # get the partial (possibly NULL) answer, never a hang.
        for reply_to, qid in self.inflight.close(pending.exec_key):
            self._send_reply(
                state,
                qid,
                reply_to,
                pending.reply_mtype,
                copy.deepcopy(pending.partial),
                pending.contributors,
                subscribed=True,
            )

    def _send_reply(
        self,
        state: PredicateTreeState,
        qid: str,
        reply_to: int,
        reply_mtype: str,
        partial: Any,
        contributors: int,
        subscribed: bool = False,
    ) -> None:
        # Inlined _is_root + _subtree_recv memo probes (one reply per
        # query per node flows through here): on a warm state neither
        # helper frame is entered.
        version = self._oindex.version
        if state.cached_parent_version == version:
            is_root = state.cached_parent is None
        else:
            is_root = self._dht_parent(state) is None
        skey = state.subtree_recv_key
        if (
            skey is not None
            and skey[1] == state.recv_version
            and skey[0] == state.report_version
            and skey[2] == version
            and skey[3] == is_root
            and skey[4] == state.sent_update_set
        ):
            subtree_recv = state.subtree_recv_value
        else:
            subtree_recv = self._subtree_recv(state, is_root)
        payload = {
            "qid": qid,
            "pred_key": state.pred_key,
            "partial": partial,
            "contributors": contributors,
            "subtree_recv": subtree_recv,
            "last_seen_seq": state.last_seen_seq,
        }
        if subscribed:
            # Served from a shared in-flight execution (cross-front-end
            # sub-query sharing): fresh data, zero marginal tree messages.
            payload["subscribed"] = True
        held = self._held
        if held is not None:
            self._held = None
            if (
                held is state
                and reply_to == state.known_parent
                and reply_mtype == mt.QUERY_RESPONSE
            ):
                payload["update_set"] = state.sent_update_set
                payload["predicate"] = state.predicate
            else:
                # Another tree's report, or a reply that bypasses the
                # parent (separate query plane): send it on its own,
                # ahead of the reply as before.
                self._post_status(held)
        if is_root:
            # Piggyback the same 2*np query-cost estimate a SIZE_PROBE
            # would return, so the front-end's group-size cache is fed by
            # every answered sub-query and repeat queries skip the probe
            # round-trip entirely (Section 6.3's cost, amortized away).
            payload["cost"] = 2 * subtree_recv
        self.network.send(
            self.node_id, reply_to, reply_mtype, payload
        )

    # ------------------------------------------------------------------
    # size probes (Section 6.3)
    # ------------------------------------------------------------------

    def _handle_size_probe(self, message: Message) -> None:
        payload = message.payload
        state = self.get_state(payload["predicate"])
        cost = 2 * self._subtree_recv(state, True)
        self.network.send(
            self.node_id,
            message.src,
            mt.SIZE_RESPONSE,
            {
                "probe_id": payload["probe_id"],
                "pred_key": state.pred_key,
                "cost": cost,
            },
        )

    # ------------------------------------------------------------------
    # standing subscriptions (delegated to repro.standing.agent)
    # ------------------------------------------------------------------

    def _handle_sub_install(self, message: Message) -> None:
        self.standing.handle_install(message)

    def _handle_sub_delta(self, message: Message) -> None:
        self.standing.handle_delta(message)

    def _handle_sub_cancel(self, message: Message) -> None:
        self.standing.handle_cancel(message)

    def _handle_sub_renew(self, message: Message) -> None:
        self.standing.handle_renew(message)

    # ------------------------------------------------------------------
    # reconfiguration (Section 7)
    # ------------------------------------------------------------------

    def on_membership_change(self, joined: set[int], left: set[int]) -> None:
        """React to overlay churn: resolve queries stuck on departed nodes,
        drop the reports of nodes that stopped being our children, and
        re-announce state to new parents.
        """
        if left:
            for key in list(self._pending):
                pending = self._pending.get(key)
                if pending is None:
                    continue
                gone = pending.waiting & left
                if gone:
                    # "proceed assuming a NULL response from the child"
                    pending.waiting -= gone
                    if not pending.waiting:
                        self._finalize(key)
        # Standing subscriptions re-derive their DHT-tree parents and
        # children (and clear themselves if we left the overlay).
        self.standing.on_membership_change(joined, left)
        if self.node_id not in self.overlay:
            return  # we ourselves left; nothing further to maintain
        overlay = self.overlay
        for state in self._entries():
            if type(state) is PrunedLeaf:
                tree_key = state.tree_key
                if state.known_parent == overlay.parent(
                    self.node_id, tree_key
                ) and not overlay.children(self.node_id, tree_key):
                    continue  # no child gained, same parent: nothing changes
                state = self.get_state(state.predicate)
            # A report describes a subtree hanging off us: once its sender
            # is not our child any more (it left, or churn re-parented it)
            # it describes nothing, and a kept PRUNE would be trusted again
            # when the child moves back in NO-UPDATE, announcing nothing.
            # A child we gained has not reported, so a pruned subtree has
            # to open up for it: recompute either way (it returns early
            # while the updateSet stands).
            children = self._dht_children(state)
            state.forget_children(
                {child for child in state.children if child not in children}
            )
            self._recompute(state)
            new_parent = self._dht_parent(state)
            if new_parent != state.known_parent:
                state.known_parent = new_parent
                if new_parent is None:
                    continue  # we became the root
                if state.adaptor.update:
                    # "it sends its current state information ... to the
                    # new parent"
                    self._send_status(state, state.computed_update_set)
                else:
                    # NO-UPDATE: the new parent's default view (forward
                    # directly to us) is exactly what correctness needs.
                    state.sent_update_set = None


#: message-type -> unbound handler, built once at import time (the
#: per-node dispatch used by :meth:`MoaraNode.handle_message`).
_DISPATCH: dict[str, Callable[[MoaraNode, Message], None]] = {
    mt.QUERY: MoaraNode._handle_query,
    mt.QUERY_RESPONSE: MoaraNode._handle_response,
    mt.STATUS_UPDATE: MoaraNode._handle_status,
    mt.STATE_SYNC: MoaraNode._handle_status,
    mt.SIZE_PROBE: MoaraNode._handle_size_probe,
    mt.FRONTEND_QUERY: MoaraNode._handle_frontend_query,
    mt.SUB_INSTALL: MoaraNode._handle_sub_install,
    mt.SUB_DELTA: MoaraNode._handle_sub_delta,
    mt.SUB_CANCEL: MoaraNode._handle_sub_cancel,
    mt.SUB_RENEW: MoaraNode._handle_sub_renew,
}


#: Public alias: the node-side counterpart of ``FrontendConfig`` (the
#: documentation and configuration tables refer to these knobs as the
#: "NodeConfig").
NodeConfig = MoaraConfig
