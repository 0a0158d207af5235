"""Protocol message types and their payload schemas.

Message payloads carry Python objects directly (predicates, partial
aggregates); the network layer estimates wire sizes for byte accounting,
but the paper's metrics are message *counts*, which are exact.  The
authoritative senders/handlers are :mod:`repro.core.frontend` (the
client side) and :mod:`repro.core.moara_node` (the per-node agent).

Payload schemas
---------------

``QUERY`` (node -> node, down the query-forwarding graph):
    ``qid``       query/share id the answer is keyed by (also the
    message-accounting tag), ``seq`` the root's per-tree sequence number
    (missed sequence numbers count as ``qn`` for Section 4's
    adaptation), ``query`` the full :class:`~repro.core.query.Query`,
    ``predicate`` the group predicate naming the tree being walked,
    ``share`` the front-end's stamp, forwarded unchanged (below).

``QUERY_RESPONSE`` (node -> node, partial aggregate flowing back up):
    ``qid``, ``pred_key`` (canonical group predicate), ``partial`` the
    merged partial aggregate (``None`` = no data), ``contributors`` the
    number of nodes whose local value flowed in, ``subtree_recv`` the
    sender's lazily aggregated receive-count (piggybacked ``np``
    maintenance, Section 6.3), ``last_seen_seq``.  Optionally
    ``update_set`` + ``predicate``: the status report the sender raised
    while handling this query (or a child's reply to it), present only
    when the reply goes to the sender's DHT parent.  The receiver
    applies it first, exactly as the ``STATUS_UPDATE`` below (with the
    reply's own ``subtree_recv``), then processes the reply -- also when
    the aggregation the reply answers is already resolved.

``STATUS_UPDATE`` (child -> DHT parent, Sections 4-5):
    ``predicate``, ``update_set`` (the child's updateSet; empty set =
    PRUNE), ``subtree_recv``, ``last_seen_seq``.
    Sent on its own only for reports raised outside a query (attribute
    change, reconfiguration) or whose reply goes elsewhere or later:
    to the front-end, to a non-parent ancestor (separate query plane),
    or after a fan-out that is still pending.  The others ride the
    ``QUERY_RESPONSE``, which is why forming a group tree costs two
    messages per node and not three.

``STATE_SYNC`` (node -> new DHT parent after reconfiguration,
    Section 7): same schema as ``STATUS_UPDATE``.

``SIZE_PROBE`` (front-end -> tree root, Section 6.3):
    ``probe_id`` (accounting tag), ``predicate`` the group to estimate.

``SIZE_RESPONSE`` (root -> front-end):
    ``probe_id``, ``pred_key``, ``cost`` -- the ``2 * np`` query-cost
    estimate feeding the front-end's group-size cache.

``FRONTEND_QUERY`` (front-end -> tree root):
    ``qid`` (the front-end's share id), ``query``, ``predicate`` the
    cover group this root owns, ``cover`` -- the full chosen cover
    (tuple of canonical group keys), piggybacked so the root can decide
    whether the execution can be shared across query ids
    (single-group covers only; see :mod:`repro.core.inflight`) -- and
    ``share`` ``(origin, n, floor)``: the front-end incarnation (from
    ``FrontendTransport.issue_origin``; a restart or a link failure gets
    a new one), the share's number, and the lowest ``n`` of that origin
    whose end the front-end has not heard (an answer from every cover
    root, or the root's departure; a NULL from a link failure is not
    heard).  Nodes key duplicate memory by ``(origin, n)``, drop it
    below a higher floor, and keep the 64 most recently used origins.
    A ``QUERY`` or ``FRONTEND_QUERY`` below the floor gets a duplicate's
    empty reply: no contribution, no forward, and at a root no walk and
    no join.

``FRONTEND_RESPONSE`` (tree root -> front-end):
    the ``QUERY_RESPONSE`` schema, plus piggybacked metadata:

    * ``cost`` -- every root reply carries the same ``2 * np`` estimate
      a ``SIZE_PROBE`` would return, so warm front-ends skip the probe
      round-trip entirely;
    * ``subscribed`` -- present when the answer came from subscribing
      this request to an identical in-flight execution (cross-front-end
      sub-query sharing).

    Front-ends surface ``subscribed`` per query as
    :attr:`~repro.core.query.QueryResult.root_shared`.

Standing-query plane (:mod:`repro.standing`)
--------------------------------------------

Standing subscriptions are *long-lived*: their payloads deliberately key
the subscription id as ``sub_id`` -- **never** ``qid``/``probe_id`` --
so the network's per-query tag accounting ignores them (a tag that is
never drained by ``pop_tag`` would otherwise grow without bound).

``SUB_INSTALL`` (front-end -> cover-tree root, then fanned down the raw
    DHT tree for the group's attribute):
    ``sub_id``, ``query`` the full standing :class:`~repro.core.query.
    Query`, ``predicate`` the cover group this tree serves, ``cover``
    the full chosen cover (tuple of group :class:`~repro.core.
    predicates.Predicate` objects, for enmeshed OR-dedup), ``lease``
    the root-enforced lease in seconds (0 = no expiry), ``frontend``
    the subscribing front-end's node id.  Plus the per-flood keys, the
    same at every node and therefore resolved once where the flood
    starts (:func:`repro.standing.agent.install_payload`):
    ``pred_key`` the predicate's canonical key, ``tree_key`` the DHT key
    of its tree, ``attrs`` the frozenset of attribute names whose change
    can alter a node's contribution.  The payload is one read-only dict
    per flood: every node forwards the object it received.

``SUB_DELTA`` (child -> DHT parent, replacement subtree partial):
    ``sub_id``, ``pred_key``, ``partial`` the child's whole recomputed
    subtree partial (state-based replacement, not an invertible
    increment -- correct for MIN/MAX/TOP-K), ``contributors``, plus the
    full install schema (``query``/``predicate``/``cover``/``lease``/
    ``frontend`` and the per-flood ``tree_key``/``attrs``),
    and ``rerooted: True`` when the push is not a routine change -- the
    sender's parent changed, or it was itself just installed from such a
    delta.  A parent that does not hold the subscription installs from
    a re-rooting delta (post-churn re-rooting: it never saw the install)
    and keeps propagating; a routine one it drops (sent before a cancel
    reached the sender).  A node whose subtree is empty, that has never
    pushed, and that still sits under the parent it was installed under
    sends none: a parent holding no entry for a child counts it empty.

``STANDING_UPDATE`` (tree root -> front-end):
    ``sub_id``, ``pred_key``, ``partial``, ``contributors``, ``seq`` the
    root's per-subscription monotone delta sequence number (the
    front-end drops reordered/duplicate updates), ``cost`` the same
    ``2 * np`` estimate a ``SIZE_RESPONSE`` carries (feeds the size
    cache for standing replans), and optionally ``expired: True`` when
    the root dropped the subscription because its lease ran out, or
    ``rerooted: True`` when the root just became one or was installed
    from a re-rooting delta (a front-end that tore the subscription
    down cancels it again instead of dropping the update as late).

``SUB_CANCEL`` (front-end -> root, fanned down like the install):
    ``sub_id``, ``predicate``, and its ``pred_key`` / ``tree_key``
    (resolved by the sender, like the install's) -- removes the
    subscription state at every node of that cover tree.

``SUB_RENEW`` (front-end -> root): ``sub_id``, ``predicate``,
    ``lease`` -- extends the root's lease without reinstalling.
"""

from __future__ import annotations

__all__ = [
    "FRONTEND_QUERY",
    "FRONTEND_RESPONSE",
    "QUERY",
    "QUERY_RESPONSE",
    "SIZE_PROBE",
    "SIZE_RESPONSE",
    "STANDING_MESSAGES",
    "STANDING_UPDATE",
    "STATE_SYNC",
    "STATUS_UPDATE",
    "SUB_CANCEL",
    "SUB_INSTALL",
    "SUB_RENEW",
    "SUB_DELTA",
]

#: Query propagation down a group tree (root -> forwarding graph).
QUERY = "QUERY"

#: Partial aggregate flowing back up the query-forwarding graph.
QUERY_RESPONSE = "QUERY_RESPONSE"

#: PRUNE / NO-PRUNE + updateSet from a node to its DHT parent (Sections 4-5).
STATUS_UPDATE = "STATUS_UPDATE"

#: State re-announcement to a new parent after overlay reconfiguration
#: (Section 7, "Reconfigurations").
STATE_SYNC = "STATE_SYNC"

#: Front-end asking a tree root for its current query-cost estimate (2*np).
SIZE_PROBE = "SIZE_PROBE"

#: Root's reply to a size probe.
SIZE_RESPONSE = "SIZE_RESPONSE"

#: Front-end injecting a (sub-)query at a tree root.
FRONTEND_QUERY = "FRONTEND_QUERY"

#: Root returning the aggregated answer for one sub-query to the front-end
#: (possibly from a shared in-flight execution).
FRONTEND_RESPONSE = "FRONTEND_RESPONSE"

#: Standing subscription install, fanned down one cover tree
#: (front-end -> root -> every node of the raw DHT tree).
SUB_INSTALL = "SUB_INSTALL"

#: Replacement subtree partial pushed child -> parent when a
#: subscription's subtree changed (join/leave/attribute write).
SUB_DELTA = "SUB_DELTA"

#: Subscription teardown, fanned down the cover tree like the install.
SUB_CANCEL = "SUB_CANCEL"

#: Lease extension for a live subscription (front-end -> root).
SUB_RENEW = "SUB_RENEW"

#: Folded root delta (root -> front-end) with a per-subscription
#: monotone ``seq``; the front-end merges one of these per cover group
#: into the standing query's live answer.
STANDING_UPDATE = "STANDING_UPDATE"

#: The standing-plane wire protocol, in install-to-teardown order
#: (docs/STANDING_QUERIES.md documents exactly these types; the docs
#: checker cross-checks both directions).
STANDING_MESSAGES = (
    SUB_INSTALL,
    SUB_DELTA,
    STANDING_UPDATE,
    SUB_RENEW,
    SUB_CANCEL,
)
