"""Overlay membership and prefix routing.

The overlay is the simulation-side stand-in for a deployed FreePastry ring:
it tracks live membership in an :class:`~repro.pastry.idindex.IdIndex`,
answers routing queries, caches the implicit aggregation tree per key, and
notifies listeners (the Moara layer) when membership changes so they can
re-parent per-predicate state (paper Section 7, "Reconfigurations").

Routing semantics (classic Pastry):

1. *Prefix correction* -- from node *n* toward key *k*, hop to a node whose
   shared prefix with *k* is strictly longer than *n*'s.  The hop target is
   a deterministic pseudo-random candidate per (node, slot), modelling
   Pastry's proximity-based table-entry choice (see
   :meth:`repro.pastry.idindex.IdIndex.pseudo_random_with_prefix`).
2. *Numeric (leaf-set) hop* -- when no longer-prefix node exists, hop
   directly to the node ring-closest to *k*, which is the key's *root*.

Each prefix hop fixes at least one digit, so routes terminate in at most
``num_digits + 1`` hops and the hop count grows logarithmically with the
overlay size (verified by tests).
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional, Sequence

from repro.pastry.dht_tree import DHTTree
from repro.pastry.idindex import IdIndex
from repro.pastry.idspace import IdSpace

__all__ = ["Overlay"]

MembershipListener = Callable[[set[int], set[int]], None]


class Overlay:
    """Membership, routing, and implicit-tree services for one DHT ring."""

    def __init__(self, space: Optional[IdSpace] = None, leafset_size: int = 16) -> None:
        self.space = space or IdSpace()
        self.leafset_size = leafset_size
        self.index = IdIndex(self.space)
        self._tree_cache: dict[int, DHTTree] = {}
        #: (key -> (membership version, root)) memo: the query plane asks
        #: for the same handful of group roots on every submit.
        self._root_cache: dict[int, tuple[int, int]] = {}
        self._listeners: list[MembershipListener] = []

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def add_listener(self, listener: MembershipListener) -> None:
        """Register a callback invoked as ``listener(joined, left)``."""
        self._listeners.append(listener)

    def add_node(self, node_id: int) -> None:
        """A node joins the ring."""
        self.index.add(node_id)
        self._membership_changed({node_id}, set())

    def remove_node(self, node_id: int) -> None:
        """A node leaves (or is declared failed by the failure detector)."""
        self.index.remove(node_id)
        self._membership_changed(set(), {node_id})

    def bulk_join(self, node_ids: Iterable[int]) -> None:
        """Join many nodes at once (initial overlay construction)."""
        joined = set()
        for node_id in node_ids:
            self.index.add(node_id)
            joined.add(node_id)
        if joined:
            self._membership_changed(joined, set())

    def generate_ids(self, count: int, seed: int = 0) -> list[int]:
        """Draw ``count`` distinct random IDs (overlay bootstrap helper)."""
        rng = random.Random(seed)
        ids: set[int] = set()
        while len(ids) < count:
            candidate = self.space.random_id(rng)
            if candidate not in ids and candidate not in self.index:
                ids.add(candidate)
        return sorted(ids)

    def _membership_changed(self, joined: set[int], left: set[int]) -> None:
        self._tree_cache.clear()
        for listener in self._listeners:
            listener(joined, left)

    @property
    def node_ids(self) -> list[int]:
        """Sorted list of live node IDs."""
        return self.index.ids

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.index

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def root(self, key: int) -> int:
        """The live node ring-closest to ``key`` (the DHT tree root).

        Memoized per membership version (hot: every query submit and
        probe resolves its group roots through here).
        """
        version = self.index.version
        cached = self._root_cache.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        root = self.index.closest_to(key)
        if root is None:
            raise RuntimeError("overlay is empty")
        self._root_cache[key] = (version, root)
        return root

    def next_hop(self, node_id: int, key: int) -> Optional[int]:
        """One routing step from ``node_id`` toward ``key``.

        Returns None when ``node_id`` is the root of ``key``.
        """
        root = self.root(key)
        if node_id == root:
            return None
        prefix = self.space.common_prefix_len(node_id, key)
        candidate = self.index.pseudo_random_with_prefix(
            key, prefix + 1, salt=node_id, exclude=node_id
        )
        if candidate is not None:
            return candidate
        return root

    def route(self, src: int, key: int) -> list[int]:
        """The full routing path ``[src, ..., root(key)]``."""
        path = [src]
        current = src
        for _ in range(self.space.num_digits + 2):
            nxt = self.next_hop(current, key)
            if nxt is None:
                return path
            path.append(nxt)
            current = nxt
        raise RuntimeError(
            f"routing from {src} to key {key} did not converge: {path}"
        )

    # ------------------------------------------------------------------
    # implicit aggregation trees (paper Section 3.2, Figure 3)
    # ------------------------------------------------------------------

    def tree(self, key: int) -> DHTTree:
        """The implicit DHT aggregation tree for ``key`` (cached)."""
        cached = self._tree_cache.get(key)
        if cached is not None and cached.version == self.index.version:
            return cached
        tree = DHTTree.build(self, key)
        self._tree_cache[key] = tree
        return tree

    def parent(self, node_id: int, key: int) -> Optional[int]:
        """The node's parent in the tree for ``key`` (None at the root)."""
        return self.tree(key).parent_of(node_id)

    def children(self, node_id: int, key: int) -> Sequence[int]:
        """The node's children in the tree for ``key``."""
        return self.tree(key).children_of(node_id)
