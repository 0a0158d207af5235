"""The implicit DHT aggregation tree for a key.

Paper Section 3.2: "A DHT tree contains all the nodes in the system, and is
rooted at a node that maps to the ID of the group" (Figure 3 shows the tree
for an ID with prefix 000).  The tree is the union of the routing paths of
every node toward the key: ``parent(n) = next_hop(n, key)``.

Because the tree is implicit in routing state, the paper charges no
maintenance traffic for it ("global aggregation trees are implicit from the
DHT routing and hence require no separate maintenance overhead"); we follow
the same accounting.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pastry.overlay import Overlay

__all__ = ["DHTTree"]


class DHTTree:
    """A snapshot of the aggregation tree for one key."""

    def __init__(
        self,
        key: int,
        root: int,
        parent: dict[int, Optional[int]],
        version: int,
    ) -> None:
        self.key = key
        self.root = root
        self._parent = parent
        self.version = version
        self._children: dict[int, list[int]] = {}
        for node, par in parent.items():
            if par is not None:
                self._children.setdefault(par, []).append(node)
        for children in self._children.values():
            children.sort()

    @classmethod
    def build(cls, overlay: "Overlay", key: int) -> "DHTTree":
        """Compute parents for every live node via one routing step each."""
        root = overlay.root(key)
        parent: dict[int, Optional[int]] = {}
        for node_id in overlay.index:
            parent[node_id] = None if node_id == root else overlay.next_hop(node_id, key)
        return cls(key, root, parent, overlay.index.version)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def nodes(self) -> list[int]:
        """All nodes in the tree."""
        return list(self._parent)

    def parent_of(self, node_id: int) -> Optional[int]:
        """Parent of ``node_id`` (None at the root)."""
        return self._parent[node_id]

    def children_of(self, node_id: int) -> Sequence[int]:
        """Children of ``node_id`` (sorted for determinism; read-only --
        most nodes are leaves and share one empty result)."""
        return self._children.get(node_id, ())

    def depth_of(self, node_id: int) -> int:
        """Number of hops from ``node_id`` up to the root."""
        depth = 0
        current = node_id
        while True:
            parent = self._parent[current]
            if parent is None:
                return depth
            current = parent
            depth += 1
            if depth > len(self._parent):
                raise RuntimeError("cycle detected in DHT tree")

    def height(self) -> int:
        """Maximum depth over all nodes."""
        return max(self.depth_of(node) for node in self._parent)

    def subtree_nodes(self, node_id: int) -> list[int]:
        """All nodes in the subtree rooted at ``node_id`` (BFS order)."""
        result = []
        queue = deque([node_id])
        while queue:
            current = queue.popleft()
            result.append(current)
            queue.extend(self.children_of(current))
        return result

    def path_to_root(self, node_id: int) -> list[int]:
        """The node's ancestor chain ``[node_id, ..., root]``."""
        path = [node_id]
        current = node_id
        while True:
            parent = self._parent[current]
            if parent is None:
                return path
            path.append(parent)
            current = parent
            if len(path) > len(self._parent):
                raise RuntimeError("cycle detected in DHT tree")
