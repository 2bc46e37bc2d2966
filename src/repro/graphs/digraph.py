"""A small directed-graph container.

The analyses in this package need only adjacency iteration, edge
insertion, and reachability; keeping the container minimal makes the
algorithm modules (SCC, dominance, data-flow) easy to audit against
their textbook statements.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Dict, Hashable, Iterable, Iterator, List, Set

#: What a node not in the graph has as successors and predecessors.
_NO_NODES: AbstractSet[Hashable] = frozenset()


class DiGraph:
    """Directed graph over hashable node ids, with O(1) edge insertion.

    Successor/predecessor sets are deduplicated; parallel edges are not
    represented (none of the client analyses need them).
    """

    def __init__(self) -> None:
        self._succs: Dict[Hashable, Set[Hashable]] = {}
        self._preds: Dict[Hashable, Set[Hashable]] = {}

    # -- construction -------------------------------------------------

    def add_node(self, node: Hashable) -> None:
        """Insert *node* (a no-op if already present)."""
        if node not in self._succs:
            self._succs[node] = set()
            self._preds[node] = set()

    def add_edge(self, src: Hashable, dst: Hashable) -> None:
        """Insert the edge src -> dst, inserting endpoints as needed."""
        self.add_node(src)
        self.add_node(dst)
        self._succs[src].add(dst)
        self._preds[dst].add(src)

    # -- queries ------------------------------------------------------

    def __contains__(self, node: Hashable) -> bool:
        return node in self._succs

    def __len__(self) -> int:
        return len(self._succs)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._succs)

    def nodes(self) -> Iterable[Hashable]:
        """All nodes, in insertion order."""
        return self._succs.keys()

    def edges(self) -> Iterator[tuple]:
        """All (src, dst) pairs."""
        for src, succs in self._succs.items():
            for dst in succs:
                yield (src, dst)

    def successors(self, node: Hashable) -> AbstractSet[Hashable]:
        return self._succs.get(node, _NO_NODES)

    def predecessors(self, node: Hashable) -> AbstractSet[Hashable]:
        return self._preds.get(node, _NO_NODES)

    def has_edge(self, src: Hashable, dst: Hashable) -> bool:
        return dst in self._succs.get(src, _NO_NODES)

    # -- traversals ---------------------------------------------------

    def reachable_from(self, start: Hashable) -> Set[Hashable]:
        """The set of nodes reachable from *start* (including it)."""
        if start not in self._succs:
            return set()
        seen = {start}
        work = deque([start])
        while work:
            node = work.popleft()
            for succ in self._succs[node]:
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return seen

    def postorder(self, entry: Hashable) -> List[Hashable]:
        """Iterative DFS postorder from *entry* (reachable nodes only)."""
        order: List[Hashable] = []
        seen: Set[Hashable] = set()
        if entry not in self._succs:
            return order
        # Stack holds (node, iterator over its successors).
        stack = [(entry, iter(sorted(self._succs[entry], key=repr)))]
        seen.add(entry)
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(sorted(self._succs[succ], key=repr))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        return order

    def reverse_postorder(self, entry: Hashable) -> List[Hashable]:
        """Reverse postorder (a topological order on DAGs)."""
        order = self.postorder(entry)
        order.reverse()
        return order
