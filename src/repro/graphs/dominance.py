"""Dominator trees and dominance frontiers.

The Cooper-Harvey-Kennedy "simple, fast" dominance algorithm and
Cytron-style dominance frontiers. These power SSA construction (phi
placement for mem2reg and for memory SSA renaming of address-taken
objects, paper Section 2.2).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

from repro.graphs.digraph import DiGraph


class DominatorTree:
    """Immediate-dominator tree of a rooted directed graph.

    Only nodes reachable from *entry* participate; unreachable nodes
    have no dominator information.
    """

    def __init__(self, graph: DiGraph, entry: Hashable) -> None:
        self.graph = graph
        self.entry = entry
        self.idom: Dict[Hashable, Hashable] = {}
        self._rpo_index: Dict[Hashable, int] = {}
        self._compute()
        self._children: Dict[Hashable, List[Hashable]] = {}
        for node, parent in self.idom.items():
            if node != self.entry:
                self._children.setdefault(parent, []).append(node)

    def _compute(self) -> None:
        rpo = self.graph.reverse_postorder(self.entry)
        for i, node in enumerate(rpo):
            self._rpo_index[node] = i
        idom: Dict[Hashable, Optional[Hashable]] = {n: None for n in rpo}
        idom[self.entry] = self.entry
        changed = True
        while changed:
            changed = False
            for node in rpo:
                if node == self.entry:
                    continue
                new_idom: Optional[Hashable] = None
                for pred in self.graph.predecessors(node):
                    if pred not in self._rpo_index or idom[pred] is None:
                        continue
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(pred, new_idom, idom)
                if new_idom is not None and idom[node] != new_idom:
                    idom[node] = new_idom
                    changed = True
        self.idom = {n: d for n, d in idom.items() if d is not None}

    def _intersect(self, a: Hashable, b: Hashable, idom: Dict) -> Hashable:
        while a != b:
            while self._rpo_index[a] > self._rpo_index[b]:
                a = idom[a]
            while self._rpo_index[b] > self._rpo_index[a]:
                b = idom[b]
        return a

    # -- queries ------------------------------------------------------

    def immediate_dominator(self, node: Hashable) -> Optional[Hashable]:
        """The idom of *node*, or None for the entry / unreachable nodes."""
        if node == self.entry:
            return None
        return self.idom.get(node)

    def dominates(self, a: Hashable, b: Hashable) -> bool:
        """True if *a* dominates *b* (reflexively)."""
        if b not in self.idom:
            return False
        node = b
        while True:
            if node == a:
                return True
            if node == self.entry:
                return False
            node = self.idom[node]

    def children(self, node: Hashable) -> List[Hashable]:
        """Nodes immediately dominated by *node*."""
        return self._children.get(node, [])


def dominance_frontiers(graph: DiGraph, domtree: DominatorTree) -> Dict[Hashable, Set[Hashable]]:
    """Cytron et al. dominance frontiers from a dominator tree."""
    frontiers: Dict[Hashable, Set[Hashable]] = {n: set() for n in domtree.idom}
    for node in domtree.idom:
        preds = [p for p in graph.predecessors(node) if p in domtree.idom]
        if len(preds) < 2:
            continue
        idom = domtree.immediate_dominator(node)
        for pred in preds:
            runner = pred
            while runner != idom and runner in domtree.idom:
                frontiers[runner].add(node)
                if runner == domtree.entry:
                    break
                runner = domtree.idom[runner]
    return frontiers


def iterated_dominance_frontier(
    frontiers: Dict[Hashable, Set[Hashable]], defs: Set[Hashable]
) -> Set[Hashable]:
    """The iterated dominance frontier of a set of defining blocks.

    This is the classic phi-placement worklist: the result is the set
    of join points needing a phi for a variable defined in *defs*.
    """
    result: Set[Hashable] = set()
    work = list(defs)
    seen = set(defs)
    while work:
        block = work.pop()
        for frontier_block in frontiers.get(block, ()):
            if frontier_block not in result:
                result.add(frontier_block)
                if frontier_block not in seen:
                    seen.add(frontier_block)
                    work.append(frontier_block)
    return result
