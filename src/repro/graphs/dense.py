"""Dense int graphs, and the forward gen/kill solver that runs over them.

Nodes are the ints ``0 .. n-1``, numbered by whoever builds the graph.
A :class:`DenseGraph` freezes an edge list into compressed-sparse-row
tables: node ``n``'s successors are ``succ[succ_off[n]:succ_off[n + 1]]``,
in the order their edges were added, with each edge's kind at the same
index of ``succ_kind``; predecessors likewise, without kinds. The
tables are flat ``array('i')`` objects, so the graph holds no Python
object per node or edge for the cyclic GC to walk. The ICFG and the
thread state graphs are built this way.

:func:`forward_facts` solves a forward data-flow problem whose facts
are frozensets, whose meet is union or intersection, and whose
transfer at each node adds one set and then removes another. FSAM's
interleaving analysis (paper Section 3.3.1) and the thread model's
must-join analysis are such problems.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import accumulate
from typing import (
    Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple,
)


def _rows(count: int, keys: Sequence[int], values: Sequence[int],
             kinds: Optional[Sequence[int]] = None):
    """``(offsets, row, row_kinds)``: *values* grouped by their *keys*
    (ints below *count*), stable in input order, so key ``k``'s values
    are ``row[offsets[k]:offsets[k + 1]]``. ``row_kinds`` carries
    *kinds* along, or is None."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    counts = [0] * (count + 1)
    for key in keys:
        counts[key + 1] += 1
    offsets = array("i", accumulate(counts))
    row = array("i", map(values.__getitem__, order))
    row_kinds = None if kinds is None \
        else array("b", map(kinds.__getitem__, order))
    return offsets, row, row_kinds


class DenseGraph:
    """A frozen graph over the int nodes ``0 .. count-1``.

    ``src``, ``dst`` and the optional ``kind`` list one edge per index.
    The caller adds each edge once; parallel edges are kept as given.
    """

    __slots__ = ("succ_off", "succ", "succ_kind", "pred_off", "pred")

    def __init__(self, count: int, src: Sequence[int], dst: Sequence[int],
                 kind: Optional[Sequence[int]] = None) -> None:
        self.succ_off, self.succ, self.succ_kind = _rows(count, src, dst, kind)
        self.pred_off, self.pred, _ = _rows(count, dst, src)

    def __len__(self) -> int:
        return len(self.succ_off) - 1

    def successors(self, node: int) -> array:
        return self.succ[self.succ_off[node]:self.succ_off[node + 1]]

    def predecessors(self, node: int) -> array:
        return self.pred[self.pred_off[node]:self.pred_off[node + 1]]

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """All (src, dst, kind) triples, by source node; kind is 0
        when the graph was built without kinds."""
        off, succ, kinds = self.succ_off, self.succ, self.succ_kind
        for src in range(len(self)):
            for index in range(off[src], off[src + 1]):
                yield src, succ[index], 0 if kinds is None else kinds[index]


Fact = FrozenSet[int]


def forward_facts(graph: DenseGraph, seeds: Dict[int, Fact],
                  gen: Dict[int, Fact], kill: Dict[int, Fact],
                  union: bool = True) -> Tuple[List[Optional[Fact]], int]:
    """Solve a forward gen/kill problem over *graph* to its fixpoint.

    Returns the OUT fact of every node, indexed by node (None where
    no seed reaches), and the number of node evaluations.

    A seed node's IN fact is its seed met with its predecessors' OUT
    facts: a back-edge into a seed (a state-graph loop returning to a
    thread's entry) must contribute, or facts generated inside the
    loop would be dropped on re-entry. Any other node's IN fact is
    the meet of the OUT facts its predecessors have so far. Its OUT
    fact is ``(IN | gen[n]) - kill[n]``. The meet is union when
    *union* is true, else intersection.

    Facts are shared: where a meet or a transfer changes nothing, the
    node keeps the object it was handed, and an OUT fact equal to the
    old one keeps the old object. Most nodes of a state graph end up
    holding one of a few frozensets.
    """
    pred_off, pred = graph.pred_off, graph.pred
    succ_off, succ = graph.succ_off, graph.succ
    facts: List[Optional[Fact]] = [None] * len(graph)
    queued = bytearray(len(graph))
    work = deque(seeds)
    for node in seeds:
        queued[node] = 1
    iterations = 0
    while work:
        node = work.popleft()
        queued[node] = 0
        iterations += 1
        # A queued node is a seed or has a predecessor with a fact.
        fact = seeds.get(node)
        for source in pred[pred_off[node]:pred_off[node + 1]]:
            other = facts[source]
            if other is None or other is fact:
                continue
            if fact is None:
                fact = other
            elif union:
                if not other <= fact:
                    fact = other if fact <= other else fact | other
            elif not fact <= other:
                fact = other if other <= fact else fact & other
        added = gen.get(node)
        if added is not None and not added <= fact:
            fact = fact | added
        removed = kill.get(node)
        if removed is not None and not fact.isdisjoint(removed):
            fact = fact - removed
        old = facts[node]
        if old is not None and (old is fact or old == fact):
            continue
        facts[node] = fact
        for target in succ[succ_off[node]:succ_off[node + 1]]:
            if not queued[target]:
                queued[target] = 1
                work.append(target)
    return facts, iterations
