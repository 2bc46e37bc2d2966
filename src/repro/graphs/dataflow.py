"""A generic forward worklist data-flow framework.

FSAM's interleaving analysis is formulated as a forward data-flow
problem (V, meet, F) over ICFGs (paper Section 3.3.1). This engine
solves it, and the thread model's must-join analysis, over each
thread's state graph, so that fixpoint machinery is shared and
separately tested. (The NONSPARSE baseline runs its own per-point
worklist.)
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Generic, Hashable, Iterable, Optional, TypeVar

from repro.graphs.digraph import DiGraph

Fact = TypeVar("Fact")


class DataflowProblem(Generic[Fact]):
    """A forward data-flow problem over a directed graph.

    Subclasses (or instances configured with callables) provide the
    lattice operations; the engine iterates to a fixpoint.
    """

    def __init__(
        self,
        graph: DiGraph,
        entry_fact: Callable[[Hashable], Fact],
        bottom: Callable[[], Fact],
        transfer: Callable[[Hashable, Fact], Fact],
        meet: Callable[[Fact, Fact], Fact],
        equal: Callable[[Fact, Fact], bool],
    ) -> None:
        self.graph = graph
        self.entry_fact = entry_fact
        self.bottom = bottom
        self.transfer = transfer
        self.meet = meet
        self.equal = equal


def solve_forward(
    problem: DataflowProblem[Fact], entries: Iterable[Hashable],
    stats: Optional[Dict[str, int]] = None
) -> Dict[Hashable, Fact]:
    """Solve *problem* to a fixpoint; returns the OUT fact per node.

    ``entries`` seeds the worklist. An entry node's IN fact starts
    from its ``entry_fact`` and — like every other node — still meets
    in its predecessors' OUT facts: a back-edge into an entry (e.g. a
    state-graph loop returning to a thread's entry state) must
    contribute, or facts generated inside the loop would be silently
    dropped on re-entry, under-approximating the solution. Non-entry
    nodes start from ``bottom`` (the meet identity) until predecessor
    OUTs exist.

    When *stats* is given, the number of node evaluations is added to
    its ``"iterations"`` entry (observability hook; this module stays
    free of any :mod:`repro.obs` dependency).
    """
    graph = problem.graph
    out: Dict[Hashable, Fact] = {}
    entry_set = set(entries)
    work = deque(entry_set)
    queued = set(entry_set)
    iterations = 0
    while work:
        iterations += 1
        node = work.popleft()
        queued.discard(node)
        # Entry nodes seed from entry_fact instead of bottom; the
        # predecessor meet below applies to entries too.
        if node in entry_set:
            in_fact = problem.entry_fact(node)
        else:
            in_fact = problem.bottom()
        for pred in graph.predecessors(node):
            if pred in out:
                in_fact = problem.meet(in_fact, out[pred])
        new_out = problem.transfer(node, in_fact)
        if node in out and problem.equal(out[node], new_out):
            continue
        out[node] = new_out
        for succ in graph.successors(node):
            if succ not in queued:
                queued.add(succ)
                work.append(succ)
    if stats is not None:
        stats["iterations"] = stats.get("iterations", 0) + iterations
    return out
