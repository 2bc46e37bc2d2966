"""Strongly connected components.

One iterative Tarjan over a dense integer graph (:func:`dense_sccs`),
iterative so that the deep constraint graphs produced by Andersen's
analysis do not blow the CPython recursion limit. Its users are the
pre-analysis's wave propagation (cycle collapsing and the wave order
come from one pass), the sparse solver's topological worklist
(:func:`topo_ranks`), and, through :func:`tarjan_scc`, call-graph
recursion (paper Section 3.1), mod-ref summaries, lowering's recursion
scan and the lock-order cycles of the deadlock client.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

from repro.graphs.digraph import DiGraph


def dense_sccs(successors: Sequence[Sequence[int]]) -> Tuple[List[int], int]:
    """Strongly connected components of a dense integer graph.

    Nodes are ``0..len(successors)-1`` and ``successors[i]`` lists
    node *i*'s successors. Roots are tried in ascending order and each
    successor list in its own order, so the result is a function of the
    lists alone. Returns ``(scc_of, scc_count)``: ``scc_of[i]`` is the
    position of node *i*'s SCC in the order Tarjan's algorithm emits
    them, which is reverse topological (sinks first).
    """
    n = len(successors)
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: List[int] = []
    scc_of = [0] * n
    counter = 0
    scc_count = 0
    for root in range(n):
        if index[root] != -1:
            continue
        # Work entries are (node, position in its successor list).
        work = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        while work:
            node, ci = work[-1]
            succs = successors[node]
            advanced = False
            while ci < len(succs):
                succ = succs[ci]
                ci += 1
                if index[succ] == -1:
                    work[-1] = (node, ci)
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = 1
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack[succ] and index[succ] < low[node]:
                    low[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = 0
                    scc_of[member] = scc_count
                    if member == node:
                        break
                scc_count += 1
    return scc_of, scc_count


def topo_ranks(successors: Sequence[Sequence[int]]) -> Tuple[List[int], int]:
    """SCC-condensed topological ranks of a dense integer graph.

    Returns ``(rank, scc_count)`` with ``rank[i]`` the topological
    position of node *i*'s SCC in the condensation DAG: sources get the
    smallest ranks, so processing nodes in ascending rank order
    propagates facts downstream before any revisit. Nodes in one SCC
    share a rank. Tarjan emits SCCs in reverse topological order, so
    rank = (count - 1 - emission index).
    """
    scc_of, scc_count = dense_sccs(successors)
    top = scc_count - 1
    return [top - emitted for emitted in scc_of], scc_count


def tarjan_scc(graph: DiGraph) -> List[List[Hashable]]:
    """Strongly connected components of *graph*.

    Returns SCCs in reverse topological order (callees before callers),
    which is the order Tarjan's algorithm emits them in; each lists its
    members in the graph's insertion order.
    """
    nodes = list(graph.nodes())
    slot = {node: i for i, node in enumerate(nodes)}
    scc_of, scc_count = dense_sccs(
        [[slot[succ] for succ in graph.successors(node)] for node in nodes])
    sccs: List[List[Hashable]] = [[] for _ in range(scc_count)]
    for node, emitted in zip(nodes, scc_of):
        sccs[emitted].append(node)
    return sccs
