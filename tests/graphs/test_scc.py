"""Tarjan SCC and topological-rank tests."""

import random

import networkx as nx

from repro.graphs import DiGraph, tarjan_scc
from repro.graphs.scc import dense_sccs, topo_ranks


def build(edges, nodes=()):
    g = DiGraph()
    for n in nodes:
        g.add_node(n)
    for a, b in edges:
        g.add_edge(a, b)
    return g


def scc_sets(graph):
    return {frozenset(c) for c in tarjan_scc(graph)}


class TestTarjan:
    def test_empty_graph(self):
        assert tarjan_scc(DiGraph()) == []

    def test_singletons_on_dag(self):
        g = build([(1, 2), (2, 3)])
        assert scc_sets(g) == {frozenset({1}), frozenset({2}), frozenset({3})}

    def test_simple_cycle(self):
        g = build([(1, 2), (2, 3), (3, 1)])
        assert scc_sets(g) == {frozenset({1, 2, 3})}

    def test_two_cycles_bridged(self):
        g = build([(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)])
        assert scc_sets(g) == {frozenset({1, 2}), frozenset({3, 4})}

    def test_self_loop_is_its_own_scc(self):
        g = build([(1, 1), (1, 2)])
        assert scc_sets(g) == {frozenset({1}), frozenset({2})}

    def test_reverse_topological_emission(self):
        # Tarjan emits callees before callers.
        g = build([(1, 2), (2, 3)])
        sccs = tarjan_scc(g)
        order = [c[0] for c in sccs]
        assert order.index(3) < order.index(2) < order.index(1)

    def test_isolated_nodes(self):
        g = build([], nodes=["a", "b"])
        assert scc_sets(g) == {frozenset({"a"}), frozenset({"b"})}

    def test_large_chain_no_recursion_error(self):
        # The iterative implementation must survive deep graphs.
        n = 5000
        g = build([(i, i + 1) for i in range(n)])
        assert len(tarjan_scc(g)) == n + 1

    def test_members_in_insertion_order(self):
        g = build([("c", "a"), ("a", "b"), ("b", "c")])
        assert tarjan_scc(g) == [["c", "a", "b"]]

    def test_dense_emission_order(self):
        # 0 -> {1, 2} -> 3 with 1 <-> 2: sinks are emitted first.
        scc_of, count = dense_sccs([[1], [2, 3], [1], []])
        assert count == 3
        assert scc_of[3] < scc_of[1] == scc_of[2] < scc_of[0]

    def test_large_cycle(self):
        n = 2000
        edges = [(i, (i + 1) % n) for i in range(n)]
        g = build(edges)
        assert scc_sets(g) == {frozenset(range(n))}


def _ranks_are_topological(succ, rank):
    """Every cross-SCC edge goes from a smaller to a larger rank."""
    for node, succs in enumerate(succ):
        for s in succs:
            assert rank[node] <= rank[s]


class TestTopoRanks:
    def test_chain_ranks_ascend(self):
        succ = [[1], [2], [3], []]
        rank, count = topo_ranks(succ)
        assert rank == [0, 1, 2, 3]
        assert count == 4

    def test_cycle_shares_a_rank(self):
        succ = [[1], [2], [0, 3], []]
        rank, count = topo_ranks(succ)
        assert rank[0] == rank[1] == rank[2] < rank[3]
        assert count == 2

    def test_diamond(self):
        succ = [[1, 2], [3], [3], []]
        rank, count = topo_ranks(succ)
        assert rank[0] < rank[1] and rank[0] < rank[2]
        assert rank[1] < rank[3] and rank[2] < rank[3]
        assert count == 4

    def test_agrees_with_networkx(self):
        """The same SCC partition as networkx and topologically valid
        ranks, on random graphs with cycles."""
        rng = random.Random(7)
        for _trial in range(20):
            n = rng.randrange(1, 40)
            succ = [[] for _ in range(n)]
            for _ in range(rng.randrange(0, 3 * n)):
                succ[rng.randrange(n)].append(rng.randrange(n))
            rank, count = topo_ranks(succ)
            graph = nx.DiGraph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from((a, b) for a in range(n) for b in succ[a])
            theirs = list(nx.strongly_connected_components(graph))
            assert count == len(theirs)
            for component in theirs:
                assert len({rank[node] for node in component}) == 1
            _ranks_are_topological(succ, rank)

    def test_large_chain_no_recursion_error(self):
        n = 40000
        succ = [[i + 1] for i in range(n - 1)] + [[]]
        rank, count = topo_ranks(succ)
        assert count == n
        assert rank[0] == 0 and rank[-1] == n - 1
