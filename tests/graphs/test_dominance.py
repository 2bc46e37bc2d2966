"""Dominator tree and dominance frontier tests."""

from repro.graphs import DiGraph, DominatorTree, dominance_frontiers
from repro.graphs.dominance import iterated_dominance_frontier


def build(edges):
    g = DiGraph()
    for a, b in edges:
        g.add_edge(a, b)
    return g


def diamond():
    # 1 -> 2, 1 -> 3, 2 -> 4, 3 -> 4
    return build([(1, 2), (1, 3), (2, 4), (3, 4)])


class TestDominatorTree:
    def test_entry_has_no_idom(self):
        t = DominatorTree(diamond(), 1)
        assert t.immediate_dominator(1) is None

    def test_diamond_idoms(self):
        t = DominatorTree(diamond(), 1)
        assert t.immediate_dominator(2) == 1
        assert t.immediate_dominator(3) == 1
        assert t.immediate_dominator(4) == 1  # join dominated by fork point

    def test_linear_chain(self):
        t = DominatorTree(build([(1, 2), (2, 3)]), 1)
        assert t.immediate_dominator(3) == 2
        assert t.dominates(1, 3)
        assert t.dominates(2, 3)
        assert not t.dominates(3, 2)

    def test_dominates_reflexive(self):
        t = DominatorTree(diamond(), 1)
        assert t.dominates(2, 2)

    def test_loop_back_edge(self):
        # 1 -> 2 -> 3 -> 2, 3 -> 4
        t = DominatorTree(build([(1, 2), (2, 3), (3, 2), (3, 4)]), 1)
        assert t.immediate_dominator(2) == 1
        assert t.immediate_dominator(3) == 2
        assert t.immediate_dominator(4) == 3

    def test_unreachable_nodes_excluded(self):
        g = build([(1, 2), (8, 9)])
        t = DominatorTree(g, 1)
        assert t.immediate_dominator(9) is None
        assert not t.dominates(1, 9)

    def test_children_partition(self):
        t = DominatorTree(diamond(), 1)
        assert sorted(t.children(1)) == [2, 3, 4]

    def test_irreducible_style_graph(self):
        # Two entries into a cycle: 1->2, 1->3, 2->3, 3->2, 2->4
        t = DominatorTree(build([(1, 2), (1, 3), (2, 3), (3, 2), (2, 4)]), 1)
        assert t.immediate_dominator(2) == 1
        assert t.immediate_dominator(3) == 1
        assert t.immediate_dominator(4) == 2


class TestFrontiers:
    def test_diamond_frontier(self):
        g = diamond()
        t = DominatorTree(g, 1)
        df = dominance_frontiers(g, t)
        assert df[2] == {4}
        assert df[3] == {4}
        assert df[1] == set()
        assert df[4] == set()

    def test_loop_frontier_contains_header(self):
        g = build([(1, 2), (2, 3), (3, 2), (3, 4)])
        t = DominatorTree(g, 1)
        df = dominance_frontiers(g, t)
        assert 2 in df[3]  # the back edge puts the header in 3's DF
        assert 2 in df[2]  # the header is in its own frontier

    def test_iterated_frontier_diamond(self):
        g = diamond()
        df = dominance_frontiers(g, DominatorTree(g, 1))
        assert iterated_dominance_frontier(df, {2}) == {4}
        assert iterated_dominance_frontier(df, {2, 3}) == {4}
        assert iterated_dominance_frontier(df, {1}) == set()

    def test_iterated_frontier_cascades(self):
        # Nested diamonds: phi at inner join forces phi at outer join.
        g = build([(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (1, 5)])
        df = dominance_frontiers(g, DominatorTree(g, 1))
        idf = iterated_dominance_frontier(df, {2})
        assert 4 in idf and 5 in idf
