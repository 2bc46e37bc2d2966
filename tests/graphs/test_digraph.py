"""Unit tests for the directed-graph container."""

from repro.graphs import DiGraph


def build(edges):
    g = DiGraph()
    for a, b in edges:
        g.add_edge(a, b)
    return g


class TestBasics:
    def test_empty(self):
        g = DiGraph()
        assert len(g) == 0
        assert list(g.nodes()) == []
        assert list(g.edges()) == []

    def test_add_node_idempotent(self):
        g = DiGraph()
        g.add_node("a")
        g.add_node("a")
        assert len(g) == 1

    def test_add_edge_creates_nodes(self):
        g = build([(1, 2)])
        assert 1 in g and 2 in g
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)

    def test_parallel_edges_deduplicated(self):
        g = build([(1, 2), (1, 2)])
        assert list(g.edges()) == [(1, 2)]

    def test_successors_predecessors(self):
        g = build([(1, 2), (1, 3), (2, 3)])
        assert g.successors(1) == {2, 3}
        assert g.predecessors(3) == {1, 2}
        assert g.predecessors(1) == set()

    def test_edges_iteration(self):
        g = build([(1, 2), (2, 3)])
        assert set(g.edges()) == {(1, 2), (2, 3)}

    def test_self_loop(self):
        g = build([(1, 1)])
        assert g.has_edge(1, 1)
        assert 1 in g.successors(1)
        assert 1 in g.predecessors(1)


class TestReachability:
    def test_reachable_from_includes_start(self):
        g = build([(1, 2), (2, 3), (4, 5)])
        assert g.reachable_from(1) == {1, 2, 3}

    def test_reachable_from_missing_node(self):
        g = build([(1, 2)])
        assert g.reachable_from(99) == set()

    def test_reachable_through_cycle(self):
        g = build([(1, 2), (2, 1), (2, 3)])
        assert g.reachable_from(1) == {1, 2, 3}


class TestOrders:
    def test_postorder_linear(self):
        g = build([(1, 2), (2, 3)])
        assert g.postorder(1) == [3, 2, 1]

    def test_reverse_postorder_is_topological_on_dag(self):
        g = build([(1, 2), (1, 3), (2, 4), (3, 4)])
        order = g.reverse_postorder(1)
        pos = {n: i for i, n in enumerate(order)}
        for a, b in g.edges():
            assert pos[a] < pos[b]

    def test_postorder_handles_cycles(self):
        g = build([(1, 2), (2, 3), (3, 1)])
        order = g.postorder(1)
        assert sorted(order) == [1, 2, 3]
        assert order[-1] == 1  # the root finishes last
