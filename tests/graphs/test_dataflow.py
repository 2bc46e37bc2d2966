"""Dense forward gen/kill data-flow solver tests."""

from repro.graphs import DenseGraph, forward_facts


def build(edges):
    count = 1 + max(max(edge) for edge in edges)
    return DenseGraph(count, [a for a, _b in edges], [b for _a, b in edges])


def reaching_labels(graph, entry, gen):
    """A tiny may-analysis: which labels reach each node."""
    facts, _iterations = forward_facts(graph, {entry: frozenset()}, gen, {})
    return facts


class TestDenseGraph:
    def test_successors_and_predecessors_in_insertion_order(self):
        g = DenseGraph(4, [0, 2, 0, 1], [3, 3, 1, 3], [1, 0, 2, 0])
        assert list(g.successors(0)) == [3, 1]
        assert list(g.predecessors(3)) == [0, 2, 1]
        assert list(g.successors(3)) == []
        assert len(g) == 4
        assert sorted(g.edges()) == [(0, 1, 2), (0, 3, 1), (1, 3, 0),
                                     (2, 3, 0)]


class TestMayAnalysis:
    def test_linear_accumulation(self):
        g = build([(1, 2), (2, 3)])
        out = reaching_labels(g, 1, {1: frozenset("a"), 2: frozenset("b")})
        assert out[3] == {"a", "b"}

    def test_branch_union_at_join(self):
        g = build([(1, 2), (1, 3), (2, 4), (3, 4)])
        out = reaching_labels(g, 1, {2: frozenset("x"), 3: frozenset("y")})
        assert out[4] == {"x", "y"}

    def test_loop_reaches_fixpoint(self):
        g = build([(1, 2), (2, 3), (3, 2), (2, 4)])
        out = reaching_labels(g, 1, {3: frozenset("l")})
        assert "l" in out[2]
        assert "l" in out[4]

    def test_unreachable_nodes_not_solved(self):
        g = build([(1, 2), (8, 9)])
        out = reaching_labels(g, 1, {})
        assert out[9] is None and out[8] is None
        assert out[2] == frozenset()

    def test_kill_after_gen(self):
        g = build([(1, 2), (2, 3)])
        facts, _ = forward_facts(g, {1: frozenset("ab")},
                                 {2: frozenset("c")}, {2: frozenset("ac")})
        assert facts[2] == {"b"}
        assert facts[3] == {"b"}


class TestMustAnalysis:
    def test_intersection_at_join(self):
        g = build([(1, 2), (1, 3), (2, 4), (3, 4)])
        gen = {2: frozenset("ab"), 3: frozenset("b")}
        out, _ = forward_facts(g, {1: frozenset()}, gen, {}, union=False)
        assert out[4] == {"b"}  # only b holds on every path

    def test_must_through_loop(self):
        # A label generated before the loop must still hold after it.
        g = build([(1, 2), (2, 3), (3, 2), (2, 4)])
        gen = {1: frozenset("a")}
        out, _ = forward_facts(g, {1: frozenset()}, gen, {}, union=False)
        assert "a" in out[4]
        assert "b" not in out[4]


class TestEntryBackEdge:
    """A seed node's IN fact must meet predecessor OUTs too.

    A back-edge into the entry (e.g. a state-graph loop returning to a
    thread's entry state) contributes facts generated inside the loop;
    a solver that seeded entries from their seed alone would drop
    them on re-entry and under-approximate the fixpoint.
    """

    def test_back_edge_into_entry_contributes(self):
        # 1 -> 2 -> 1: the label generated at 2 must flow back into 1.
        g = build([(1, 2), (2, 1)])
        out = reaching_labels(g, 1, {2: frozenset("x")})
        assert out[1] == {"x"}

    def test_entry_fact_and_loop_facts_both_survive(self):
        g = build([(1, 2), (2, 3), (3, 1), (2, 4)])
        out, _ = forward_facts(g, {1: frozenset("e")},
                               {3: frozenset({"g3"})}, {})
        # The seed reaches everywhere; the loop-generated label flows
        # back through the entry and out of the exit.
        assert out[1] == {"e", "g3"}
        assert out[4] == {"e", "g3"}

    def test_self_loop_on_entry(self):
        g = build([(1, 1), (1, 2)])
        out = reaching_labels(g, 1, {1: frozenset("s")})
        assert out[1] == {"s"}
        assert out[2] == {"s"}

    def test_two_entries_with_cross_edges(self):
        g = build([(1, 3), (2, 3), (3, 1), (3, 2)])
        out, _ = forward_facts(g, {1: frozenset(), 2: frozenset()},
                               {1: frozenset("a"), 2: frozenset("b")}, {})
        assert out[1] == {"a", "b"}
        assert out[2] == {"a", "b"}


class TestSharedFacts:
    def test_unchanged_facts_are_one_object(self):
        # Nothing is added or removed past the seed, so every node
        # holds the seed object itself.
        g = build([(0, 1), (1, 2), (2, 3), (3, 1)])
        seed = frozenset({7})
        out, _ = forward_facts(g, {0: seed}, {}, {})
        assert all(fact is seed for fact in out)

    def test_meet_keeps_the_covering_operand(self):
        g = build([(0, 1), (0, 2), (1, 3), (2, 3)])
        out, _ = forward_facts(g, {0: frozenset({1})},
                               {1: frozenset({2})}, {})
        assert out[3] is out[1]


class TestIterationStats:
    def test_stats_counts_node_evaluations(self):
        g = build([(1, 2), (2, 3)])
        _facts, iterations = forward_facts(
            g, {1: frozenset()}, {n: frozenset("x") for n in (1, 2, 3)}, {})
        assert iterations == 3

    def test_stats_accumulates_across_calls(self):
        # Each solve counts its own evaluations, so a caller summing
        # them over several graphs (one per thread) gets the total.
        total = 0
        for edges in ([(1, 2)], [(1, 2), (2, 3)]):
            _facts, iterations = forward_facts(build(edges), {1: frozenset()},
                                               {}, {})
            total += iterations
        assert total == 2 + 3

    def test_stats_optional(self):
        g = build([(1, 2)])
        out = reaching_labels(g, 1, {1: frozenset("x")})
        assert out[2] == {"x"}
