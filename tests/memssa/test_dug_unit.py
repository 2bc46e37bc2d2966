"""DUG container unit tests."""

from repro.ir.instructions import Copy
from repro.ir.types import INT
from repro.ir.values import Constant, MemObject, ObjectKind, Temp
from repro.memssa.dug import DUG, MemPhiNode, StmtNode


def obj(name):
    return MemObject(name, INT, ObjectKind.GLOBAL)


def node():
    t = Temp("t", INT)
    return StmtNode(Copy(t, Constant(0, INT)))


def added(dug, count):
    """*count* fresh statement nodes, added to *dug* (edges need
    nodes that belong to the graph: their uids are its positions)."""
    return [dug.add_node(node()) for _ in range(count)]


class TestDUGContainer:
    def test_edge_dedup(self):
        dug = DUG()
        a, b = added(dug, 2)
        o = obj("o")
        assert dug.add_mem_edge(a, o, b)
        assert not dug.add_mem_edge(a, o, b)
        assert dug.num_mem_edges() == 1

    def test_same_nodes_different_objects(self):
        dug = DUG()
        a, b = added(dug, 2)
        o1, o2 = obj("o1"), obj("o2")
        assert dug.add_mem_edge(a, o1, b)
        assert dug.add_mem_edge(a, o2, b)
        assert dug.num_mem_edges() == 2
        assert dug.mem_defs_of(b, o1) == [a]
        assert dug.mem_defs_of(b, o2) == [a]

    def test_thread_edges_tracked_separately(self):
        dug = DUG()
        a, b, c = added(dug, 3)
        o = obj("o")
        dug.add_mem_edge(a, o, b)
        dug.add_mem_edge(a, o, c, thread_aware=True)
        assert len(dug.thread_edges) == 1
        assert dug.is_thread_edge(a, o, c)
        assert not dug.is_thread_edge(a, o, b)
        assert dug.thread_in_edges(c) == [(o, a)]
        assert dug.thread_in_edges(b) == []

    def test_stmt_node_lookup(self):
        dug = DUG()
        n = node()
        dug.add_node(n)
        assert dug.has_stmt(n.instr)
        assert dug.stmt_node(n.instr) is n

    def test_top_users_and_copies(self):
        dug = DUG()
        t1 = Temp("a", INT)
        t2 = Temp("b", INT)
        n, = added(dug, 1)
        dug.add_top_user(t1, n)
        assert dug.top_users(t1) == [n]
        assert dug.top_users(t2) == []
        dug.add_top_copy(t1, t2)
        assert dug.copies_from(t1) == [(t1, t2)]
        assert dug.copies_from(t2) == []

    def test_node_identity_semantics(self):
        a, b = node(), node()
        assert a != b
        assert a == a
        assert len({a, b, a}) == 2

    def test_memphi_repr(self):
        from repro.ir.module import BasicBlock
        block = BasicBlock("bb")
        phi = MemPhiNode(block, obj("o"))
        assert "memphi" in repr(phi) and "bb" in repr(phi)
