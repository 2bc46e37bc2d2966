"""ICFG construction tests."""

from repro.andersen import run_andersen
from repro.cfg import ICFG, EdgeKind, NodeKind
from repro.frontend import compile_source
from repro.ir import Call, Fork, Join


def build(src):
    m = compile_source(src)
    andersen = run_andersen(m)
    return m, ICFG(m, andersen.callgraph)


SRC = """
int g;
void callee(int *p) { *p = 1; }
void *worker(void *a) { g = 2; return null; }
int main() {
    thread_t t;
    callee(&g);
    fork(&t, worker, null);
    join(t);
    return g;
}
"""


class TestICFG:
    def test_entry_exit_per_function(self):
        m, icfg = build(SRC)
        for name in ("main", "callee", "worker"):
            fn = m.functions[name]
            assert icfg.kind[icfg.entry_of(fn)] == NodeKind.ENTRY
            assert icfg.kind[icfg.exit_of(fn)] == NodeKind.EXIT
            assert icfg.function[icfg.entry_of(fn)] is fn
            assert icfg.function[icfg.exit_of(fn)] is fn

    def test_call_split_into_call_and_retsite(self):
        m, icfg = build(SRC)
        call = next(i for i in m.functions["main"].instructions()
                    if isinstance(i, Call))
        cnode = icfg.node_of(call)
        rnode = icfg.retsite_of(call)
        assert icfg.kind[cnode] == NodeKind.CALL
        assert icfg.kind[rnode] == NodeKind.RETSITE
        # The return site shares its call's instruction.
        assert icfg.instr[cnode] is call and icfg.instr[rnode] is call
        # Fallthrough intra edge always present.
        assert rnode in icfg.successors(cnode)
        assert icfg.edge_kind(cnode, rnode) == EdgeKind.INTRA

    def test_call_and_ret_edges_to_callee(self):
        m, icfg = build(SRC)
        call = next(i for i in m.functions["main"].instructions()
                    if isinstance(i, Call))
        callee = m.functions["callee"]
        cnode = icfg.node_of(call)
        assert icfg.entry_of(callee) in icfg.successors(cnode)
        assert icfg.edge_kind(cnode, icfg.entry_of(callee)) == EdgeKind.CALL
        rnode = icfg.retsite_of(call)
        assert rnode in icfg.successors(icfg.exit_of(callee))
        assert icfg.edge_kind(icfg.exit_of(callee), rnode) == EdgeKind.RET
        # The edges are kept both ways.
        assert cnode in icfg.predecessors(icfg.entry_of(callee))
        assert icfg.exit_of(callee) in icfg.predecessors(rnode)

    def test_fork_has_no_interprocedural_edges(self):
        m, icfg = build(SRC)
        fork = next(i for i in m.functions["main"].instructions()
                    if isinstance(i, Fork))
        fnode = icfg.node_of(fork)
        worker = m.functions["worker"]
        # Paper Section 3.1: no outgoing edges for a fork site beyond
        # the intra fall-through.
        assert icfg.entry_of(worker) not in icfg.successors(fnode)
        assert all(icfg.edge_kind(fnode, s) == EdgeKind.INTRA
                   for s in icfg.successors(fnode))

    def test_join_is_plain_statement_node(self):
        m, icfg = build(SRC)
        join = next(i for i in m.functions["main"].instructions()
                    if isinstance(i, Join))
        jnode = icfg.node_of(join)
        assert icfg.kind[jnode] == NodeKind.STMT
        assert len(icfg.successors(jnode)) == 1

    def test_indirect_call_edges_added_after_resolution(self):
        src = """
        int g;
        void h(int *p) { *p = 1; }
        int main() { int *fp; fp = h; fp(&g); return 0; }
        """
        m = compile_source(src)
        andersen = run_andersen(m)
        icfg = ICFG(m, andersen.callgraph)
        # The call may have been direct-resolved by mem2reg; either way
        # the callee entry must be reachable from main's entry.
        entry = icfg.entry_of(m.functions["main"])
        reach = {entry}
        work = [entry]
        while work:
            for succ in icfg.successors(work.pop()):
                if succ not in reach:
                    reach.add(succ)
                    work.append(succ)
        assert icfg.entry_of(m.functions["h"]) in reach


class TestDenseNumbering:
    def test_nodes_numbered_in_construction_order(self):
        # Functions in module order; within one, its entry, its exit,
        # then each block's instructions, a return site right after
        # its call node.
        m, icfg = build(SRC)
        expected = []
        for fn in m.functions.values():
            if fn.is_declaration or not fn.blocks:
                continue
            expected += [(NodeKind.ENTRY, fn, None), (NodeKind.EXIT, fn, None)]
            for instr in fn.instructions():
                if isinstance(instr, Call):
                    expected += [(NodeKind.CALL, fn, instr),
                                 (NodeKind.RETSITE, fn, instr)]
                else:
                    expected.append((NodeKind.STMT, fn, instr))
        assert list(icfg.nodes()) == list(range(len(expected)))
        for node, (kind, fn, instr) in enumerate(expected):
            assert icfg.kind[node] == kind
            assert icfg.function[node] is fn
            assert icfg.instr[node] is instr
            if instr is not None and kind != NodeKind.RETSITE:
                assert icfg.node_of(instr) == node

    def test_add_call_edges_is_idempotent(self):
        m, icfg = build(SRC)
        edges = sorted(icfg.graph.edges())
        assert icfg.add_call_edges() == 0
        assert sorted(icfg.graph.edges()) == edges
