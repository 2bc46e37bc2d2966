"""The DUG's compact storage: dense node ids, and memory edges stored
once as def lists keyed by (destination, object) and use lists keyed
by (source, object)."""

import pytest

from repro.andersen import run_andersen
from repro.frontend import compile_source
from repro.fsam import FSAM
from repro.ir import Load
from repro.memssa import build_dug
from repro.workloads import get_workload, workload_names

WORKLOADS = tuple(workload_names())

_RESULTS = {}


def result_of(name):
    """One whole-program run per workload at scale 1, thread-aware
    edges included."""
    if name not in _RESULTS:
        source = get_workload(name).source(1)
        _RESULTS[name] = FSAM(compile_source(source, name=name)).run()
    return _RESULTS[name]


def test_node_uids_are_positions():
    dug = result_of("raytrace").dug
    assert [n.uid for n in dug.nodes] == list(range(len(dug.nodes)))


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_edge_is_stored_at_both_ends(name):
    dug = result_of(name).dug
    out_edges = 0
    for node in dug.nodes:
        for obj, dst in dug.mem_out(node):
            assert any(src is node for src in dug.mem_defs_of(dst, obj))
            out_edges += 1
    in_edges = 0
    for node in dug.nodes:
        for obj, srcs in dug.mem_in(node).items():
            for src in srcs:
                assert any(dst is node for dst in dug.mem_uses_of(src, obj))
                in_edges += 1
    assert out_edges == in_edges == dug.num_mem_edges()


@pytest.mark.parametrize("name", WORKLOADS)
def test_duplicate_inserts_return_false(name):
    dug = result_of(name).dug
    edges = dug.num_mem_edges()
    threaded = len(dug.thread_edges)
    src, obj, dst = next((node, obj, dst) for node in dug.nodes
                         for obj, dst in dug.mem_out(node))
    assert not dug.add_mem_edge(src, obj, dst)
    assert not dug.add_mem_edge(src, obj, dst, thread_aware=True)
    for src, obj, dst in dug.thread_edges[:1]:
        assert not dug.add_mem_edge(src, obj, dst)
        assert not dug.add_mem_edge(src, obj, dst, thread_aware=True)
    assert dug.num_mem_edges() == edges
    assert len(dug.thread_edges) == threaded


def test_two_target_load_keeps_a_def_list_per_object():
    module = compile_source("""
    int x; int y;
    int *A; int *B;
    int **p;
    int *out;
    int main() {
        A = &x;
        B = &y;
        if (x < 1) { p = &A; } else { p = &B; }
        out = *p;
        return 0; }
    """)
    dug, builder = build_dug(module, run_andersen(module))
    A, B = module.globals["A"], module.globals["B"]
    load = next(i for i in module.functions["main"].instructions()
                if isinstance(i, Load)
                and {A, B} <= set(builder.mus.get(i.id, ())))
    node = dug.stmt_node(load)
    defs_a = dug.mem_defs_of(node, A)
    defs_b = dug.mem_defs_of(node, B)
    assert defs_a and defs_b and defs_a is not defs_b
    assert set(dug.mem_in(node)) == {A, B}
    assert set(dug.mem_labels(node)) == {A, B}
    for src in defs_a:
        assert any(dst is node for dst in dug.mem_uses_of(src, A))
    for src in defs_b:
        assert any(dst is node for dst in dug.mem_uses_of(src, B))


def test_a_node_joins_one_graph_once():
    from repro.ir.instructions import Copy
    from repro.ir.types import INT
    from repro.ir.values import Constant, Temp
    from repro.memssa.dug import DUG, StmtNode
    dug = DUG()
    node = dug.add_node(StmtNode(Copy(Temp("t", INT), Constant(0, INT))))
    assert node.uid == 0
    with pytest.raises(ValueError, match="already belongs"):
        dug.add_node(node)
    with pytest.raises(ValueError, match="already belongs"):
        DUG().add_node(node)


def test_a_pseudo_statement_carries_only_its_own_object():
    from repro.ir.module import BasicBlock
    from repro.ir.types import INT
    from repro.ir.values import MemObject, ObjectKind
    from repro.memssa.dug import DUG, MemPhiNode
    o1 = MemObject("o1", INT, ObjectKind.GLOBAL)
    o2 = MemObject("o2", INT, ObjectKind.GLOBAL)
    dug = DUG()
    block = BasicBlock("bb")
    a = dug.add_node(MemPhiNode(block, o1))
    b = dug.add_node(MemPhiNode(block, o1))
    assert dug.add_mem_edge(a, o1, b)
    assert list(dug.mem_labels(a)) == [o1]
    with pytest.raises(ValueError, match="carries only"):
        dug.add_mem_edge(a, o2, b)
