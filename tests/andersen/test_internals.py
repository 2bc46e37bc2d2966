"""Andersen solver internals: cycles, watchers, field chains."""

from repro.andersen import AndersenSolver, run_andersen
from repro.frontend import compile_source
from repro.ir import Call


def analyze(src):
    m = compile_source(src)
    return m, run_andersen(m)


def names(objs):
    return sorted(o.name for o in objs)


class TestCycleCollapsing:
    def test_pointer_cycle_through_memory(self):
        # p -> *pp -> p: a load/store cycle must converge.
        m, a = analyze("""
int x;
int *p; int **pp;
int main() {
    p = &x;
    pp = &p;
    *pp = *pp;
    p = *pp;
    return 0;
}
""")
        assert names(a.pts(m.globals["p"])) == ["x"]

    def test_large_copy_chain_converges(self):
        decls = "\n".join(f"int *v{i};" for i in range(50))
        copies = "\n".join(f"v{i + 1} = v{i};" for i in range(49))
        m, a = analyze(f"""
int x;
{decls}
int main() {{
    v0 = &x;
    {copies}
    v0 = v49;
    return 0;
}}
""")
        for i in range(50):
            assert names(a.pts(m.globals[f"v{i}"])) == ["x"]

    def test_copy_edges_name_live_nodes_after_solve(self):
        # A copy cycle v0 -> v1 -> v2 -> v3 -> v0 collapses, while u
        # flows into the middle of it and v4, v5 read out of it: every
        # copy-edge set left on a live node names other live nodes.
        decls = "\n".join(f"int *v{i};" for i in range(6))
        m = compile_source(f"""
int x; int y;
int *u;
{decls}
int main() {{
    u = &y;
    v0 = &x;
    v1 = v0; v2 = v1; v3 = v2; v0 = v3;
    v2 = u;
    v4 = v2; v5 = v4;
    return 0;
}}
""")
        solver = AndersenSolver(m)
        solver.generate()
        solver.solve()
        assert solver.scc_collapsed_nodes > 0
        live = set(solver._live_nodes())
        for node in live:
            for succ in solver._succ[node]:
                assert succ in live and succ != node, (node, succ)
        assert names(solver.pts_of(m.globals["v5"])) == ["x", "y"]

    def test_solver_idempotent(self):
        m = compile_source("""
int x; int *p; int *q;
int main() { p = &x; q = p; return 0; }
""")
        solver = AndersenSolver(m)
        solver.generate()
        solver.solve()
        first = {id(v): set(solver.pts_of(v)) for v in m.globals.values()}
        solver.solve()  # re-solving must change nothing
        for v in m.globals.values():
            assert solver.pts_of(v) == first[id(v)]


class TestCallWatchers:
    def test_indirect_callee_found_late(self):
        # The function pointer is populated through two hops of memory,
        # so the callsite's watcher fires only after propagation.
        m, a = analyze("""
int g;
void target(int *p) { *p = 1; }
int *slot;
int **cell;
int main() {
    int *fp;
    cell = &slot;
    *cell = target;
    fp = *cell;
    fp(&g);
    return 0;
}
""")
        calls = [i for i in m.all_instructions()
                 if isinstance(i, Call) and i.args]
        resolved = set()
        for c in calls:
            resolved |= {f.name for f in a.callgraph.callees(c)}
        assert "target" in resolved

    def test_fork_routine_via_pointer(self):
        m, a = analyze("""
int g;
int *routine_slot;
void *w(void *arg) { g = 1; return null; }
int main() {
    thread_t t;
    int *r;
    routine_slot = w;
    r = routine_slot;
    fork(&t, r, null);
    join(t);
    return 0;
}
""")
        from repro.ir import Fork
        fork = next(i for i in m.all_instructions() if isinstance(i, Fork))
        assert {f.name for f in a.callgraph.callees(fork)} == {"w"}


class TestContentSets:
    def test_object_content_queries(self):
        m, a = analyze("""
int x; int y;
int *p;
int **pp;
int main() {
    p = &x;
    pp = &p;
    *pp = &y;
    return 0;
}
""")
        p_obj = m.globals["p"]
        assert set(names(a.pts(p_obj))) >= {"y"}

    def test_unknown_value_empty(self):
        m, a = analyze("int main() { return 0; }")
        from repro.ir.values import Temp
        from repro.ir.types import INT
        ghost = Temp("ghost", INT)
        assert a.pts(ghost) == set()
