"""FSAMResult query-API tests."""

from repro.fsam import analyze_source
from repro.ir.values import Function


SRC = """
int x; int y;
int *p;
int *q;
int main() {
    p = &x;
    q = p;
    return 0;
}
"""


class TestResultQueries:
    def test_pts_names(self):
        r = analyze_source(SRC)
        assert r.global_pts_names("p") == {"x"}
        assert r.global_pts_names("q") == {"x"}

    def test_pts_of_function_value(self):
        r = analyze_source("""
        void f() { }
        int *fp;
        int main() { fp = f; return 0; }
        """)
        fn = r.module.functions["f"]
        assert r.pts(fn) == {fn.mem_object}
        assert r.pts_names(fn) == {"fn:f"}

    def test_pts_of_constant_empty(self):
        from repro.ir.values import Constant
        from repro.ir.types import INT
        r = analyze_source(SRC)
        assert r.pts(Constant(0, INT)) == set()

    def test_load_pts_at_line_vs_deref(self):
        r = analyze_source(SRC)
        # line 7 'q = p;' loads global p: the plain query sees it, the
        # deref-only query does not (it is an implicit variable read).
        assert "x" in r.load_pts_names_at_line(7)
        assert r.deref_pts_names_at_line(7) == set()

    def test_store_out_at_line(self):
        src = """
int x; int A;
int *p;
int main() {
    p = &A;
    *p = &x;
    return 0;
}
"""
        r = analyze_source(src)
        A = r.module.globals["A"]
        out = r.store_out_at_line(6, A)
        assert {o.name for o in out} == {"x"}

    def test_missing_line_queries_empty(self):
        r = analyze_source(SRC)
        assert r.load_pts_at_line(999) == set()
        assert r.deref_pts_at_line(999) == set()

    def test_stats_keys_complete(self):
        r = analyze_source(SRC)
        stats = r.stats()
        assert {"phase_times", "points_to_entries", "dug_nodes",
                "dug_mem_edges", "thread_aware_edges", "threads",
                "solver_iterations"} <= set(stats)
        assert stats["threads"] == 1
        assert stats["thread_aware_edges"] == 0

    def test_vf_stats_surface(self):
        # The value-flow tallies surface as valueflow.* counters.
        counters = analyze_source(SRC).stats()["counters"]
        assert counters["valueflow.mhp_pairs"] == 0
        assert counters["valueflow.edges_added"] == 0
