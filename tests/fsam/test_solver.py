"""Sparse solver unit tests (paper Figure 10 rules)."""

from repro.fsam import FSAMConfig, analyze_source


class TestTopLevelRules:
    def test_p_addr(self):
        r = analyze_source("int x; int *p; int main() { p = &x; return 0; }")
        assert r.global_pts_names("p") == {"x"}

    def test_p_copy_and_phi(self):
        r = analyze_source("""
int x; int y;
int *p;
int main() {
    int *a; int *b;
    if (x < 1) { a = &x; } else { a = &y; }
    b = a;
    p = b;
    return 0;
}
""")
        assert r.global_pts_names("p") == {"x", "y"}

    def test_p_load_flow_sensitive(self):
        # Flow-sensitivity: the load between the two stores sees only
        # the first store's value.
        r = analyze_source("""
int x; int y; int A;
int *p; int *mid; int *last;
int main() {
    p = &A;
    *p = &x;
    mid = *p;
    *p = &y;
    last = *p;
    return 0;
}
""")
        assert r.deref_pts_names_at_line(7) == {"x"}
        assert r.deref_pts_names_at_line(9) == {"y"}

    def test_p_store_weak_on_non_singleton(self):
        # Heap objects never take strong updates.
        r = analyze_source("""
int x; int y;
int **h;
int *out;
int main() {
    h = malloc(sizeof(int));
    *h = &x;
    *h = &y;
    out = *h;
    return 0;
}
""")
        assert r.deref_pts_names_at_line(9) == {"x", "y"}

    def test_p_store_weak_on_multi_target(self):
        r = analyze_source("""
int x; int y; int A; int B;
int *p; int *out;
int main() {
    if (x < 1) { p = &A; } else { p = &B; }
    *p = &x;
    *p = &y;
    out = *p;
    return 0;
}
""")
        # p may point to A or B: the second store cannot kill the first.
        assert r.deref_pts_names_at_line(8) == {"x", "y"}

    def test_strong_update_on_singleton(self):
        r = analyze_source("""
int x; int y; int A;
int *p; int *out;
int main() {
    p = &A;
    *p = &x;
    *p = &y;
    out = *p;
    return 0;
}
""")
        assert r.deref_pts_names_at_line(8) == {"y"}

    def test_gep_field_flow(self):
        r = analyze_source("""
struct s { int *a; int *b; };
int x; int y;
struct s g;
int *out_a; int *out_b;
int main() {
    g.a = &x;
    g.b = &y;
    out_a = g.a;
    out_b = g.b;
    return 0;
}
""")
        assert r.global_pts_names("out_a") == {"x"}
        assert r.global_pts_names("out_b") == {"y"}


class TestInterprocedural:
    def test_param_and_return_flow(self):
        r = analyze_source("""
int x;
int *identity(int *p) { return p; }
int *out;
int main() { out = identity(&x); return 0; }
""")
        assert r.global_pts_names("out") == {"x"}

    def test_callee_side_effects_visible(self):
        r = analyze_source("""
int x; int A;
int *p; int *out;
void write_it() { *p = &x; }
int main() {
    p = &A;
    write_it();
    out = *p;
    return 0;
}
""")
        assert r.global_pts_names("out") == {"x"}

    def test_callee_strong_update_kills(self):
        r = analyze_source("""
int x; int y; int A;
int *p; int *out;
void overwrite() { *p = &y; }
int main() {
    p = &A;
    *p = &x;
    overwrite();
    out = *p;
    return 0;
}
""")
        assert r.global_pts_names("out") == {"y"}

    def test_conditionally_writing_callee_merges(self):
        r = analyze_source("""
int x; int y; int A; int cond;
int *p; int *out;
void maybe_overwrite() { if (cond) { *p = &y; } }
int main() {
    p = &A;
    *p = &x;
    maybe_overwrite();
    out = *p;
    return 0;
}
""")
        assert r.global_pts_names("out") == {"x", "y"}

    def test_two_callers_merge_at_formal_in(self):
        r = analyze_source("""
int x; int y;
int *keep;
void sink(int *p) { keep = p; }
int main() { sink(&x); sink(&y); return 0; }
""")
        assert r.global_pts_names("keep") == {"x", "y"}

    def test_recursive_list_build(self):
        r = analyze_source("""
struct n { struct n *next; };
struct n *head;
struct n *mk(int d) {
    struct n *node;
    node = malloc(struct n);
    if (d > 0) { node->next = mk(d - 1); }
    return node;
}
int main() { head = mk(3); return 0; }
""")
        assert r.global_pts_names("head")  # the malloc object

    def test_null_store_kills_nothing_downstream(self):
        r = analyze_source("""
int x;
int *p; int *out;
int main() {
    int *q;
    q = null;
    *q = &x;
    p = &x;
    out = p;
    return 0;
}
""")
        assert r.global_pts_names("out") == {"x"}


class TestStats:
    def test_points_to_entries_positive(self):
        r = analyze_source("int x; int *p; int main() { p = &x; return 0; }")
        assert r.points_to_entries() > 0
        stats = r.stats()
        assert stats["dug_nodes"] > 0
        assert stats["threads"] == 1

    def test_phase_times_recorded(self):
        r = analyze_source("int main() { return 0; }")
        assert set(r.stats()["phase_times"]) >= {
            "pre_analysis", "thread_oblivious_dug", "interleaving",
            "sparse_solve"}
        assert r.total_time() > 0


class TestConfig:
    def test_ablated_copies(self):
        cfg = FSAMConfig()
        no_vf = cfg.ablated("value_flow")
        assert not no_vf.value_flow
        assert no_vf.interleaving and no_vf.lock_analysis
        assert cfg.value_flow  # original untouched

    def test_ablated_unknown_phase(self):
        import pytest
        with pytest.raises(ValueError):
            FSAMConfig().ablated("nonsense")

    def test_timeout_raises(self):
        import pytest
        from repro.fsam.config import AnalysisTimeout, Deadline
        d = Deadline(0.0)
        import time
        time.sleep(0.01)
        with pytest.raises(AnalysisTimeout):
            d.check()

    def test_no_deadline_never_raises(self):
        from repro.fsam.config import Deadline
        Deadline(None).check()
