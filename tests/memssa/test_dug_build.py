"""Memory-SSA / DUG construction tests (paper Figures 4 and 6)."""

import repro.memssa
from repro.andersen import run_andersen
from repro.frontend import compile_source
from repro.ir import Call, Load, Store, Fork, Join
from repro.memssa import build_dug
from repro.memssa.dug import (
    CallChiNode, FormalInNode, FormalOutNode, MemPhiNode, StmtNode,
)


def build(src):
    m = compile_source(src)
    a = run_andersen(m)
    dug, builder = build_dug(m, a)
    return m, a, dug, builder


def the(m, fn, kind, idx=0):
    return [i for i in m.functions[fn].instructions() if isinstance(i, kind)][idx]


def stores_on(m, builder, fn, obj):
    return [i for i in m.functions[fn].instructions()
            if isinstance(i, Store) and obj in builder.chis.get(i.id, set())]


class TestSequentialSparsity:
    def test_figure4_bypass(self):
        # s1: *p = q (defines a); s2: v = *w (touches only b);
        # s3: *x = y (defines a); s4: s = *r (reads a).
        # The def-use edge for a must run s1 -> s3 and s3 -> s4, with
        # s2 bypassed entirely.
        m, a, dug, builder = build("""
        int a_t; int b_t; int A; int B;
        int *p; int *w; int *x; int *r;
        int *q; int *y; int *v; int *s;
        int main() {
            p = &A; x = &A; r = &A; w = &B;
            *p = &a_t;
            v = *w;
            *x = &b_t;
            s = *r;
            return 0; }
        """)
        A = m.globals["A"]
        s1, s3 = stores_on(m, builder, "main", A)
        n1, n3 = dug.stmt_node(s1), dug.stmt_node(s3)
        # s1 defines A, reaching s3 (weak-use) ...
        assert n1 in dug.mem_defs_of(n3, A)
        # ... and the load of A reads s3's def, not s1's (strong update).
        loads = [i for i in m.functions["main"].instructions()
                 if isinstance(i, Load) and A in builder.mus.get(i.id, set())]
        target = dug.stmt_node(loads[-1])
        defs = dug.mem_defs_of(target, A)
        assert n3 in defs

    def test_loads_annotated_with_mu(self):
        m, a, dug, builder = build("""
        int x; int *p; int *out;
        int main() { p = &x; out = p; return 0; }
        """)
        # 'p' and 'out' are globals: their reads are loads with mu(p).
        loads = [i for i in m.functions["main"].instructions() if isinstance(i, Load)]
        assert any(builder.mus.get(l.id) for l in loads)

    def test_stores_annotated_with_chi(self):
        m, a, dug, builder = build("""
        int x; int *p;
        int main() { p = &x; return 0; }
        """)
        store = the(m, "main", Store, 0)
        assert {o.name for o in builder.chis[store.id]} == {"p"}

    def test_memphi_at_join(self):
        m, a, dug, builder = build("""
        int x; int y; int *p; int *out;
        int main() {
            if (x < 1) { p = &x; } else { p = &y; }
            out = p;
            return 0; }
        """)
        phis = [n for n in dug.nodes if isinstance(n, MemPhiNode)]
        assert any(n.obj.name == "p" for n in phis)

    def test_formal_in_out_nodes(self):
        m, a, dug, builder = build("""
        int g; int *gp;
        void w() { gp = &g; }
        int main() { w(); return 0; }
        """)
        fins = [n for n in dug.nodes if isinstance(n, FormalInNode) and n.fn.name == "w"]
        fouts = [n for n in dug.nodes if isinstance(n, FormalOutNode) and n.fn.name == "w"]
        assert any(n.obj.name == "gp" for n in fins)
        assert any(n.obj.name == "gp" for n in fouts)

    def test_callsite_mu_chi_nodes(self):
        # A callsite's mu is an annotation, not a node: the def of gp
        # reaching w() links straight to w's formal-in.
        m, a, dug, builder = build("""
        int g; int *gp; int *out;
        void w() { gp = &g; }
        int main() { gp = null; w(); out = gp; return 0; }
        """)
        gp = m.globals["gp"]
        call = the(m, "main", Call, 0)
        assert gp in builder.mus[call.id]
        assert not hasattr(repro.memssa, "CallMuNode")
        assert {type(n) for n in dug.nodes} <= {
            StmtNode, MemPhiNode, FormalInNode, FormalOutNode, CallChiNode}
        chis = [n for n in dug.nodes if isinstance(n, CallChiNode)]
        assert any(n.obj is gp for n in chis)
        (null_store,) = stores_on(m, builder, "main", gp)
        (fin,) = [n for n in dug.nodes if isinstance(n, FormalInNode)
                  and n.fn.name == "w" and n.obj is gp]
        assert list(dug.mem_defs_of(fin, gp)) == [dug.stmt_node(null_store)]

    def test_read_only_object_has_no_formal_out(self):
        # r reads gp and writes nothing, so gp is in REF(r) but not
        # MOD(r): r gets a formal-in for gp and no formal-out.
        m, a, dug, builder = build("""
        int g; int *gp; int *out;
        void r() { out = gp; }
        int main() { gp = &g; r(); return 0; }
        """)
        gp = m.globals["gp"]
        assert gp in builder.modref.ref[m.functions["r"]]
        assert gp not in builder.modref.mod[m.functions["r"]]
        assert any(isinstance(n, FormalInNode) and n.fn.name == "r"
                   and n.obj is gp for n in dug.nodes)
        assert not any(isinstance(n, FormalOutNode) and n.fn.name == "r"
                       and n.obj is gp for n in dug.nodes)


class TestThreadObliviousEdges:
    FIG6 = """
    int o_t; int O;
    int *p; int *q;
    void *foo(void *arg) {
        *q = &o_t;       // s4
        p = *q;          // s5 (use of O)
        return null;
    }
    int main() {
        thread_t t;
        p = &O; q = &O;
        *p = &o_t;       // s1
        fork(&t, foo, null);
        *p = &o_t;       // s2
        join(t);
        p = *p;          // s3 (use of O after join)
        return 0;
    }
    """

    def test_fork_bypass_edge(self):
        # Figure 6(c): s1's def of O reaches s2 directly, bypassing foo.
        m, a, dug, builder = build(self.FIG6)
        O = m.globals["O"]
        s1, s2 = stores_on(m, builder, "main", O)
        assert dug.stmt_node(s1) in dug.mem_defs_of(dug.stmt_node(s2), O)

    def test_join_related_edge(self):
        # Figure 6(d): foo's exit def of O is visible at the use after
        # the join, via the join chi fed by foo's formal-out.
        m, a, dug, builder = build(self.FIG6)
        join = the(m, "main", Join, 0)
        O = m.globals["O"]
        chi = builder.site_chis.get((join.id, O.id))
        assert chi is not None
        fouts = [n for n in dug.mem_defs_of(chi, O) if isinstance(n, FormalOutNode)]
        assert any(n.fn.name == "foo" for n in fouts)

    def test_fork_acts_as_callsite(self):
        # Step 1: value flows into the routine at the fork: the def of
        # O reaching the fork (s1) links to foo's formal-in.
        m, a, dug, builder = build(self.FIG6)
        fork = the(m, "main", Fork, 0)
        O = m.globals["O"]
        old = builder.site_old_def.get((fork.id, O.id))
        s1 = stores_on(m, builder, "main", O)[0]
        assert old is dug.stmt_node(s1)
        outs = dug.mem_uses_of(old, O)
        assert any(isinstance(n, FormalInNode) and n.fn.name == "foo" for n in outs)
