"""Static thread model tests (paper Section 3.1, Figure 8)."""

from repro.andersen import run_andersen
from repro.cfg.icfg import NodeKind
from repro.frontend import compile_source
from repro.ir import Call, Store
from repro.mt import ThreadModel


def model_of(src):
    m = compile_source(src)
    a = run_andersen(m)
    return m, ThreadModel(m, a)


def thread_by_routine(model, name):
    return [t for t in model.threads if not t.is_main and t.routine.name == name]


def state_keys_in(graph, fn_name):
    """The keys of *graph*'s states at nodes of function *fn_name*."""
    keys = set()
    for sid in range(len(graph)):
        key, node = graph.state(sid)
        if graph.icfg.function[node].name == fn_name:
            keys.add(key)
    return keys


FIG8 = """
int g1; int g2; int g3; int g4; int g5;
int *m1; int *m2; int *m3; int *m4; int *m5;
void bar_(void *arg) {
    m5 = &g5;                 // s5
    return null;
}
void foo1(void *arg) {
    thread_t t3;
    fork(&t3, bar_, null);    // fk3
    join(t3);                 // jn3
    return null;
}
void foo2(void *arg) {
    bar_(null);               // cs4
    m4 = &g4;                 // s4
    return null;
}
int main() {
    thread_t t1; thread_t t2;
    m1 = &g1;                 // s1
    fork(&t1, foo1, null);    // fk1
    m2 = &g2;                 // s2
    join(t1);                 // jn1
    fork(&t2, foo2, null);    // fk2
    m3 = &g3;                 // s3
    join(t2);                 // jn2
    return 0;
}
"""

SPAN_CALLS = """
int g; int *p;
mutex_t mu;
void helper() { p = &g; }
void locked_helper() { lock(&mu); p = &g; unlock(&mu); }
void *w(void *a) {
    helper();
    helper();
    lock(&mu);
    helper();
    unlock(&mu);
    return null;
}
int main() { thread_t t; fork(&t, w, null); join(t); return 0; }
"""


class TestEnumeration:
    def test_figure8_thread_set(self):
        m, model = model_of(FIG8)
        routines = sorted(t.routine.name for t in model.threads if not t.is_main)
        assert routines == ["bar_", "foo1", "foo2"]
        assert model.threads[0].is_main

    def test_spawn_tree(self):
        m, model = model_of(FIG8)
        t1 = thread_by_routine(model, "foo1")[0]
        t3 = thread_by_routine(model, "bar_")[0]
        assert t3.parent is t1
        assert t1.parent is model.threads[0]

    def test_none_multi_forked(self):
        m, model = model_of(FIG8)
        assert all(not t.multi_forked for t in model.threads)

    def test_descendants(self):
        m, model = model_of(FIG8)
        t0 = model.threads[0]
        assert len(t0.descendants()) == 3


class TestMultiFork:
    def test_fork_in_loop(self):
        m, model = model_of("""
        thread_t tids[4];
        void *w(void *a) { return null; }
        int main() { int i;
            for (i = 0; i < 4; i = i + 1) { fork(&tids[i], w, null); }
            return 0; }
        """)
        t = thread_by_routine(model, "w")[0]
        assert t.multi_forked

    def test_fork_in_recursion(self):
        m, model = model_of("""
        void *w(void *a) { return null; }
        void spawn(int n) { thread_t t;
            fork(&t, w, null);
            if (n > 0) { spawn(n - 1); }
        }
        int main() { spawn(2); return 0; }
        """)
        t = thread_by_routine(model, "w")[0]
        assert t.multi_forked

    def test_fork_via_helper_called_in_loop(self):
        m, model = model_of("""
        void *w(void *a) { return null; }
        void helper() { thread_t t; fork(&t, w, null); }
        int main() { int i;
            for (i = 0; i < 3; i = i + 1) { helper(); }
            return 0; }
        """)
        t = thread_by_routine(model, "w")[0]
        assert t.multi_forked

    def test_spawnee_of_multi_forked_is_multi(self):
        m, model = model_of("""
        void *leaf(void *a) { return null; }
        void *mid(void *a) { thread_t t; fork(&t, leaf, null); join(t); return null; }
        int main() { int i; thread_t tm;
            for (i = 0; i < 2; i = i + 1) { fork(&tm, mid, null); }
            return 0; }
        """)
        leaf = thread_by_routine(model, "leaf")[0]
        assert leaf.multi_forked

    def test_straightline_fork_not_multi(self):
        m, model = model_of("""
        void *w(void *a) { return null; }
        int main() { thread_t t; fork(&t, w, null); join(t); return 0; }
        """)
        t = thread_by_routine(model, "w")[0]
        assert not t.multi_forked


class TestJoinsAndHB:
    def test_definite_join(self):
        m, model = model_of(FIG8)
        from repro.ir import Join
        t0 = model.threads[0]
        joins = [i for i in m.functions["main"].instructions() if isinstance(i, Join)]
        t1 = thread_by_routine(model, "foo1")[0]
        t2 = thread_by_routine(model, "foo2")[0]
        assert model.definite_joins(t0, joins[0]) == {t1}
        assert model.definite_joins(t0, joins[1]) == {t2}

    def test_fully_joined_transitive(self):
        m, model = model_of(FIG8)
        t0 = model.threads[0]
        t1 = thread_by_routine(model, "foo1")[0]
        t3 = thread_by_routine(model, "bar_")[0]
        # foo1 fully joins bar_ by its exit.
        assert t3.id in model.fully_joined[t1.id]
        # main's jn1 joins t1 directly and t3 indirectly.
        assert {t1.id, t3.id} <= model.fully_joined[t0.id]

    def test_figure8_happens_before(self):
        m, model = model_of(FIG8)
        t1 = thread_by_routine(model, "foo1")[0]
        t2 = thread_by_routine(model, "foo2")[0]
        t3 = thread_by_routine(model, "bar_")[0]
        assert model.siblings(t1, t2)
        assert model.siblings(t3, t2)
        assert model.happens_before(t1, t2)   # t1 > t2
        assert model.happens_before(t3, t2)   # t3 > t2 (indirect join)
        assert not model.happens_before(t2, t1)
        assert not model.happens_before(t2, t3)

    def test_partial_join_no_hb(self):
        # t1 joined only on one path: no happens-before with t2.
        m, model = model_of("""
        int cond;
        void *w1(void *a) { return null; }
        void *w2(void *a) { return null; }
        int main() { thread_t t1; thread_t t2;
            fork(&t1, w1, null);
            if (cond) { join(t1); }
            fork(&t2, w2, null);
            join(t2);
            return 0; }
        """)
        t1 = thread_by_routine(model, "w1")[0]
        t2 = thread_by_routine(model, "w2")[0]
        assert not model.happens_before(t1, t2)

    def test_multi_forked_thread_not_definitely_joined(self):
        m, model = model_of("""
        thread_t tid;
        void *w(void *a) { return null; }
        int main() { int i;
            for (i = 0; i < 3; i = i + 1) { fork(&tid, w, null); }
            join(tid);
            return 0; }
        """)
        from repro.ir import Join
        t0 = model.threads[0]
        join = next(i for i in m.functions["main"].instructions() if isinstance(i, Join))
        # No symmetric loop here: the single join cannot kill the
        # multi-forked thread.
        assert model.definite_joins(t0, join) == set()
        assert model.symmetric_join_of(t0, join) is None


class TestStateGraphs:
    def test_states_cover_called_functions(self):
        m, model = model_of(FIG8)
        t2 = thread_by_routine(model, "foo2")[0]
        graph = model.state_graphs[t2.id]
        fns = {graph.icfg.function[graph.state(sid)[1]].name
               for sid in range(len(graph))}
        assert fns == {"foo2", "bar_"}

    def test_sync_free_callee_is_one_copy(self):
        # bar_ is t3's root (ctx []). In t2 it is a sync-free callee:
        # the call cs4 steps to its return site and enters one copy of
        # bar_, keyed by the (empty) set of lock spans open at cs4.
        m, model = model_of(FIG8)
        t3 = thread_by_routine(model, "bar_")[0]
        g3 = model.state_graphs[t3.id]
        keys3 = state_keys_in(g3, "bar_")
        assert keys3 == {()}  # thread root: empty context
        t2 = thread_by_routine(model, "foo2")[0]
        g2 = model.state_graphs[t2.id]
        keys2 = state_keys_in(g2, "bar_")
        assert keys2 == {frozenset()}
        call = next(i for i in m.functions["foo2"].instructions()
                    if isinstance(i, Call))
        [call_sid] = [sid for tid, sid in model.instances_of(call)
                      if tid == t2.id]
        kinds = {g2.icfg.kind[g2.state(sid)[1]]:
                 isinstance(g2.state(sid)[0], frozenset)
                 for sid in g2.graph.successors(call_sid)}
        assert kinds == {NodeKind.RETSITE: False, NodeKind.ENTRY: True}
        assert call_sid in g2.graph.predecessors(
            g2.graph.successors(call_sid)[0])

    def test_copies_keyed_by_open_spans(self):
        # Two unprotected calls share one copy of helper; the call
        # inside the lock span enters a second copy, whose states all
        # belong to that span.
        m, model = model_of(SPAN_CALLS)
        worker = thread_by_routine(model, "w")[0]
        graph = model.state_graphs[worker.id]
        calls = [i for i in m.functions["w"].instructions()
                 if isinstance(i, Call)]
        entries = []
        for call in calls:
            [sid] = [s for tid, s in model.instances_of(call)
                     if tid == worker.id]
            [entry] = [s for s in graph.graph.successors(sid)
                       if isinstance(graph.state(s)[0], frozenset)]
            entries.append(entry)
        assert entries[0] == entries[1] != entries[2]
        [(lock_sid, (_obj, members))] = graph.spans.items()
        assert graph.state(entries[2])[0] == frozenset({lock_sid})
        assert graph.state(entries[0])[0] == frozenset()
        copy_states = {sid for sid in range(len(graph))
                       if graph.state(sid)[0] == frozenset({lock_sid})}
        assert copy_states and copy_states <= members
        assert entries[0] not in members

    def test_sync_reaching_callee_is_expanded(self):
        # locked_helper locks internally: each call site gets its own
        # context, as in the paper's configuration.
        m, model = model_of(SPAN_CALLS.replace(
            "helper();", "locked_helper();"))
        worker = thread_by_routine(model, "w")[0]
        graph = model.state_graphs[worker.id]
        keys = state_keys_in(graph, "locked_helper")
        assert len(keys) == 3
        assert all(isinstance(key, tuple) and len(key) == 1 for key in keys)

    def test_non_returning_callee_cuts_its_return_site(self):
        # forever() never reaches its exit, so nothing after the call
        # runs: its call gets no call->return-site step.
        m, model = model_of("""
        int g; int *p;
        void forever() { forever(); }
        int main() { forever(); p = &g; return 0; }
        """)
        assert len(model.threads) == 1
        store = next(i for i in m.functions["main"].instructions()
                     if isinstance(i, Store))
        assert not model.instances_of(store)

    def test_recursive_calls_terminate(self):
        m, model = model_of("""
        int f(int n) { if (n < 1) { return 0; } return f(n - 1); }
        int main() { return f(5); }
        """)
        graph = model.state_graphs[model.threads[0].id]
        assert len(graph)  # finite in spite of recursion
