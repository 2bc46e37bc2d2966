"""[THREAD-VF] value-flow analysis tests."""

from repro.andersen import run_andersen
from repro.frontend import compile_source
from repro.ir import Load, Store
from repro.memssa import build_dug
from repro.mt import (
    InterleavingAnalysis, LockAnalysis, ThreadModel, add_thread_aware_edges,
)
from repro.obs import Observer

COUNTERS = ("candidate_pairs", "mhp_pairs", "lock_filtered", "edges_added",
            "mhp_cache_hits")


def value_flow(dug, builder, mhp, **kwargs):
    """Run [THREAD-VF]; returns its ``valueflow.*`` counters by name."""
    obs = Observer(name="vf")
    add_thread_aware_edges(dug, builder, mhp, obs=obs, **kwargs)
    return {name: obs.counter(f"valueflow.{name}") for name in COUNTERS}


def setup(src, locks=False, alias_filtering=True):
    m = compile_source(src)
    a = run_andersen(m)
    dug, builder = build_dug(m, a)
    model = ThreadModel(m, a)
    mhp = InterleavingAnalysis(model)
    lock_analysis = LockAnalysis(model, a, dug, builder) if locks else None
    stats = value_flow(dug, builder, mhp, locks=lock_analysis,
                       alias_filtering=alias_filtering)
    return m, dug, builder, stats


# Many statements per interference region: four workers writing the
# same object plus main-side accesses, so the per-region batching has
# cross products to collapse.
BATCHY = """
int g; int A;
int *p;
thread_t tids[4];
void *w(void *a) { *p = &g; int *r; r = *p; *p = r; return null; }
int main() { int i;
    p = &A;
    for (i = 0; i < 4; i = i + 1) { fork(&tids[i], w, null); }
    *p = &g;
    int *q; q = *p;
    for (i = 0; i < 4; i = i + 1) { join(tids[i]); }
    return 0; }
"""


class TestRegionBatching:
    def _pieces(self, src, alias_filtering=True):
        m = compile_source(src)
        a = run_andersen(m)
        dug, builder = build_dug(m, a)
        mhp = InterleavingAnalysis(ThreadModel(m, a))
        stats = value_flow(dug, builder, mhp,
                           alias_filtering=alias_filtering)
        return mhp, stats

    def test_one_query_per_region_pair(self):
        mhp, stats = self._pieces(BATCHY)
        assert stats["candidate_pairs"] > 0
        # Every candidate pair is decided, but the oracle only sees
        # one representative per region pair: the rest are cache hits.
        assert stats["mhp_cache_hits"] > 0
        assert mhp.pair_queries + stats["mhp_cache_hits"] == \
            stats["candidate_pairs"]
        assert mhp.pair_queries < stats["candidate_pairs"]

    def test_batched_counters_match_per_pair_semantics(self):
        """The reported statistics must read as if each statement pair
        had been queried individually (candidates = refuted + MHP)."""
        for af in (True, False):
            mhp, stats = self._pieces(BATCHY, alias_filtering=af)
            assert 0 <= stats["mhp_pairs"] <= stats["candidate_pairs"]
            assert stats["edges_added"] <= stats["mhp_pairs"]
            assert stats["mhp_cache_hits"] <= stats["candidate_pairs"]


PARALLEL = """
int x_t; int A; int B;
int *p; int *q;
void *writer(void *arg) {
    *p = &x_t;      // store into A
    return null;
}
int main() {
    thread_t t;
    p = &A; q = &B;
    fork(&t, writer, null);
    q = *p;          // load of A (MHP with the store)
    *q = &x_t;       // store into B
    return 0;
}
"""


class TestThreadVF:
    def test_store_load_edge_added(self):
        m, dug, builder, stats = setup(PARALLEL)
        A = m.globals["A"]
        store = next(i for i in m.functions["writer"].instructions()
                     if isinstance(i, Store) and A in builder.chis.get(i.id, set()))
        load = next(i for i in m.functions["main"].instructions()
                    if isinstance(i, Load) and A in builder.mus.get(i.id, set()))
        assert dug.is_thread_edge(dug.stmt_node(store), A, dug.stmt_node(load))
        assert stats["edges_added"] >= 1

    def test_non_aliased_pair_gets_no_edge(self):
        # writer touches A; the store into B in main shares no object.
        m, dug, builder, stats = setup(PARALLEL)
        B = m.globals["B"]
        writer_store = next(i for i in m.functions["writer"].instructions()
                            if isinstance(i, Store))
        b_store = next(i for i in m.functions["main"].instructions()
                       if isinstance(i, Store) and B in builder.chis.get(i.id, set()))
        assert not dug.is_thread_edge(dug.stmt_node(writer_store), B,
                                      dug.stmt_node(b_store))

    def test_interfering_store_marked(self):
        m, dug, builder, stats = setup(PARALLEL)
        A = m.globals["A"]
        store = next(i for i in m.functions["writer"].instructions()
                     if isinstance(i, Store) and A in builder.chis.get(i.id, set()))
        assert dug.is_interfering(dug.stmt_node(store), A)

    def test_sequential_program_no_edges(self):
        m, dug, builder, stats = setup("""
        int x; int *p;
        int main() { p = &x; *p = 1; return 0; }
        """)
        assert stats["edges_added"] == 0
        assert stats["mhp_pairs"] == 0

    def test_serial_fork_join_no_edges_after(self):
        # The store in the routine and a load after the join never
        # happen in parallel: no THREAD-VF edge between them.
        m, dug, builder, stats = setup("""
        int x_t; int A;
        int *p; int *q;
        void *w(void *arg) { *p = &x_t; return null; }
        int main() { thread_t t;
            p = &A;
            fork(&t, w, null);
            join(t);
            q = *p;
            return 0; }
        """)
        A = m.globals["A"]
        store = next(i for i in m.functions["w"].instructions()
                     if isinstance(i, Store) and A in builder.chis.get(i.id, set()))
        load = next(i for i in m.functions["main"].instructions()
                    if isinstance(i, Load) and A in builder.mus.get(i.id, set()))
        assert not dug.is_thread_edge(dug.stmt_node(store), A, dug.stmt_node(load))

    def test_no_alias_filtering_blowup(self):
        m1, dug1, b1, stats1 = setup(PARALLEL, alias_filtering=True)
        m2, dug2, b2, stats2 = setup(PARALLEL, alias_filtering=False)
        assert stats2["edges_added"] >= stats1["edges_added"]

    def test_store_store_edges(self):
        m, dug, builder, stats = setup("""
        int x_t; int y_t; int A;
        int *p;
        void *w(void *arg) { *p = &x_t; return null; }
        int main() { thread_t t;
            p = &A;
            fork(&t, w, null);
            *p = &y_t;
            return 0; }
        """)
        A = m.globals["A"]
        w_store = next(i for i in m.functions["w"].instructions()
                       if isinstance(i, Store) and A in builder.chis.get(i.id, set()))
        m_store = next(i for i in m.functions["main"].instructions()
                       if isinstance(i, Store) and A in builder.chis.get(i.id, set()))
        assert dug.is_thread_edge(dug.stmt_node(w_store), A, dug.stmt_node(m_store))
        assert dug.is_thread_edge(dug.stmt_node(m_store), A, dug.stmt_node(w_store))
