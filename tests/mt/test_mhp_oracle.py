"""MHP oracle contract tests: cache symmetry, precision ordering,
multi-forked self-parallelism, region keys, witness caching, and
observability counters."""

from repro.andersen import run_andersen
from repro.frontend import compile_source
from repro.ir import Load, Store
from repro.mt import CoarsePCGMhp, InterleavingAnalysis, ThreadModel
from repro.obs import Observer

from tests.mt.test_threads import FIG8


def setup(src):
    m = compile_source(src)
    a = run_andersen(m)
    model = ThreadModel(m, a)
    return m, model, InterleavingAnalysis(model)


def accesses(m):
    return [i for i in m.all_instructions() if isinstance(i, (Load, Store))]


MULTIFORK = """
int g; int *m1;
thread_t tids[4];
void *w(void *a) { m1 = &g; return null; }
int main() { int i;
    for (i = 0; i < 4; i = i + 1) { fork(&tids[i], w, null); }
    for (i = 0; i < 4; i = i + 1) { join(tids[i]); }
    return 0; }
"""


class TestCacheSymmetry:
    def test_query_order_never_changes_the_answer(self):
        m, _model, mhp = setup(FIG8)
        stmts = accesses(m)
        for s1 in stmts:
            for s2 in stmts:
                assert mhp.may_happen_in_parallel(s1, s2) == \
                    mhp.may_happen_in_parallel(s2, s1)

    def test_reverse_query_is_a_cache_hit(self):
        m, _model, mhp = setup(FIG8)
        s1, s2 = accesses(m)[:2]
        before_hits = mhp.pair_cache_hits
        mhp.may_happen_in_parallel(s1, s2)   # computes and seeds (s2, s1)
        mhp.may_happen_in_parallel(s2, s1)   # must hit the cache
        assert mhp.pair_cache_hits == before_hits + 1
        assert mhp.pair_queries >= 2

    def test_coarse_oracle_cache_symmetric_too(self):
        m, model, _mhp = setup(FIG8)
        coarse = CoarsePCGMhp(model)
        s1, s2 = accesses(m)[:2]
        first = coarse.may_happen_in_parallel(s1, s2)
        hits = coarse.pair_cache_hits
        assert coarse.may_happen_in_parallel(s2, s1) == first
        assert coarse.pair_cache_hits == hits + 1


class TestPrecisionOrdering:
    def test_coarse_is_a_superset_of_interleaving(self):
        """Every pair the flow-sensitive analysis deems parallel must
        also be parallel under the coarse PCG fallback — the ablation
        only loses precision, never soundness."""
        for src in (FIG8, MULTIFORK):
            m, model, mhp = setup(src)
            coarse = CoarsePCGMhp(model)
            stmts = accesses(m)
            for s1 in stmts:
                for s2 in stmts:
                    if mhp.may_happen_in_parallel(s1, s2):
                        assert coarse.may_happen_in_parallel(s1, s2), \
                            f"coarse oracle missed {s1!r} || {s2!r}"

    def test_coarse_is_strictly_coarser_somewhere(self):
        m, model, mhp = setup(FIG8)
        coarse = CoarsePCGMhp(model)
        stmts = accesses(m)
        strictly = [(s1, s2) for s1 in stmts for s2 in stmts
                    if coarse.may_happen_in_parallel(s1, s2)
                    and not mhp.may_happen_in_parallel(s1, s2)]
        assert strictly, "expected join-ordered pairs only coarse deems MHP"


class TestMultiForked:
    def test_same_thread_instance_pairs_exist(self):
        m, model, mhp = setup(MULTIFORK)
        store = next(i for i in m.functions["w"].instructions()
                     if isinstance(i, Store))
        pairs = list(mhp.parallel_instance_pairs(store, store))
        assert pairs
        for (t1, _sid1), (t2, _sid2) in pairs:
            assert t1 == t2 and model.by_id[t1].multi_forked

    def test_coarse_agrees_on_multi_forked_self_pair(self):
        m, model, mhp = setup(MULTIFORK)
        coarse = CoarsePCGMhp(model)
        store = next(i for i in m.functions["w"].instructions()
                     if isinstance(i, Store))
        assert mhp.may_happen_in_parallel(store, store)
        assert coarse.may_happen_in_parallel(store, store)
        assert list(coarse.parallel_instance_pairs(store, store))


class TestRegionKeys:
    def test_equal_keys_imply_equal_verdicts(self):
        """The region-key contract: statements with equal keys receive
        identical MHP verdicts against *any* third statement. This is
        what licenses the value-flow phase's one-representative-per-
        region-pair batching."""
        for src in (FIG8, MULTIFORK):
            m, model, mhp = setup(src)
            oracles = [mhp, CoarsePCGMhp(model)]
            stmts = accesses(m)
            for oracle in oracles:
                keys = {s.id: oracle.region_key(s) for s in stmts}
                for s1 in stmts:
                    for s2 in stmts:
                        if s1 is s2 or keys[s1.id] != keys[s2.id]:
                            continue
                        for s3 in stmts:
                            assert oracle.may_happen_in_parallel(s1, s3) == \
                                oracle.may_happen_in_parallel(s2, s3), \
                                f"{s1!r} and {s2!r} share a region but " \
                                f"disagree vs {s3!r}"

    def test_coarse_regions_are_thread_sets(self):
        # The No-Interleaving verdict reads only which threads run a
        # statement, so its regions are exactly the statements' thread
        # sets.
        m, model, _mhp = setup(FIG8)
        coarse = CoarsePCGMhp(model)
        stmts = accesses(m)
        threads = {s.id: {tid for tid, _sid in model.instances_of(s)}
                   for s in stmts}
        for s1 in stmts:
            for s2 in stmts:
                assert (coarse.region_key(s1) == coarse.region_key(s2)) \
                    == (threads[s1.id] == threads[s2.id])

    def test_regions_actually_coalesce(self):
        # The batching only wins if real programs have fewer regions
        # than statements; both oracles must coalesce on FIG8.
        m, model, mhp = setup(FIG8)
        stmts = accesses(m)
        for oracle in (mhp, CoarsePCGMhp(model)):
            keys = {oracle.region_key(s) for s in stmts}
            assert len(keys) < len(stmts)


class TestWitnessCaching:
    def _mhp_pair(self, mhp, stmts):
        for a in stmts:
            for b in stmts:
                if a is not b and \
                        next(iter(mhp.parallel_instance_pairs(a, b)), None):
                    return a, b
        raise AssertionError("no MHP pair in program")

    def _counting(self, mhp):
        """Wrap parallel_instance_pairs with a call counter."""
        calls = []
        orig = mhp.parallel_instance_pairs

        def counted(s1, s2):
            calls.append((s1.id, s2.id))
            return orig(s1, s2)

        mhp.parallel_instance_pairs = counted
        return calls

    def test_boolean_query_seeds_the_witness(self):
        # The satellite bug: _admission_verdict used to re-enumerate
        # instance pairs after may_happen_in_parallel had already
        # found a witness. One enumeration must now serve both.
        m, _model, mhp = setup(FIG8)
        s1, s2 = self._mhp_pair(mhp, accesses(m))
        mhp._witness_cache.clear()
        calls = self._counting(mhp)
        assert mhp.may_happen_in_parallel(s1, s2)
        witness = mhp.mhp_witness(s1, s2)
        assert witness is not None
        assert len(calls) == 1

    def test_reverse_witness_is_swapped_without_reenumeration(self):
        m, _model, mhp = setup(FIG8)
        s1, s2 = self._mhp_pair(mhp, accesses(m))
        calls = self._counting(mhp)
        witness = mhp.mhp_witness(s1, s2)
        reverse = mhp.mhp_witness(s2, s1)
        assert reverse == (witness[1], witness[0])
        assert len(calls) <= 1

    def test_negative_witness_cached_too(self):
        m, _model, mhp = setup(FIG8)
        stmts = accesses(m)
        pair = next(((a, b) for a in stmts for b in stmts if a is not b
                     and not next(iter(mhp.parallel_instance_pairs(a, b)),
                                  None)), None)
        assert pair is not None
        s1, s2 = pair
        mhp._witness_cache.clear()
        calls = self._counting(mhp)
        assert not mhp.may_happen_in_parallel(s1, s2)
        assert mhp.mhp_witness(s1, s2) is None
        assert mhp.mhp_witness(s2, s1) is None
        assert len(calls) == 1


class TestObservability:
    def test_flush_reports_queries_and_iterations(self):
        m, _model, mhp = setup(FIG8)
        s1, s2 = accesses(m)[:2]
        mhp.may_happen_in_parallel(s1, s2)
        mhp.may_happen_in_parallel(s2, s1)
        obs = Observer()
        mhp.flush_obs(obs)
        assert obs.counter("mhp.pair_queries") == mhp.pair_queries >= 2
        assert obs.counter("mhp.pair_cache_hits") >= 1
        assert obs.counter("mhp.dataflow_iterations") > 0
        assert obs.gauges["mhp.threads"] == len(mhp.model.threads)
