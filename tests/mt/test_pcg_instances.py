"""CoarsePCGMhp instance-pair enumeration (used by lock filtering in
the No-Interleaving configuration)."""

from repro.andersen import run_andersen
from repro.frontend import compile_source
from repro.ir import AddrOf, Store
from repro.mt import CoarsePCGMhp, InterleavingAnalysis, ThreadModel


SRC = """
int g1; int g2;
int *m1; int *m2;
void *w(void *arg) { m2 = &g2; return null; }
int main() {
    thread_t t;
    fork(&t, w, null);
    join(t);
    m1 = &g1;
    return 0;
}
"""


def setup():
    m = compile_source(SRC)
    a = run_andersen(m)
    model = ThreadModel(m, a)
    return m, model


def store_to(m, name):
    for fn in m.functions.values():
        for instr in fn.instructions():
            if isinstance(instr, Store):
                for i2 in fn.instructions():
                    if isinstance(i2, AddrOf) and i2.dst is instr.ptr \
                            and i2.obj.name == name:
                        return instr
    raise AssertionError(name)


class TestCoarseInstances:
    def test_pairs_cover_distinct_threads(self):
        m, model = setup()
        coarse = CoarsePCGMhp(model)
        s1 = store_to(m, "m1")
        s2 = store_to(m, "m2")
        pairs = list(coarse.parallel_instance_pairs(s1, s2))
        assert pairs
        threads = {(t1, t2) for (t1, _), (t2, _) in pairs}
        assert all(a != b for a, b in threads)

    def test_same_thread_non_multi_excluded(self):
        m, model = setup()
        coarse = CoarsePCGMhp(model)
        s1 = store_to(m, "m1")
        pairs = list(coarse.parallel_instance_pairs(s1, s1))
        assert pairs == []  # main is not multi-forked

    def test_coarse_ignores_join(self):
        m, model = setup()
        precise = InterleavingAnalysis(model)
        coarse = CoarsePCGMhp(model)
        s1 = store_to(m, "m1")
        s2 = store_to(m, "m2")
        assert not precise.may_happen_in_parallel(s1, s2)
        assert coarse.may_happen_in_parallel(s1, s2)

    def test_cache_symmetry(self):
        m, model = setup()
        coarse = CoarsePCGMhp(model)
        s1 = store_to(m, "m1")
        s2 = store_to(m, "m2")
        assert coarse.may_happen_in_parallel(s1, s2) == \
            coarse.may_happen_in_parallel(s2, s1)
