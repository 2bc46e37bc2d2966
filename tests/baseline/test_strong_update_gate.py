"""NONSPARSE strong-update gate alignment with the sparse solver.

The baseline must gate strong updates exactly like FSAM: per object
``obj.is_singleton`` (not the singleton-ness of an arbitrary
representative of the target set), at interfering stores too.
"""

from repro.baseline import NonSparseAnalysis
from repro.frontend import compile_source
from repro.fsam import FSAM, FSAMConfig


def run_both(src, **cfg):
    baseline = NonSparseAnalysis(compile_source(src), FSAMConfig(**cfg)).run()
    fsam = FSAM(compile_source(src), FSAMConfig(**cfg)).run()
    return baseline, fsam


class TestSingletonGate:
    HEAP = """
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
"""

    def test_single_target_heap_store_stays_weak(self):
        # The pointer resolves to exactly one object, but that object
        # is a heap allocation (not a singleton): both analyses must
        # weak-update, so the first store's value survives.
        baseline, fsam = run_both(self.HEAP)
        assert baseline.deref_pts_names_at_line(9) == {"x", "y"}
        assert fsam.deref_pts_names_at_line(9) == {"x", "y"}

    SINGLETON = """
int x; int y; int A;
int *p; int *out;
int main() {
    p = &A;
    *p = &x;
    *p = &y;
    out = *p;
    return 0;
}
"""

    def test_single_target_singleton_store_is_strong(self):
        baseline, fsam = run_both(self.SINGLETON)
        assert baseline.deref_pts_names_at_line(8) == {"y"}
        assert fsam.deref_pts_names_at_line(8) == {"y"}


class TestInterferingStores:
    PARALLEL = """
int x; int y; int z; int A;
int *p; int *out;
void *writer(void *arg) {
    *p = &z;
    return null;
}
int main() {
    thread_t t;
    p = &A;
    *p = &x;
    fork(&t, writer, null);
    *p = &y;
    out = *p;
    return 0;
}
"""

    def test_default_allows_strong_update_at_interfering_store(self):
        # Paper-literal mode: the store at line 13 strong-updates A
        # even though writer's store interferes, so x is killed, and
        # writer's concurrent z is still merged in. (FSAM's fork-chi
        # handling keeps a stale x alive here, so it is a superset.)
        baseline, fsam = run_both(self.PARALLEL)
        base_names = baseline.deref_pts_names_at_line(14)
        fsam_names = fsam.deref_pts_names_at_line(14)
        assert base_names == {"y", "z"}
        assert base_names <= fsam_names
