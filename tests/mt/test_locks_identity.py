"""Lock analysis must compare MemObjects by allocation-site id.

Regression tests for identity (``is``) comparisons in mt/locks.py:
distinct MemObject instances with the same ``.id`` denote the same
abstract object, and the analysis must treat them as equal — the
pre-fix code silently stopped terminating spans and matching common
locks when the lock object arrived as a different instance.
"""

import copy

from repro.andersen import run_andersen
from repro.frontend import compile_source
from repro.ir import Load, Store
from repro.memssa import build_dug
from repro.mt import InterleavingAnalysis, LockAnalysis, ThreadModel
from repro.mt import threads

SRC = """
int o_t1; int o_t2; int O;
int *p; int *q;
mutex_t l1;
void foo1(void *arg) {
    *p = &o_t1;            // s1 (outside the span)
    lock(&l1);
    *p = &o_t1;            // s2 (overwritten before unlock)
    *p = &o_t2;            // s3 (span tail)
    unlock(&l1);
    *p = &o_t1;            // s4 (outside, after the release)
    return null;
}
void foo2(void *arg) {
    lock(&l1);
    q = *p;                // load (span head read of O)
    unlock(&l1);
    return null;
}
int main() {
    thread_t a; thread_t b;
    p = &O;
    fork(&a, foo1, null);
    fork(&b, foo2, null);
    join(a); join(b);
    return 0;
}
"""


def setup(monkeypatch=None, clone_lock_objects=False):
    if clone_lock_objects:
        # Make every lock-object resolution hand back a *fresh*
        # MemObject instance with the same .id — the situation the
        # identity comparisons got wrong. Spans are traced while the
        # thread model builds its state graphs, which resolve locks
        # through threads.singleton_lock.
        orig = threads.singleton_lock

        def cloning(andersen, ptr):
            obj = orig(andersen, ptr)
            return copy.copy(obj) if obj is not None else None

        monkeypatch.setattr(threads, "singleton_lock", cloning)
    m = compile_source(SRC)
    a = run_andersen(m)
    dug, builder = build_dug(m, a)
    model = ThreadModel(m, a)
    mhp = InterleavingAnalysis(model)
    locks = LockAnalysis(model, a, dug, builder)
    O = m.globals["O"]
    stores = [i for i in m.functions["foo1"].instructions()
              if isinstance(i, Store) and O in builder.chis.get(i.id, ())]
    load = next(i for i in m.functions["foo2"].instructions()
                if isinstance(i, Load) and O in builder.mus.get(i.id, ()))
    return m, mhp, locks, O, stores, load


class TestClonedLockObjects:
    def test_spans_terminate_at_release(self, monkeypatch):
        _m, _mhp, locks, _O, stores, _load = setup(
            monkeypatch, clone_lock_objects=True)
        s1, s2, s3, s4 = stores
        span = next(sp for sp in locks.spans
                    if sp.thread.routine.name == "foo1")
        inside = {s.id for s in stores if s.id in span.member_instrs}
        # The span covers the critical section only — under the old
        # `released is lock_obj` check a cloned release never matched
        # and the span swallowed s4 too.
        assert inside == {s2.id, s3.id}

    def test_common_lock_still_recognised(self, monkeypatch):
        _m, mhp, locks, O, stores, load = setup(
            monkeypatch, clone_lock_objects=True)
        s1, s2, s3, s4 = stores
        # Figure 9: the overwritten store s2 is a non-interference pair
        # with the protected load; the span tail s3 is a real flow.
        assert locks.filters(s2, load, O, mhp)
        assert not locks.filters(s3, load, O, mhp)
        assert not locks.filters(s1, load, O, mhp)
        assert not locks.filters(s4, load, O, mhp)

    def test_commonly_protected_with_clones(self, monkeypatch):
        _m, mhp, locks, _O, stores, load = setup(
            monkeypatch, clone_lock_objects=True)
        s2 = stores[1]
        pair = next(iter(mhp.parallel_instance_pairs(s2, load)))
        assert locks.commonly_protected(*pair)


class TestClonedQueryObject:
    def test_filters_accepts_equal_but_distinct_object(self):
        _m, mhp, locks, O, stores, load = setup()
        _s1, s2, s3, _s4 = stores
        O_clone = copy.copy(O)
        assert O_clone is not O and O_clone.id == O.id
        # span_tail's store-successor scan compares the queried object
        # against DUG edge labels: with `out_obj is not obj` a cloned
        # query object saw no successors and every store became a tail.
        assert locks.filters(s2, load, O_clone, mhp)
        assert not locks.filters(s3, load, O_clone, mhp)
