"""Extension tests: condition variables and barriers.

The paper treats signal/wait and barriers soundly as no-ops
(Section 3.1). The extension here keeps that soundness but models
the mutex release inside pthread_cond_wait: a lock-release span ends
at a wait on its own mutex and a new span starts there.
"""

import pytest

from repro.andersen import run_andersen
from repro.frontend import compile_source
from repro.fsam import analyze_source
from repro.interp import ExecutionLimit, Interpreter
from repro.ir import BarrierInit, BarrierWait, Signal, Store, Wait
from repro.memssa import build_dug
from repro.mt import InterleavingAnalysis, LockAnalysis, ThreadModel

PRODUCER_CONSUMER = """
mutex_t mu;
cond_t cv;
int ready;
int g; int *shared;
int *got;

void *producer(void *arg) {
    lock(&mu);
    shared = &g;
    ready = 1;
    signal(&cv);
    unlock(&mu);
    return null;
}

void *consumer(void *arg) {
    lock(&mu);
    while (ready == 0) {
        wait(&cv, &mu);
    }
    got = shared;
    unlock(&mu);
    return null;
}

int main() {
    thread_t p; thread_t c;
    fork(&p, producer, null);
    fork(&c, consumer, null);
    join(p);
    join(c);
    return 0;
}
"""


class TestFrontend:
    def test_wait_signal_lowered(self):
        m = compile_source(PRODUCER_CONSUMER)
        waits = [i for i in m.all_instructions() if isinstance(i, Wait)]
        signals = [i for i in m.all_instructions() if isinstance(i, Signal)]
        assert len(waits) == 1 and len(signals) == 1
        assert not signals[0].broadcast

    def test_broadcast_flag(self):
        m = compile_source("""
        cond_t cv;
        int main() { broadcast(&cv); return 0; }
        """)
        s = next(i for i in m.all_instructions() if isinstance(i, Signal))
        assert s.broadcast

    def test_pthread_spellings(self):
        m = compile_source("""
        mutex_t mu; cond_t cv; barrier_t b;
        int main() {
            pthread_barrier_init(&b, 0, 2);
            pthread_mutex_lock(&mu);
            pthread_cond_wait(&cv, &mu);
            pthread_cond_signal(&cv);
            pthread_mutex_unlock(&mu);
            pthread_barrier_wait(&b);
            return 0;
        }
        """)
        kinds = {type(i).__name__ for i in m.all_instructions()}
        assert {"Wait", "Signal", "BarrierInit", "BarrierWait"} <= kinds

    def test_barrier_init_count(self):
        m = compile_source("""
        barrier_t b;
        int main() { barrier_init(&b, 4); barrier_wait(&b); return 0; }
        """)
        init = next(i for i in m.all_instructions() if isinstance(i, BarrierInit))
        assert repr(init.count) == "4"


class TestLockSpansAtWait:
    def test_wait_splits_span(self):
        m = compile_source(PRODUCER_CONSUMER)
        a = run_andersen(m)
        dug, builder = build_dug(m, a)
        model = ThreadModel(m, a)
        locks = LockAnalysis(model, a, dug, builder)
        consumer = next(t for t in model.threads
                        if not t.is_main and t.routine.name == "consumer")
        consumer_spans = [sp for sp in locks.spans if sp.thread is consumer]
        # One span from the lock() (ending at the wait) and one seeded
        # at the wait itself (the re-acquisition).
        assert len(consumer_spans) == 2
        wait = next(i for i in m.all_instructions() if isinstance(i, Wait))
        wait_sids = {sid for tid, sid in model.instances_of(wait)
                     if tid == consumer.id}
        lock_seeded = [sp for sp in consumer_spans
                       if sp.lock_sid in wait_sids]
        assert len(lock_seeded) == 1

    def test_store_before_wait_not_visible_as_span_tail_after(self):
        # A store between lock() and wait() is released at the wait;
        # the consumer's read after the wait sits in a *different*
        # span, so lock reasoning still applies pairwise.
        r = analyze_source(PRODUCER_CONSUMER)
        assert r.global_pts_names("got") >= {"g"}  # sound


class TestInterpreter:
    def test_producer_consumer_terminates_all_schedules(self):
        for seed in range(8):
            m = compile_source(PRODUCER_CONSUMER)
            interp = Interpreter(m, seed=seed, max_steps=50000)
            interp.run()
            assert all(t.done for t in interp.threads)

    def test_barrier_rendezvous(self):
        src = """
        barrier_t b;
        int phase1_done; int order_ok;
        void *w1(void *arg) {
            phase1_done = 1;
            barrier_wait(&b);
            return null;
        }
        void *w2(void *arg) {
            barrier_wait(&b);
            order_ok = phase1_done;
            return null;
        }
        int main() {
            thread_t a; thread_t c;
            barrier_init(&b, 2);
            fork(&a, w1, null);
            fork(&c, w2, null);
            join(a); join(c);
            return order_ok;
        }
        """
        # Under every schedule, w2's read happens after w1's write.
        for seed in range(10):
            m = compile_source(src)
            interp = Interpreter(m, seed=seed, max_steps=50000)
            interp.run()
            assert all(t.done for t in interp.threads)
            # Find the order_ok cell and confirm the barrier ordered
            # the phases.
            cell = interp.globals[m.globals["order_ok"].id]
            assert cell.scalar == 1

    def test_barrier_underflow_deadlocks(self):
        src = """
        barrier_t b;
        int main() { barrier_init(&b, 2); barrier_wait(&b); return 0; }
        """
        m = compile_source(src)
        with pytest.raises(ExecutionLimit):
            Interpreter(m, seed=0, max_steps=5000).run()

    def test_wait_releases_mutex(self):
        # If wait failed to release, the producer could never acquire
        # the lock and every schedule would deadlock.
        m = compile_source(PRODUCER_CONSUMER)
        interp = Interpreter(m, seed=5, max_steps=50000)
        interp.run()
        assert not interp.locks_held


class TestSoundnessWithCondvars:
    def test_analysis_covers_all_schedules(self):
        from repro.fsam import FSAM
        from repro.ir import Load
        module = compile_source(PRODUCER_CONSUMER)
        result = FSAM(module).run()
        for seed in range(6):
            m2 = compile_source(PRODUCER_CONSUMER)
            loads1 = [i for i in module.all_instructions() if isinstance(i, Load)]
            loads2 = [i for i in m2.all_instructions() if isinstance(i, Load)]
            twin_of = {l2.id: l1 for l1, l2 in zip(loads1, loads2)}
            interp = Interpreter(m2, seed=seed, max_steps=50000)
            interp.run()
            for obs in interp.observations:
                twin = twin_of[obs.load.id]
                static = {o.name for o in result.pts(twin.dst)}
                assert obs.target.name in static
