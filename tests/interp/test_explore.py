"""Exhaustive schedule exploration: FSAM's Figure 1 results are not
just sound but *tight* — the union of observations over every
interleaving equals the analysis answer."""

import pytest

from repro.frontend import compile_source
from repro.fsam import analyze_source
from repro.interp import explore_schedules, observed_names_for_line

FIG1A = """
int x; int y; int z;
int *p = &x;
int *q = &y;
int *r = &z;
int *c;
void foo(void *arg) {
    *p = q;
}
int main() {
    thread_t t;
    fork(&t, foo, null);
    *p = r;
    c = *p;
    return 0;
}
"""

FIG1C = """
int x; int y; int z;
int *p = &x;
int *q = &y;
int *r = &z;
int *c;
void foo(void *arg) {
    *p = q;
    return null;
}
int main() {
    thread_t t;
    *p = r;
    fork(&t, foo, null);
    join(t);
    c = *p;
    return 0;
}
"""


class TestExploration:
    def test_sequential_single_schedule(self):
        result = explore_schedules(
            lambda: compile_source("int x; int *p; int *q; "
                                   "int main() { p = &x; q = p; return 0; }"))
        assert result.schedules_run == 1
        assert result.exhausted

    def test_two_thread_program_enumerates_many(self):
        result = explore_schedules(lambda: compile_source(FIG1A))
        assert result.schedules_run > 1
        assert result.exhausted
        assert result.truncated == 0

    def test_schedule_cap_respected(self):
        result = explore_schedules(lambda: compile_source(FIG1A),
                                   max_schedules=3)
        assert result.schedules_run <= 3
        assert not result.exhausted


class TestTightness:
    def test_figure1a_exact(self):
        static = analyze_source(FIG1A)
        dynamic = explore_schedules(lambda: compile_source(FIG1A))
        assert dynamic.exhausted
        module = compile_source(FIG1A)
        observed = observed_names_for_line(module, dynamic, 14)
        assert observed == {"y", "z"}
        assert static.deref_pts_names_at_line(14) == observed  # tight!

    def test_figure1c_exact(self):
        static = analyze_source(FIG1C)
        dynamic = explore_schedules(lambda: compile_source(FIG1C))
        assert dynamic.exhausted
        module = compile_source(FIG1C)
        observed = observed_names_for_line(module, dynamic, 16)
        assert observed == {"y"}
        assert static.deref_pts_names_at_line(16) == observed  # tight!

    def test_every_load_sound(self):
        static = analyze_source(FIG1A)
        dynamic = explore_schedules(lambda: compile_source(FIG1A))
        from repro.ir import Load
        module = static.module
        loads = [i for i in module.all_instructions() if isinstance(i, Load)]
        for index, load in enumerate(loads):
            observed = dynamic.observed_at(index)
            covered = {o.name for o in static.pts(load.dst)}
            normalised = {"tid" if n.startswith("tid.fork") else n
                          for n in observed}
            covered_norm = {"tid" if n.startswith("tid.fork") else n
                            for n in covered}
            assert normalised <= covered_norm, (
                f"load #{index} {load!r}: observed {sorted(observed)} "
                f"not covered by {sorted(covered)}")


# One sync-free callee, called by the worker once inside the lock span
# and once after it. The protected store is a span tail, but main's
# load is no span head (main overwrites *p first), so the lock filter
# drops that instance pair; the unprotected instance keeps the edge.
LOCKED_CALLEE = """
int x; int y; int z;
int *p = &x;
int *q = &y;
int *r = &z;
int *c;
mutex_t mu;
void set() {
    *p = q;
}
void *worker(void *arg) {
    lock(&mu);
    set();
    unlock(&mu);
    %s
    return null;
}
int main() {
    thread_t t;
    fork(&t, worker, null);
    lock(&mu);
    *p = r;
    *p = r;
    c = *p;
    unlock(&mu);
    return 0;
}
"""
LOCKED_CALLEE_LOAD_LINE = 24


class TestSpanKeyedCallees:
    @pytest.mark.parametrize("tail, expected", [
        ("set();", {"y", "z"}),
        ("", {"z"}),
    ])
    def test_unprotected_call_keeps_its_edge(self, tail, expected):
        # A callee instance reached outside every span must not look
        # protected just because another call site holds the lock.
        # The interpreter keeps its state outside the module, so one
        # compiled module serves every schedule.
        source = LOCKED_CALLEE % tail
        module = compile_source(source)
        dynamic = explore_schedules(lambda: module)
        assert dynamic.exhausted
        observed = observed_names_for_line(module, dynamic,
                                           LOCKED_CALLEE_LOAD_LINE)
        assert observed == expected
        static = analyze_source(source)
        assert static.deref_pts_names_at_line(LOCKED_CALLEE_LOAD_LINE) \
            == expected
