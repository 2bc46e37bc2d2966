"""Points-to provenance (explain) tests: ``explain_at_line`` selects
the loads on a line and renders their recorded derivation chains."""

import pytest

from repro.frontend import compile_source
from repro.fsam import FSAM
from repro.fsam.explain import derivation_chain, explain_at_line
from repro.ir import Load, Store
from repro.memssa.dug import StmtNode
from repro.trace import Tracer, top_fact

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

INTERPROCEDURAL = """
int x; int A;
int *p = &A;
int *out;
void write_it() { *p = &x; }
int main() {
    write_it();
    out = *p;
    return 0;
}
"""


def run_traced(source):
    return FSAM(compile_source(source), tracer=Tracer(name="fsam")).run()


def deref_load(result, line):
    """The last load on *line*: ``*p`` after the load of ``p``."""
    return [i for i in result.module.all_instructions()
            if isinstance(i, Load) and i.line == line][-1]


def recorded_chain(result, line, target):
    load = deref_load(result, line)
    obj = next(o for o in result.pts(load.dst) if o.name == target)
    return derivation_chain(result, top_fact(load.dst.id, obj.id))


class TestExplain:
    def test_local_value_provenance(self):
        result = run_traced(FIG1A)
        chains = explain_at_line(result, 14, "z")
        assert len(chains) == 1
        assert chains[0].startswith("why z in pt(")
        assert chains[0].endswith("<- root")
        # The chain passes through the main-thread store *p = r.
        stores = [d.origin.instr for _key, d in recorded_chain(result, 14, "z")
                  if isinstance(d.origin, StmtNode)
                  and isinstance(d.origin.instr, Store)]
        assert any(store.line == 13 for store in stores)
        assert "[P-SU] (line 13)" in chains[0]

    def test_thread_aware_provenance(self):
        result = run_traced(FIG1A)
        chains = explain_at_line(result, 14, "y")
        assert len(chains) == 1
        # y arrives from the parallel thread: the chain crosses a
        # [THREAD-VF] edge, cites the verdict that admitted it and
        # goes on to the AddrOf root.
        chain = recorded_chain(result, 14, "y")
        assert any(d.thread_edge for _key, d in chain)
        assert chain[-1][1].is_root
        assert "[THREAD-VF] edge" in chains[0]
        assert "admitted: MHP" in chains[0]
        assert chains[0].endswith("<- root")

    def test_unexplainable_fact_none(self):
        result = run_traced(FIG1A)
        deref = deref_load(result, 14)
        ghost = result.module.globals["x"]
        # x is the container, never a value of the load: no fact, so
        # no chain. The only chain naming x is the load of p itself.
        assert ghost not in result.pts(deref.dst)
        assert derivation_chain(result, top_fact(deref.dst.id, ghost.id)) == []
        chains = explain_at_line(result, 14, "x")
        assert len(chains) == 1
        assert f"pt({deref.dst!r})" not in chains[0]

    def test_interprocedural_chain(self):
        result = run_traced(INTERPROCEDURAL)
        chains = explain_at_line(result, 8, "x")
        assert len(chains) == 1
        # The chain crosses the callee boundary: the call's chi takes
        # the value from write_it's formal-out.
        rules = [d.rule for _key, d in recorded_chain(result, 8, "x")]
        assert "call-chi" in rules and "formal-out" in rules
        assert "[CALL-CHI]" in chains[0] and "[FORMAL-OUT]" in chains[0]
        assert chains[0].endswith("<- root")

    def test_untraced_result_is_refused(self):
        result = FSAM(compile_source(FIG1A)).run()
        with pytest.raises(ValueError, match="no provenance recorded"):
            explain_at_line(result, 14, "y")
