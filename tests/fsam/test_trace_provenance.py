"""Recorded derivation provenance (FSAMConfig(trace=True))."""

import pytest

from repro.fsam import FSAM, FSAMConfig
from repro.fsam.explain import derivation_chain, explain_fact, render_derivation
from repro.frontend import compile_source
from repro.trace import validate_trace_jsonl

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

LOCKED = """
int x; int y; int z;
int *p = &x;
int *q = &y;
int *r = &z;
int *c;
mutex_t m;
void foo(void *arg) {
    lock(&m);
    *p = q;
    *p = r;
    unlock(&m);
}
int main() {
    thread_t t;
    fork(&t, foo, null);
    lock(&m);
    *p = r;
    c = *p;
    unlock(&m);
    return 0;
}
"""


def run_traced(source):
    return FSAM(compile_source(source), FSAMConfig(trace=True)).run()


class TestRecording:
    def test_trace_off_means_no_provenance(self):
        result = FSAM(compile_source(FIG1A), FSAMConfig()).run()
        assert result.provenance is None
        with pytest.raises(ValueError, match="trace=True"):
            explain_fact(result, "c")

    def test_trace_on_records_facts(self):
        result = run_traced(FIG1A)
        assert result.provenance
        assert all(key[0] in ("top", "mem") for key in result.provenance)

    def test_every_chain_terminates(self):
        result = run_traced(FIG1A)
        for key in result.provenance:
            chain = derivation_chain(result, key)
            assert chain
            # The walk either bottoms out at a root or at a fact whose
            # derivation links a value outside the recorded universe
            # (e.g. a seeded state); it never cycles.
            assert len(chain) < 128

    def test_first_introduction_is_stable(self):
        # Re-running the same program records the same derivations
        # (first-introduction semantics are a function of the
        # deterministic solve order, not of dict iteration). Node uids
        # come from a process-global counter, so compare the
        # structural shape rather than raw keys.
        def shape(result):
            from collections import Counter
            return Counter((key[0], d.rule, d.thread_edge)
                           for key, d in result.provenance.items())

        assert shape(run_traced(FIG1A)) == shape(run_traced(FIG1A))


class TestFigure1Story:
    def test_sequential_fact_roots_at_addrof(self):
        result = run_traced(FIG1A)
        chains = explain_fact(result, "c", obj_name="z")
        assert len(chains) == 1
        text = chains[0]
        assert "P-ADDR" in text and "root" in text
        # Sequential story: z flows via the main-thread store, no
        # thread edge involved.
        assert "THREAD-VF" not in text

    def test_thread_fact_cites_edge_and_verdict(self):
        # The acceptance story: y reaches `c = *p` only through the
        # other thread's `*p = q`; the chain must include the
        # thread-aware store->load edge, the MHP/lock verdict that
        # admitted it, and still end at an AddrOf root.
        result = run_traced(FIG1A)
        chains = explain_fact(result, "c", obj_name="y")
        assert len(chains) == 1
        text = chains[0]
        assert "THREAD-VF" in text
        assert "MHP" in text
        assert "P-ADDR" in text and "root" in text

    def test_thread_edge_derivation_links_to_verdict(self):
        result = run_traced(FIG1A)
        edges = [d for d in result.provenance.values() if d.thread_edge]
        assert edges
        for derivation in edges:
            verdict = result.dug.thread_edge_verdict(*derivation.edge)
            assert verdict is not None
            assert "mhp" in verdict

    def test_unknown_object_yields_nothing(self):
        result = run_traced(FIG1A)
        assert explain_fact(result, "c", obj_name="x") == []


class TestEvents:
    def test_trace_document_validates(self):
        result = run_traced(FIG1A)
        assert validate_trace_jsonl(result.trace_jsonl()) > 0

    def test_vf_pair_verdicts_cover_counters(self):
        result = run_traced(FIG1A)
        pairs = [e for e in result.tracer.events if e["ev"] == "vf.pair"]
        stats = result.vf_stats
        assert len(pairs) == stats.candidate_pairs
        verdicts = [e["verdict"] for e in pairs]
        assert verdicts.count("edge-added") == stats.edges_added
        assert verdicts.count("lock-filtered") == stats.lock_filtered
        assert verdicts.count("mhp-refuted") == \
            stats.candidate_pairs - stats.mhp_pairs

    def test_lock_filtered_names_the_witness(self):
        result = run_traced(LOCKED)
        assert result.vf_stats.lock_filtered > 0
        filtered = [e for e in result.tracer.events
                    if e["ev"] == "vf.pair" and e["verdict"] == "lock-filtered"]
        assert filtered
        assert all(e["lock"] == "m" for e in filtered)

    def test_mhp_and_lock_events_present(self):
        kinds = run_traced(LOCKED).tracer.kinds()
        assert kinds.get("mhp.seed", 0) >= 2  # main + foo
        assert kinds.get("mhp.spawn", 0) >= 1
        assert kinds.get("lock.span", 0) >= 2

    def test_provenance_gauge_flushed(self):
        # flush_obs reports into the run's default (enabled) observer.
        result = run_traced(FIG1A)
        gauge = result.obs.gauges.get("trace.provenance_facts")
        assert gauge == len(result.provenance)


class TestRendering:
    def test_render_derivation_for_every_fact(self):
        result = run_traced(FIG1A)
        for key in result.provenance:
            assert render_derivation(result, key)
