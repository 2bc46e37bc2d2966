"""End-to-end observability: one FSAM run -> one profile document."""

import tracemalloc

import pytest

from repro.frontend import compile_source
from repro.fsam import FSAM, FSAMConfig
from repro.obs import NULL_OBS, Observer, validate_profile

# A workload exercising every pipeline stage: a fork, an MHP aliased
# store/load pair (value flow), and lock spans.
SRC = """
int x_t; int A; int B;
int *p; int *q;
mutex_t m;
void *writer(void *arg) {
    lock(&m);
    *p = &x_t;
    unlock(&m);
    return null;
}
int main() {
    thread_t t;
    p = &A; q = &B;
    fork(&t, writer, null);
    q = *p;
    *q = &x_t;
    join(t);
    return 0;
}
"""

PIPELINE_PHASES = ["pre_analysis", "icfg", "thread_oblivious_dug",
                   "thread_model", "interleaving", "lock_analysis",
                   "value_flow", "sparse_solve"]


def run_profiled():
    module = compile_source(SRC)
    result = FSAM(module).run()
    return result


class TestProfileDocument:
    def test_single_run_produces_valid_document(self):
        doc = run_profiled().profile()
        validate_profile(doc)

    def test_every_pipeline_phase_timed(self):
        doc = run_profiled().profile()
        names = [p["name"] for p in doc["phases"]]
        assert names == PIPELINE_PHASES
        assert all(p["seconds"] >= 0 for p in doc["phases"])

    def test_counters_from_at_least_five_stages(self):
        doc = run_profiled().profile()
        counters = doc["counters"]
        stages_hit = {name.split(".")[0]
                      for name, value in counters.items() if value > 0}
        assert {"andersen", "memssa", "mhp", "valueflow",
                "solver"} <= stages_hit

    def test_per_phase_peak_memory_with_tracemalloc(self):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            doc = run_profiled().profile()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert any(p["peak_traced_kb"] > 0 for p in doc["phases"])
        assert doc["peak_traced_kb"] >= max(
            p["peak_traced_kb"] for p in doc["phases"])

    def test_profile_json_round_trips(self):
        import json
        doc = json.loads(run_profiled().profile_json())
        validate_profile(doc)

    def test_schedule_nested_under_sparse_solve(self):
        doc = run_profiled().profile()
        solve = doc["phases"][-1]
        assert solve["name"] == "sparse_solve"
        assert [c["name"] for c in solve["children"]] == ["schedule"]
        assert solve["children"][0]["seconds"] <= solve["seconds"]


class TestOneTimingRecord:
    """The observer's phase tree is the run's only timing record."""

    def test_default_run_records_into_fresh_observer(self):
        fsam = FSAM(compile_source(SRC))
        assert fsam.obs is not NULL_OBS and fsam.obs.enabled
        assert fsam.obs.name == "fsam"
        assert FSAM(compile_source(SRC)).obs is not fsam.obs

    def test_stats_and_total_time_read_the_tree(self):
        result = run_profiled()
        tree = result.obs.phase_seconds()
        times = result.stats()["phase_times"]
        assert list(times) == PIPELINE_PHASES
        assert times == {path: tree[path] for path in PIPELINE_PHASES}
        assert result.total_time() == result.obs.total_seconds() > 0
        assert not hasattr(result, "phase_times")

    def test_profile_knob_rejected(self):
        assert "profile" not in FSAMConfig().to_dict()
        with pytest.raises(ValueError, match="profile"):
            FSAMConfig.from_dict({"profile": True})

    def test_demand_mode_records_no_solve_phase(self):
        result = FSAM(compile_source(SRC),
                      FSAMConfig(solver_mode="demand")).run()
        names = [record.name for record in result.obs.phases]
        assert names == PIPELINE_PHASES[:-1]

    def test_demand_queries_open_no_phases(self):
        """query_stream sends ~10^6 queries into one pipeline's
        observer: a phase per query would grow it without bound."""
        result = FSAM(compile_source(SRC),
                      FSAMConfig(solver_mode="demand")).run()
        before = result.obs.phase_seconds()
        for i in range(100):
            result.query("pq"[i % 2], obj=True)
        assert result.obs.counter("query.requests") == 100
        assert result.obs.phase_seconds() == before


class TestValueFlowShim:
    def test_stats_object_matches_counters(self):
        result = run_profiled()
        counters = result.obs.counters
        assert result.vf_stats.candidate_pairs == counters["valueflow.candidate_pairs"]
        assert result.vf_stats.mhp_pairs == counters["valueflow.mhp_pairs"]
        assert result.vf_stats.lock_filtered == counters["valueflow.lock_filtered"]
        assert result.vf_stats.edges_added == counters["valueflow.edges_added"]
        assert result.vf_stats.edges_added >= 1


class TestProfileToggle:
    def test_profile_off_uses_null_observer(self):
        # NULL_OBS is the explicit opt-out: nothing is recorded, so
        # there are no times either.
        module = compile_source(SRC)
        fsam = FSAM(module, obs=NULL_OBS)
        assert fsam.obs is NULL_OBS
        result = fsam.run()
        assert result.obs is NULL_OBS
        assert result.profile()["phases"] == []
        assert result.stats()["phase_times"] == {}
        assert result.total_time() == 0.0

    def test_explicit_observer_wins(self):
        module = compile_source(SRC)
        obs = Observer(name="mine")
        result = FSAM(module, FSAMConfig(), obs=obs).run()
        assert result.obs is obs
        assert obs.counter("solver.iterations") > 0

    def test_stats_includes_counters_and_gauges(self):
        stats = run_profiled().stats()
        assert stats["counters"]["solver.iterations"] > 0
        assert stats["gauges"]["solver.dug_nodes"] > 0

    def test_nonsparse_baseline_flushes_counters(self):
        from repro.baseline import NonSparseAnalysis
        module = compile_source(SRC)
        obs = Observer(name="base")
        NonSparseAnalysis(module, obs=obs).run()
        assert obs.counter("nonsparse.iterations") > 0
        assert obs.counter("nonsparse.strong_updates") \
            + obs.counter("nonsparse.weak_updates") > 0
        assert [p["name"] for p in obs.to_dict()["phases"]] == \
            ["pre_analysis", "icfg", "pcg", "nonsparse_solve"]


class TestValueFlowSingleSource:
    def test_shim_and_counters_share_one_source(self):
        # The shim attributes and the valueflow.* counters must both
        # be assigned from the same local tallies: pin the idiom by
        # checking every obs.count("valueflow.X", ...) call passes the
        # shim's own attribute, so the two can never drift.
        import inspect
        import re
        from repro.mt import valueflow
        source = inspect.getsource(valueflow.add_thread_aware_edges)
        calls = re.findall(r'obs\.count\("valueflow\.(\w+)",\s*([\w.]+)\)',
                           source)
        assert sorted(name for name, _ in calls) == \
            ["candidate_pairs", "edges_added", "lock_filtered",
             "mhp_cache_hits", "mhp_pairs"]
        for name, value_expr in calls:
            assert value_expr == f"stats.{name}"


class TestTraceToggle:
    def test_trace_off_uses_null_tracer(self):
        from repro.trace import NULL_TRACER
        module = compile_source(SRC)
        fsam = FSAM(module, FSAMConfig())
        assert fsam.tracer is NULL_TRACER
        result = fsam.run()
        assert result.tracer is NULL_TRACER
        assert result.provenance is None

    def test_trace_on_builds_tracer(self):
        module = compile_source(SRC)
        result = FSAM(module, FSAMConfig(trace=True)).run()
        assert result.tracer.enabled
        assert result.tracer.emitted > 0
        assert result.provenance

    def test_explicit_tracer_wins(self):
        from repro.trace import Tracer
        module = compile_source(SRC)
        tracer = Tracer(name="mine")
        result = FSAM(module, FSAMConfig(trace=False), tracer=tracer).run()
        assert result.tracer is tracer
        assert tracer.emitted > 0

    def test_ablated_preserves_trace_flag(self):
        config = FSAMConfig(trace=True)
        assert config.ablated("interleaving").trace is True
