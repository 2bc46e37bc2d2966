"""Observability instrumentation must be (nearly) free.

The obs layer keeps hot paths clean by accumulating plain int tallies
on the analysis objects and flushing them once per run (see DESIGN.md
"Observability"); the only per-phase work is a pair of perf_counter
reads per pipeline stage. This benchmark pins that design down: on
the largest registry workload, running FSAM with its default live
Observer must cost less than 5% over running against the explicit
``obs=NULL_OBS`` opt-out.

Methodology: the workload is compiled once (re-analysis of a module is
deterministic — see test_pts_representation's entry-count pin), the
two configurations run interleaved so allocator/cache drift hits both
equally, each round is preceded by a gc.collect(), and the comparison
uses best-of-N CPU time (process_time, no tracemalloc) so scheduler
noise cannot masquerade as instrumentation cost.
"""

import gc
import resource
import time

from repro.frontend import compile_source
from repro.fsam import FSAM, FSAMConfig
from repro.harness.scales import BENCH_SCALES
from repro.obs import NULL_OBS
from repro.workloads import get_workload

WORKLOAD = "x264"
ROUNDS = 10
MAX_OVERHEAD = 1.05  # enabled / disabled CPU-time ratio ceiling

_RESULT = {}


def _one_run(module, obs=None):
    """CPU time of a single analysis-only run (``obs=None``: FSAM's
    own fresh Observer)."""
    gc.collect()
    start = time.process_time()
    result = FSAM(module, FSAMConfig(), obs=obs).run()
    return time.process_time() - start, result


def test_enabled_instrumentation_under_five_percent(benchmark):
    source = get_workload(WORKLOAD).source(BENCH_SCALES[WORKLOAD])
    module = compile_source(source, name=WORKLOAD)

    def compare():
        enabled_times, disabled_times = [], []
        for _ in range(ROUNDS):
            seconds, result = _one_run(module)
            enabled_times.append(seconds)
            _RESULT["profiled"] = result
            seconds, _ = _one_run(module, obs=NULL_OBS)
            disabled_times.append(seconds)
        return min(enabled_times), min(disabled_times)

    enabled, disabled = benchmark.pedantic(compare, rounds=1, iterations=1)
    ratio = enabled / disabled
    print(f"\nobs overhead: enabled {enabled:.3f}s vs "
          f"disabled {disabled:.3f}s ({(ratio - 1) * 100:+.1f}%)")
    assert ratio <= MAX_OVERHEAD, (
        f"{WORKLOAD}: profiling costs {(ratio - 1) * 100:.1f}% "
        f"(enabled {enabled:.3f}s, disabled {disabled:.3f}s)")


def test_profiled_run_actually_instrumented():
    """Guard against a vacuous comparison: the enabled run must have
    produced a real profile, not silently fallen back to NULL_OBS."""
    result = _RESULT.get("profiled")
    if result is None:
        import pytest
        pytest.skip("overhead benchmark did not run")
    doc = result.profile()
    assert doc["phases"], "profiled run produced no phase records"
    assert doc["counters"]["solver.iterations"] > 0


def test_profiled_run_has_tracing_off():
    """The 5%% bound covers the obs-on + trace-off configuration: the
    default config must not silently enable the tracer (provenance
    recording touches the per-fact hot path and has its own budget)."""
    from repro.trace import NULL_TRACER
    result = _RESULT.get("profiled")
    if result is None:
        import pytest
        pytest.skip("overhead benchmark did not run")
    assert result.tracer is NULL_TRACER
    assert result.provenance is None


# -- batch telemetry ---------------------------------------------------------


BATCH_ROUNDS = 5
BATCH_SCALE = 4  # ~0.5s of analysis per side: a 5% bound is ~25ms,
                 # comfortably above process_time jitter
_BATCH_RESULT = {}


def _batch_requests():
    from repro.service.requests import AnalysisRequest
    names = ("word_count", "kmeans", "automount")
    return [AnalysisRequest(name=name,
                            source=get_workload(name).source(BATCH_SCALE),
                            config=FSAMConfig())
            for name in names]


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _one_batch():
    """CPU time of one cold one-shard batch, telemetry on: this
    process's plus its shard's, which the batch reaps at shutdown."""
    from repro.service.batch import run_batch
    gc.collect()
    start, children = time.process_time(), _children_cpu()
    report = run_batch(_batch_requests(), workers=1, slow_ms=0)
    return (time.process_time() - start
            + _children_cpu() - children), report


def _one_bare():
    """CPU time of the same three requests analysed with no batch
    driver and no observer: compile, FSAM against NULL_OBS, artifact."""
    from repro.service.artifacts import artifact_from_result
    gc.collect()
    start = time.process_time()
    for request in _batch_requests():
        module = compile_source(request.source, name=request.name)
        result = FSAM(module, request.config, obs=NULL_OBS).run()
        artifact_from_result(request.name, result)
    return time.process_time() - start


def test_batch_telemetry_under_five_percent(benchmark):
    """The cross-process telemetry layer (span observers, snapshot
    merging, histogram recording, exemplar capture) must add < 5% to a
    batch over the same requests analysed bare (no batch driver, no
    observer — so the batch's own bookkeeping, its gateway session
    and the shard's streamed Andersen preview count against the bound
    too). One shard, and CPU time rather than wall clock, so
    scheduling jitter between the two processes cannot drown the
    signal.

    The statistic is the best adjacent-pair ratio, not best-of-N per
    side: shared-machine contention scales both runs of a back-to-back
    pair roughly equally and cancels in their ratio, whereas a
    per-side min needs a quiet window to land on each side
    independently. A real regression inflates every pair."""
    # One untimed pair first: the process's first analysis run pays
    # allocator/import warmup that would otherwise be charged to
    # whichever side runs first.
    _one_batch()
    _one_bare()

    def compare():
        ratios = []
        for _ in range(BATCH_ROUNDS):
            on_seconds, report = _one_batch()
            _BATCH_RESULT["report"] = report
            off_seconds = _one_bare()
            ratios.append(on_seconds / off_seconds)
        return ratios

    ratios = benchmark.pedantic(compare, rounds=1, iterations=1)
    ratio = min(ratios)
    print(f"\nbatch telemetry overhead: best pair "
          f"{(ratio - 1) * 100:+.1f}% "
          f"(pairs: {', '.join(f'{r:.3f}' for r in ratios)})")
    assert ratio <= MAX_OVERHEAD, (
        f"batch telemetry costs {(ratio - 1) * 100:.1f}% "
        f"in every measured pair (ratios: {ratios})")


def test_batch_telemetry_actually_recorded():
    """Guard against a vacuous comparison: the telemetry-on batch must
    have produced real histograms and merged worker-side phase times."""
    report = _BATCH_RESULT.get("report")
    if report is None:
        import pytest
        pytest.skip("batch overhead benchmark did not run")
    metrics = report.metrics
    assert metrics["histograms"]["pool.run_seconds"]["count"] == 3
    assert metrics["histograms"]["phase.sparse_solve"]["count"] == 3
    assert metrics["phase_seconds"]["sparse_solve"] > 0.0
    assert report.exemplars
