"""Batch-service scaling bench: pooled vs one shard, warm vs cold.

Two claims, the whole point of ``repro.service``:

1. a cold 4-shard batch over the ten Table-1 workloads beats a
   one-shard batch, which analyses them one at a time, on wall clock
   (needs real cores — skipped below 2, and run under the
   non-blocking batch-smoke CI job, same style as bench-smoke,
   because shared runners make wall-clock comparisons advisory);
2. a warm batch beats the cold one outright while performing zero
   sparse-solver iterations — this one is deterministic, so it
   asserts unconditionally.
"""

import os
import time

import pytest

from repro.service.batch import run_batch
from repro.service.cache import ArtifactCache
from repro.service.requests import AnalysisRequest
from repro.workloads import get_workload, workload_names

WORKERS = 4


def _requests():
    return [AnalysisRequest(name=name,
                            source=get_workload(name).source(1))
            for name in workload_names()]


def _timed(**kwargs):
    start = time.perf_counter()
    report = run_batch(_requests(), **kwargs)
    return time.perf_counter() - start, report


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="pooled speedup needs at least 2 cores")
def test_cold_pooled_beats_serial():
    serial_s, serial = _timed(workers=1, name="serial")
    pooled_s, pooled = _timed(workers=WORKERS, name="pooled")
    print(f"\nbatch scaling: serial {serial_s:.3f}s, "
          f"{WORKERS}-worker {pooled_s:.3f}s, "
          f"speedup {serial_s / pooled_s:.2f}x "
          f"({os.cpu_count()} cores)")
    assert all(o.status == "ok" for o in pooled.outcomes)
    assert pooled_s < serial_s


def test_warm_cache_beats_cold(tmp_path):
    cache_dir = tmp_path / "cache"
    cold_s, cold = _timed(workers=1, cache=ArtifactCache(cache_dir),
                          name="cold")
    warm_s, warm = _timed(workers=1, cache=ArtifactCache(cache_dir),
                          name="warm")
    print(f"\nbatch cache: cold {cold_s:.3f}s, warm {warm_s:.3f}s, "
          f"speedup {cold_s / max(warm_s, 1e-9):.1f}x")
    assert warm.to_dict()["aggregate"]["solver_iterations"] == 0
    assert warm.counters["batch.cache_hits"] == len(workload_names())
    assert warm_s < cold_s
