"""Differential pinning of the batch service's execution modes.

Extends the PR-4 engine differential suite one level up: for all ten
Table-1 workloads, the **serial** inline loop, the **4-worker pooled**
batch, and the **cache-warm** batch must produce bit-identical
``pts_top``/``mem`` maps (hex bitmasks over canonical indices — the
exact bytes the artifact cache stores). The warm batch must
additionally perform *zero* sparse-solver iterations, asserted
through the ``repro.obs`` counters the driver flushes.

One module-scoped run keeps this affordable: the ten workloads are
analysed once per mode (~1s serial), not once per assertion.
"""

import pytest

from repro.service.batch import run_batch
from repro.service.cache import ArtifactCache
from repro.service.requests import AnalysisRequest
from repro.workloads import get_workload, workload_names

WORKLOADS = workload_names()


def _requests():
    return [AnalysisRequest(name=name,
                            source=get_workload(name).source(1))
            for name in WORKLOADS]


@pytest.fixture(scope="module")
def modes(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("artifact-cache")
    serial = run_batch(_requests(), workers=1, name="serial")
    pooled = run_batch(_requests(), workers=4,
                       cache=ArtifactCache(cache_dir), name="pooled")
    warm = run_batch(_requests(), workers=4,
                     cache=ArtifactCache(cache_dir), name="warm")
    return {"serial": serial, "pooled": pooled, "warm": warm}


class TestModesAgreeBitForBit:
    @pytest.mark.parametrize("index", range(len(WORKLOADS)),
                             ids=WORKLOADS)
    def test_pts_top_and_mem_identical(self, modes, index):
        serial = modes["serial"].outcomes[index].artifact
        pooled = modes["pooled"].outcomes[index].artifact
        warm = modes["warm"].outcomes[index].artifact
        assert serial.pts_top == pooled.pts_top == warm.pts_top
        assert serial.store_out == pooled.store_out == warm.store_out
        assert serial.obj_union == pooled.obj_union == warm.obj_union
        assert serial.store_classes == pooled.store_classes \
            == warm.store_classes
        assert serial.payload_digest() == pooled.payload_digest() \
            == warm.payload_digest()

    def test_all_modes_completed_undegraded(self, modes):
        for report in modes.values():
            assert [o.status for o in report.outcomes] == \
                ["ok"] * len(WORKLOADS)


class TestWarmBatchDoesNoSolverWork:
    def test_every_request_hits(self, modes):
        warm = modes["warm"]
        assert [o.cache for o in warm.outcomes] == ["hit"] * len(WORKLOADS)
        assert warm.counters["batch.cache_hits"] == len(WORKLOADS)
        assert warm.counters["batch.cache_misses"] == 0

    def test_zero_solver_iterations(self, modes):
        warm_doc = modes["warm"].to_dict()
        assert warm_doc["aggregate"]["solver_iterations"] == 0
        assert warm_doc["counters"]["batch.solver_iterations"] == 0
        # The cold pooled batch did real work under the same counter.
        assert modes["pooled"].counters["batch.solver_iterations"] > 0

    def test_no_pool_dispatch_on_warm(self, modes):
        # Every digest resolved from the cache, so the pool never ran.
        assert "pool.dispatched" not in modes["warm"].counters
