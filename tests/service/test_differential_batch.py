"""Differential pinning of the batch service.

Extends the engine differential suite (``tests/fsam/test_differential.py``)
one level up: for all ten Table-1 workloads, a **one-shard** batch, a
**4-shard** batch, and a **cache-warm** 4-shard batch must answer the
payload digest of a **direct** ``compile_source`` + ``FSAM.run`` +
``artifact_from_result`` — the digest covers exactly the ``pts_top`` /
``store_out`` / ``obj_union`` / ``store_classes`` maps and the object
table (hex bitmasks over canonical indices, the bytes the artifact
cache stores). The warm batch must additionally perform *zero*
sparse-solver iterations, asserted through the ``repro.obs`` counters
the batch flushes.

One module-scoped run keeps this affordable: the ten workloads are
analysed once per arm, not once per assertion.
"""

import pytest

from repro.frontend import compile_source
from repro.fsam import FSAM
from repro.service.artifacts import artifact_from_result
from repro.service.batch import run_batch
from repro.service.cache import ArtifactCache
from repro.service.requests import AnalysisRequest
from repro.workloads import get_workload, workload_names

WORKLOADS = workload_names()
BATCHES = ("one_shard", "pooled", "warm")


def _requests():
    return [AnalysisRequest(name=name,
                            source=get_workload(name).source(1))
            for name in WORKLOADS]


@pytest.fixture(scope="module")
def modes(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("artifact-cache")
    direct = [artifact_from_result(
        request.name,
        FSAM(compile_source(request.source, name=request.name)).run())
        .payload_digest() for request in _requests()]
    one_shard = run_batch(_requests(), workers=1, name="one_shard")
    pooled = run_batch(_requests(), workers=4,
                       cache=ArtifactCache(cache_dir), name="pooled")
    warm = run_batch(_requests(), workers=4,
                     cache=ArtifactCache(cache_dir), name="warm")
    return {"direct": direct, "one_shard": one_shard, "pooled": pooled,
            "warm": warm}


class TestModesAgreeBitForBit:
    @pytest.mark.parametrize("index", range(len(WORKLOADS)),
                             ids=WORKLOADS)
    def test_pts_top_and_mem_identical(self, modes, index):
        for batch in BATCHES:
            assert modes[batch].outcomes[index].body["payload_digest"] \
                == modes["direct"][index], batch

    def test_all_modes_completed_undegraded(self, modes):
        for batch in BATCHES:
            assert [o.status for o in modes[batch].outcomes] == \
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
