"""Cross-process service telemetry: worker span snapshots, the batch
``repro.metrics/1`` rollup, queue-wait attribution, determinism of
warm-batch metrics, and the ``repro serve`` metrics stream."""

import json
import shutil

import pytest

from repro.fsam.config import FSAMConfig
from repro.harness.report import TelemetrySource, render_telemetry_report
from repro.obs import validate_metrics, validate_metrics_stream
from repro.service.batch import run_batch
from repro.service.cache import ArtifactCache
from repro.service.requests import AnalysisRequest
from repro.workloads import get_workload
from tests.service.serving import serve

SMALL = ("word_count", "kmeans", "automount")


def _requests(names=SMALL, **config_kwargs):
    config = FSAMConfig(**config_kwargs)
    return [AnalysisRequest(name=name,
                            source=get_workload(name).source(1),
                            config=config)
            for name in names]


class TestBatchRollup:
    def test_pooled_cold_batch_rollup(self, tmp_path):
        """The ISSUE acceptance scenario: a 2-worker batch over the
        three smallest workloads yields a validated metrics rollup
        with dispatch histograms, worker-merged phase distributions,
        and cache hit-rate gauges."""
        report = run_batch(_requests(), workers=2,
                           cache=ArtifactCache(tmp_path), slow_ms=0)
        metrics = report.metrics
        validate_metrics(metrics)

        for name in ("pool.run_seconds", "pool.queue_seconds",
                     "request.seconds"):
            hist = metrics["histograms"][name]
            assert hist["count"] == len(SMALL)
            assert hist["p99"] >= hist["p50"] >= 0.0
        assert metrics["histograms"]["pool.run_seconds"]["sum"] > 0.0

        # Worker-side spans shipped home: per-phase distributions and
        # solver counters merged across processes.
        assert metrics["histograms"]["phase.sparse_solve"]["count"] == \
            len(SMALL)
        assert metrics["phase_seconds"]["sparse_solve"] > 0.0
        assert metrics["counters"]["solver.iterations"] > 0

        assert metrics["gauges"]["cache.hit_rate"] == 0.0
        assert "cache.func_hit_rate" in metrics["gauges"]

        # Slow-request exemplars (threshold 0ms: every miss) keep the
        # per-phase breakdown and the dominant phase.
        assert len(report.exemplars) == len(SMALL)
        for exemplar in report.exemplars:
            assert exemplar["request_id"].startswith("r")
            assert exemplar["dominant_phase"] in exemplar["phase_seconds"]

        text = render_telemetry_report(
            TelemetrySource("batch", metrics,
                            rows=report.to_dict()["requests"],
                            exemplars=report.exemplars))
        assert "pool.run_seconds" in text
        assert "sparse_solve" in text
        assert "cache hit rate" in text

    def test_request_ids_and_queue_in_rows(self, tmp_path):
        report = run_batch(_requests(), workers=2,
                           cache=ArtifactCache(tmp_path))
        rows = report.to_dict()["requests"]
        assert [row["request_id"] for row in rows] == \
            ["r0000", "r0001", "r0002"]
        assert all(row["queue_seconds"] >= 0.0 for row in rows)

    def test_warm_batch_metrics_bit_deterministic(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        run_batch(_requests(), workers=2, cache=cache)
        warm1 = run_batch(_requests(), workers=2,
                          cache=ArtifactCache(tmp_path))
        warm2 = run_batch(_requests(), workers=2,
                          cache=ArtifactCache(tmp_path))
        assert json.dumps(warm1.metrics, sort_keys=True) == \
            json.dumps(warm2.metrics, sort_keys=True)
        # No wall-clock samples on the warm path at all.
        assert warm1.metrics["histograms"] == {}
        assert warm1.metrics["phase_seconds"] == {}
        assert warm1.metrics["gauges"]["cache.hit_rate"] == 1.0

    def test_inline_batch_rollup_matches_pooled_shape(self):
        # workers=1 is a one-shard session; the rollup carries the
        # same histogram set as a pooled one.
        report = run_batch(_requests(("word_count",)),
                           workers=1)
        metrics = report.metrics
        validate_metrics(metrics)
        assert metrics["histograms"]["pool.run_seconds"]["count"] == 1
        assert metrics["histograms"]["phase.sparse_solve"]["count"] == 1
        assert metrics["counters"]["solver.iterations"] > 0


class TestAggregateMatchesRollup:
    """The report's ``aggregate.phase_seconds`` and its rollup's
    top-level ``phase_seconds`` are one record, read from the same
    miss spans — a degraded request's partial work included."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_degraded_attempt_counted(self, workers):
        requests = [
            AnalysisRequest("rt", get_workload("raytrace").source(4),
                            FSAMConfig(time_budget=0.05)),
            AnalysisRequest("wc", get_workload("word_count").source(1)),
        ]
        report = run_batch(requests, workers=workers)
        assert [o.status for o in report.outcomes] == ["degraded", "ok"]
        spans = [o.obs_snapshot["phase_seconds"] for o in report.outcomes]
        assert spans[0]["compile"] > 0.0
        top_level = {path: round(seconds, 6) for path, seconds
                     in report.metrics["phase_seconds"].items()
                     if "/" not in path}
        aggregate = report.to_dict()["aggregate"]["phase_seconds"]
        assert aggregate == top_level
        assert aggregate["compile"] == \
            round(spans[0]["compile"] + spans[1]["compile"], 6)


class TestEveryMissHasASpan:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_span_times_compile_and_schedule(self, workers):
        report = run_batch(_requests(("word_count", "kmeans")),
                           workers=workers)
        for outcome in report.outcomes:
            phases = outcome.obs_snapshot["phase_seconds"]
            assert phases["compile"] > 0.0
            assert "sparse_solve/schedule" in phases

    def test_no_span_for_hits_and_dedup_followers(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        run_batch(_requests(("word_count",)), workers=1, cache=cache)
        report = run_batch(_requests(("word_count", "word_count")),
                           workers=1, cache=cache)
        assert [o.cache for o in report.outcomes] == ["hit", "dedup"]
        assert all(o.obs_snapshot is None for o in report.outcomes)


class TestQueueWait:
    def test_queue_wait_split_from_run_time(self):
        # One shard, two requests: the second request queues behind
        # the first, and that wait lands in queue_seconds, not in its
        # run time.
        report = run_batch(_requests(("word_count", "kmeans")), workers=1)
        outcomes = report.outcomes
        assert outcomes[0].queue_seconds >= 0.0
        assert outcomes[1].queue_seconds > 0.0
        # The follower waited at least as long as the leader's run.
        assert outcomes[1].queue_seconds >= outcomes[0].seconds - 1e-3
        run = report.metrics["histograms"]["pool.run_seconds"]
        total = report.metrics["histograms"]["request.seconds"]
        assert run["sum"] <= total["sum"]


class TestWorkerSnapshots:
    def test_snapshot_shipped_with_profile(self):
        report = run_batch(_requests(("word_count",)), workers=2)
        snapshot = report.outcomes[0].obs_snapshot
        assert snapshot is not None
        validate_metrics(snapshot)
        assert snapshot["phase_seconds"]["sparse_solve"] > 0.0
        assert snapshot["counters"]["solver.iterations"] > 0

    def test_func_counters_survive_pooled_workers(self, tmp_path):
        """Regression for the removed artifact-summary reconstruction
        path: store-level func-cache counters shipped in worker
        snapshots must equal the per-artifact incremental summaries
        they replaced."""
        cache = ArtifactCache(tmp_path)
        run_batch(_requests(), workers=2, cache=cache)
        # Drop the program-level artifacts but keep the per-function
        # store, so the rerun misses the top cache and reuses the
        # function layer.
        for child in tmp_path.iterdir():
            if child.is_dir() and child.name != "func":
                shutil.rmtree(child)
        report = run_batch(_requests(), workers=2,
                           cache=ArtifactCache(tmp_path))
        assert all(o.cache == "miss" for o in report.outcomes)
        summary_hits = sum(
            o.body["summary"]["incremental"]["func_hits"]
            for o in report.outcomes)
        assert summary_hits > 0
        assert report.counters["cache.func_hits"] == summary_hits
        assert report.metrics["gauges"]["cache.func_hit_rate"] > 0.0


class TestServeMetricsStream:
    LINES = ['{"workload": "word_count", "id": 1}',
             '{"workload": "kmeans", "id": 2}']

    def test_stream_validates_and_accumulates(self, tmp_path):
        cache_root = str(tmp_path / "cache")
        cold = serve(self.LINES, cache_root=cache_root, metrics_interval=0)
        # One snapshot per answered request, then the final one.
        assert len(cold.metrics) == 3
        validate_metrics_stream(cold.metrics)
        final = cold.metrics[-1]
        assert final["counters"]["gateway.requests"] == 2
        assert final["counters"]["cache.misses"] == 2
        assert final["histograms"]["gateway.request_seconds"]["count"] == 2
        assert final["histograms"]["phase.sparse_solve"]["count"] == 2
        warm = serve(self.LINES, cache_root=cache_root, metrics_interval=0)
        validate_metrics_stream(warm.metrics)
        assert warm.counters["cache.hits"] == 2
        assert "phase.sparse_solve" not in warm.metrics[-1]["histograms"]

    def test_responses_carry_span_and_payload_digest(self, tmp_path):
        session = serve(['{"workload": "word_count", "id": 1}'],
                        cache_root=str(tmp_path / "cache"))
        body = session.answer(1)
        assert body["span"] == "g0001"
        assert len(body["payload_digest"]) == 64
        assert "queue_seconds" not in body
