"""The batch driver on its gateway session: dedup, the shards' cache,
reporting."""

import pytest

from repro.fsam.config import FSAMConfig
from repro.harness.export import render_batch_report
from repro.obs import Observer
from repro.service.batch import run_batch, validate_batch_report
from repro.service.cache import ArtifactCache
from repro.service.requests import AnalysisRequest
from repro.workloads import get_workload

SMALL = ("word_count", "kmeans", "automount")


def _requests(names=SMALL, **config_kwargs):
    config = FSAMConfig(**config_kwargs)
    return [AnalysisRequest(name=name,
                            source=get_workload(name).source(1),
                            config=config)
            for name in names]


class TestDedup:
    def test_duplicate_requests_run_once(self, tmp_path):
        requests = _requests(("word_count",)) * 3
        requests[1].name = "copy-1"
        requests[2].name = "copy-2"
        report = run_batch(requests, workers=1)
        assert [o.cache for o in report.outcomes] == \
            ["miss", "dedup", "dedup"]
        # Followers share the first row's answer; the analysis ran
        # once.
        assert report.outcomes[1].body is report.outcomes[0].body
        assert report.counters["batch.unique_requests"] == 1
        assert report.counters["batch.deduped"] == 2
        assert report.counters["gateway.dispatched"] == 1
        assert report.counters["batch.solver_iterations"] == \
            report.outcomes[0].body["summary"]["solver_iterations"]

    def test_different_config_not_deduped(self):
        requests = _requests(("word_count",)) \
            + _requests(("word_count",), interleaving=False)
        report = run_batch(requests, workers=1)
        assert [o.cache for o in report.outcomes] == ["miss", "miss"]


class TestCacheIntegration:
    def test_cold_then_warm(self, tmp_path):
        requests = _requests()
        cold = run_batch(requests, workers=1,
                         cache=ArtifactCache(tmp_path), name="cold")
        assert all(o.cache == "miss" for o in cold.outcomes)
        assert cold.to_dict()["aggregate"]["solver_iterations"] > 0

        warm = run_batch(requests, workers=1,
                         cache=ArtifactCache(tmp_path), name="warm")
        assert all(o.cache == "hit" for o in warm.outcomes)
        doc = warm.to_dict()
        # The cache guarantee: a fully warm batch performs no solver
        # work at all, visible both in the aggregate and the counters.
        assert doc["aggregate"]["solver_iterations"] == 0
        assert doc["counters"]["batch.solver_iterations"] == 0
        assert doc["counters"]["batch.cache_hits"] == len(SMALL)
        assert doc["aggregate"]["phase_seconds"] == {}
        # ... and the warm artifacts are the cold ones, bit for bit.
        for cold_o, warm_o in zip(cold.outcomes, warm.outcomes):
            assert warm_o.body["payload_digest"] == \
                cold_o.body["payload_digest"]

    def test_cached_miss_keeps_no_function_store(self, tmp_path):
        # Every miss runs the whole pipeline: no shard builds a
        # per-function store under the cache.
        report = run_batch(_requests(), workers=2,
                           cache=ArtifactCache(tmp_path))
        assert [o.cache for o in report.outcomes] == ["miss"] * len(SMALL)
        assert all("incremental" not in o.body["summary"]
                   for o in report.outcomes)
        assert not (tmp_path / "func").exists()

    def test_degraded_outcome_not_cached(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        run_batch(_requests(("raytrace",), time_budget=1e-9),
                  workers=1, cache=cache)
        assert cache.stores == 0
        # The same request unbudgeted is a miss, then runs fully.
        report = run_batch(_requests(("raytrace",)), workers=1, cache=cache)
        assert report.outcomes[0].cache == "miss"
        assert report.outcomes[0].status == "ok"


class TestReport:
    def test_report_validates_and_renders(self, tmp_path):
        report = run_batch(_requests(), workers=1,
                           cache=ArtifactCache(tmp_path))
        doc = validate_batch_report(report.to_dict())
        assert doc["schema"] == "repro.batch/1"
        text = render_batch_report(doc)
        for name in SMALL:
            assert name in text
        assert "batch.cache_misses" in text

    def test_error_row_validates_and_renders(self, tmp_path):
        from repro.harness import batch_report_to_csv
        bad = AnalysisRequest(name="bad", source="int main( { return 0; }")
        cache = ArtifactCache(tmp_path)
        report = run_batch(_requests(("word_count",)) + [bad, bad],
                           workers=1, cache=cache)
        doc = validate_batch_report(report.to_dict())
        rows = doc["requests"]
        assert [row["status"] for row in rows] == ["ok", "error", "error"]
        assert [row["cache"] for row in rows] == ["miss", "miss", "dedup"]
        assert rows[1]["error"]["type"] == "ParseError"
        assert "summary" not in rows[1]
        assert doc["aggregate"]["degraded"] == 0
        assert report.counters["batch.errors"] == 2
        assert report.counters["cache.stores"] == 1   # errors not cached
        assert "error" in render_batch_report(doc)
        assert "bad" in batch_report_to_csv(doc)
        del rows[1]["error"]
        with pytest.raises(ValueError, match="error record"):
            validate_batch_report(doc)

    def test_validator_rejects_bad_rows(self):
        report = run_batch(_requests(("word_count",)), workers=1)
        doc = report.to_dict()
        doc["requests"][0]["status"] = "confused"
        with pytest.raises(ValueError, match="status"):
            validate_batch_report(doc)

    def test_external_observer_is_used(self):
        obs = Observer(name="external")
        run_batch(_requests(("word_count",)), workers=1, obs=obs)
        assert obs.counters["batch.requests"] == 1

    def test_phase_seconds_aggregated_on_cold_runs(self):
        report = run_batch(_requests(("word_count",)), workers=1)
        phases = report.to_dict()["aggregate"]["phase_seconds"]
        assert "sparse_solve" in phases
