"""Telemetry loading + rendering (repro report)."""

import json

import pytest

from repro.fsam.config import FSAMConfig
from repro.harness import load_telemetry, render_telemetry_report
from repro.obs import Observer
from repro.service.batch import run_batch
from repro.service.cache import ArtifactCache
from repro.service.requests import AnalysisRequest
from repro.workloads import get_workload


def _batch_report(**kwargs):
    request = AnalysisRequest(name="word_count",
                              source=get_workload("word_count").source(1),
                              config=FSAMConfig())
    return run_batch([request], workers=1, slow_ms=0, **kwargs)


def _metrics_doc(name="m"):
    obs = Observer(name=name, track_memory=False)
    obs.observe("pool.run_seconds", 0.5)
    obs.count("batch.requests", 1)
    with obs.phase("sparse_solve"):
        pass
    return obs.to_metrics_dict()


class TestLoad:
    def test_batch_report(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(_batch_report().to_dict()))
        source = load_telemetry(str(path))
        assert source.kind == "batch"
        assert source.rows and source.exemplars
        assert source.metrics["histograms"]["pool.run_seconds"]["count"] == 1

    def test_batch_report_without_metrics_rejected(self, tmp_path):
        doc = _batch_report().to_dict()
        del doc["metrics"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="metrics"):
            load_telemetry(str(path))

    def test_single_metrics_doc(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(_metrics_doc()))
        source = load_telemetry(str(path))
        assert source.kind == "metrics"
        assert source.snapshots == 1

    def test_jsonl_stream_takes_final_snapshot(self, tmp_path):
        obs = Observer(name="gateway", track_memory=False)
        lines = []
        for _ in range(3):
            obs.count("gateway.requests")
            lines.append(json.dumps(obs.to_metrics_dict()))
        path = tmp_path / "metrics.jsonl"
        path.write_text("\n".join(lines) + "\n")
        source = load_telemetry(str(path))
        assert source.snapshots == 3
        assert source.metrics["counters"]["gateway.requests"] == 3

    def test_jsonl_stream_counter_regression_rejected(self, tmp_path):
        first = _metrics_doc()
        second = _metrics_doc()
        second["counters"]["batch.requests"] = 0
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        with pytest.raises(ValueError, match="regressed"):
            load_telemetry(str(path))

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "repro.table2/1"}))
        with pytest.raises(ValueError, match="unsupported schema"):
            load_telemetry(str(path))

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text(json.dumps(_metrics_doc()) + "\nnot json\n")
        with pytest.raises(ValueError, match="line 2"):
            load_telemetry(str(path))


class TestRender:
    def test_batch_source_renders_everything(self, tmp_path):
        report = _batch_report(cache=ArtifactCache(tmp_path))
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(report.to_dict()))
        text = render_telemetry_report(load_telemetry(str(path)))
        assert "1 request(s)" in text
        assert "cache hit rate" in text
        assert "pool.run_seconds" in text
        assert "sparse_solve" in text
        assert "slowest requests" in text
        assert "r0000" in text

    def test_metrics_stream_source(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text(json.dumps(_metrics_doc()) + "\n"
                        + json.dumps(_metrics_doc()) + "\n")
        text = render_telemetry_report(load_telemetry(str(path)))
        assert "final of 2 snapshots" in text
        assert "pool.run_seconds" in text

    def test_gateway_stream_counts(self, tmp_path):
        # repro serve and repro gateway count gateway.*, not batch.*.
        obs = Observer(name="gateway", track_memory=False)
        obs.count("gateway.requests", 5)
        obs.count("gateway.degraded", 2)
        obs.count("gateway.retries", 1)
        obs.count("gateway.deadline_kills", 1)
        path = tmp_path / "metrics.jsonl"
        path.write_text(json.dumps(obs.to_metrics_dict()) + "\n")
        text = render_telemetry_report(load_telemetry(str(path)))
        assert "5 request(s), 2 degraded, 1 retried, 1 timed out" in text

    def test_top_limits_slowest_rows(self, tmp_path):
        report = _batch_report()
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(report.to_dict()))
        text = render_telemetry_report(load_telemetry(str(path)), top=0)
        assert "slowest requests (top 0)" in text


class TestQuerySummary:
    def _query_metrics(self):
        obs = Observer(name="q", track_memory=False)
        obs.count("gateway.requests", 3)
        obs.count("query.requests", 2)
        obs.count("query.engine_hits", 1)
        obs.count("query.solve_iterations", 4)
        obs.observe("query.request_seconds", 0.003)
        return obs.to_metrics_dict()

    def test_query_counters_render_summary_line(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self._query_metrics()))
        text = render_telemetry_report(load_telemetry(str(path)))
        assert "demand queries: 2" in text
        assert "warm rate  50.0% (1 answered warm)" in text
        assert "4 solver iteration(s)" in text
        # The latency histogram joins the generic histogram table.
        assert "query.request_seconds" in text

    def test_no_queries_no_summary_line(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_metrics_doc()))
        text = render_telemetry_report(load_telemetry(str(path)))
        assert "demand queries" not in text
