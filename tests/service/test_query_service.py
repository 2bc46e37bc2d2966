"""The service-layer query path: artifact store, runner, batch rows,
``repro serve``, and spec parsing for ``"op": "query"`` entries.

The fsam-level differential contract (demand answer == whole-program
fixpoint) lives in ``tests/fsam/test_query.py``; here we only care
that the wire plumbing around it is faithful — answers survive the
disk round-trip byte-for-byte, warm hits really skip the solver, and
malformed queries degrade to structured errors without killing the
batch or the loop.
"""

from __future__ import annotations

import json

import pytest

from repro.fsam import FSAMConfig
from repro.obs import Observer
from repro.service.artifacts import artifact_from_query, validate_queryartifact
from repro.service.batch import run_batch, validate_batch_report
from repro.service.cache import ArtifactCache, QueryArtifactStore
from repro.service.requests import (AnalysisRequest, QueryRequest,
                                    query_from_entry, requests_from_spec)
from repro.service.runner import QueryRunner
from repro.workloads import get_workload
from tests.service.serving import serve

VAR = "insert_entry_0.key"          # a word_count function parameter
GLOBAL = "bucket_0"                 # a word_count global object


def _request(name="word_count"):
    return AnalysisRequest(name=name,
                           source=get_workload(name).source(1),
                           config=FSAMConfig())


def _query(var=VAR, obj=False, line=None):
    return QueryRequest(request=_request(), var=var, line=line, obj=obj)


class TestQueryRunner:
    def test_cold_query_solves(self):
        row = QueryRunner().run(_query())
        assert row["status"] == "ok"
        assert row["cache"] == "miss"
        assert row["var"] == VAR
        assert row["iterations"] >= 0
        assert isinstance(row["pts"], list)
        assert 0.0 <= row["slice_fraction"] <= 1.0

    def test_disk_round_trip_is_byte_identical(self, tmp_path):
        store = QueryArtifactStore(tmp_path)
        runner = QueryRunner(querystore=store)
        cold = runner.run(_query())
        warm = QueryRunner(querystore=store).run(_query())
        assert warm["cache"] == "hit"
        assert warm["iterations"] == 0
        assert warm["pts"] == cold["pts"]
        assert warm["mask"] == cold["mask"]
        assert warm["slice_nodes"] == cold["slice_nodes"]
        assert warm["query_digest"] == cold["query_digest"]

    def test_same_runner_second_query_is_engine_warm(self):
        runner = QueryRunner()
        assert runner.run(_query())["cache"] == "miss"
        assert runner.run(_query())["cache"] == "warm"

    def test_object_query(self):
        row = QueryRunner().run(_query(var=GLOBAL, obj=True))
        assert row["status"] == "ok"
        assert row["obj"] is True

    def test_unknown_var_raises_to_caller(self):
        with pytest.raises(ValueError, match="no top-level variable"):
            QueryRunner().run(_query(var="nope_not_a_var"))

    def test_store_obs_counters(self, tmp_path):
        store = QueryArtifactStore(tmp_path)
        runner = QueryRunner(querystore=store)
        runner.run(_query())
        runner2 = QueryRunner(querystore=store)
        runner2.run(_query())
        obs = Observer(name="t", track_memory=False)
        runner2.flush_obs(obs)
        counters = obs.to_metrics_dict()["counters"]
        assert counters["query.cache_hits"] == 1

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        store = QueryArtifactStore(tmp_path)
        runner = QueryRunner(querystore=store)
        digest = runner.run(_query())["query_digest"]
        path = store.root / digest[:2] / f"{digest[2:]}.json"
        path.write_text("{ corrupt")
        fresh = QueryArtifactStore(tmp_path)
        assert fresh.get(digest) is None
        assert QueryRunner(querystore=fresh).run(_query())["cache"] == "miss"


class TestQueryArtifact:
    def _artifact(self):
        runner = QueryRunner()
        query = _query()
        result_row = runner.run(query)
        pipeline = runner._pipeline(query.request, query.request.digest())
        answer = pipeline.query(VAR)
        return artifact_from_query(query.request.digest(), answer)

    def test_validates(self):
        doc = self._artifact()
        validate_queryartifact(doc)
        # Documents written with the former slice_signature field
        # still load.
        doc["slice_signature"] = "0" * 64
        validate_queryartifact(doc)

    def test_rejects_bad_mask(self):
        doc = self._artifact()
        doc["answer"]["mask"] = "not hex"
        with pytest.raises(ValueError):
            validate_queryartifact(doc)

    def test_rejects_wrong_schema(self):
        doc = self._artifact()
        doc["schema"] = "repro.artifact/1"
        with pytest.raises(ValueError):
            validate_queryartifact(doc)


class TestBatchQueries:
    def test_queries_run_after_dispatch(self, tmp_path):
        report = run_batch([_request()], workers=1,
                           cache=ArtifactCache(tmp_path),
                           queries=[_query(), _query(var="missing_var")])
        doc = report.to_dict()
        validate_batch_report(doc)
        rows = doc["queries"]
        assert [row["status"] for row in rows] == ["ok", "error"]
        assert rows[0]["cache"] in ("hit", "warm", "miss")
        assert rows[1]["error"]["type"] == "ValueError"
        counters = doc["metrics"]["counters"]
        assert counters["batch.queries"] == 2
        assert counters["batch.query_errors"] == 1

    def test_report_without_queries_backward_compatible(self):
        doc = run_batch([_request()], workers=1).to_dict()
        validate_batch_report(doc)
        assert doc["queries"] == []
        legacy = dict(doc)
        del legacy["queries"]
        validate_batch_report(legacy)


class TestServeQueries:
    ENTRY = json.dumps({"op": "query", "workload": "word_count",
                        "var": VAR, "id": 7})

    def test_query_entry(self, tmp_path):
        # A second session on the same cache answers from the store.
        cache_root = str(tmp_path / "cache")
        first = serve([self.ENTRY], cache_root=cache_root).answer(7)
        second = serve([self.ENTRY], cache_root=cache_root).answer(7)
        assert first["op"] == "query" and first["status"] == "ok"
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert second["pts"] == first["pts"]

    def test_bad_query_is_structured_error(self):
        session = serve([
            json.dumps({"op": "query", "workload": "word_count",
                        "var": "missing_var", "id": "bad"}),
            json.dumps({"workload": "word_count", "id": "ok"}),
        ])
        assert session.answer("bad")["status"] == "error"
        assert session.answer("ok")["status"] == "ok"

    def test_query_counters(self, tmp_path):
        cache_root = str(tmp_path / "cache")
        cold = serve([self.ENTRY], cache_root=cache_root)
        assert cold.counters["query.requests"] == 1
        assert cold.counters["query.cache_stores"] == 1
        warm = serve([self.ENTRY], cache_root=cache_root)
        assert warm.counters["query.requests"] == 1
        assert warm.counters["query.cache_hits"] == 1


class TestSpecParsing:
    def test_query_entries_split_out(self):
        spec = {"requests": [
            {"workload": "word_count"},
            {"op": "query", "workload": "word_count", "var": VAR,
             "line": 3, "obj": False},
        ]}
        requests, options = requests_from_spec(spec)
        assert len(requests) == 1
        queries = options["queries"]
        assert len(queries) == 1
        assert queries[0].var == VAR
        assert queries[0].line == 3

    def test_query_entry_validation(self):
        with pytest.raises(ValueError):
            query_from_entry({"op": "query", "workload": "word_count"})
        with pytest.raises(ValueError):
            query_from_entry({"op": "query", "workload": "word_count",
                              "var": ""})
        with pytest.raises(ValueError):
            query_from_entry({"op": "query", "workload": "word_count",
                              "var": VAR, "line": "five"})
        with pytest.raises(ValueError):
            query_from_entry({"op": "query", "workload": "word_count",
                              "var": VAR, "obj": "yes"})

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown request op"):
            requests_from_spec({"requests": [
                {"op": "explode", "workload": "word_count"}]})
