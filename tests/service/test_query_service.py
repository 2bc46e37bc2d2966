"""The service-layer query path: runner, batch rows, ``repro serve``,
and spec parsing for ``"op": "query"`` entries.

The fsam-level differential contract (demand answer == whole-program
fixpoint) lives in ``tests/fsam/test_query.py``; here we only care
that the wire plumbing around it is faithful — warm answers really
skip the solver, no query answer lands on disk, and malformed queries
degrade to structured errors without killing the batch or the loop.
"""

from __future__ import annotations

import json

import pytest

from repro.fsam import FSAMConfig
from repro.service.batch import run_batch, validate_batch_report
from repro.service.cache import ArtifactCache
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
        # No query answer persists: a second session on the same cache
        # solves again, to the same answer.
        cache_root = str(tmp_path / "cache")
        first = serve([self.ENTRY], cache_root=cache_root).answer(7)
        second = serve([self.ENTRY], cache_root=cache_root).answer(7)
        assert first["op"] == "query" and first["status"] == "ok"
        assert first["cache"] == second["cache"] == "miss"
        assert second["pts"] == first["pts"]
        assert second["mask"] == first["mask"]

    def test_no_query_store_on_disk(self, tmp_path):
        cache_root = tmp_path / "cache"
        session = serve([self.ENTRY], cache_root=str(cache_root))
        assert session.answer(7)["status"] == "ok"
        assert not (cache_root / "query").exists()

    def test_covered_query_is_answered_warm(self, tmp_path):
        # m2 has one definition, at line 27, so m2 and m2@27 slice the
        # same nodes under different query digests: the second is
        # answered by the shard's warm demand engine. An earlier
        # session on the same cache changes nothing (a disk answer to
        # m2 once left the engine cold, so m2@27 paid a cold solve).
        cache_root = str(tmp_path / "cache")
        entries = [json.dumps({"op": "query", "workload": "word_count",
                               "var": "m2", "id": "all"}),
                   json.dumps({"op": "query", "workload": "word_count",
                               "var": "m2", "line": 27, "id": "at27"})]
        serve(entries[:1], cache_root=cache_root)
        session = serve(entries, cache_root=cache_root)
        cold, warm = session.answer("all"), session.answer("at27")
        assert cold["query_digest"] != warm["query_digest"]
        assert [cold["cache"], warm["cache"]] == ["miss", "warm"]
        assert warm["iterations"] == 0
        assert warm["mask"] == cold["mask"]
        assert warm["slice_nodes"] == cold["slice_nodes"]
        assert session.counters["query.engine_hits"] == 1

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
        for _session in range(2):
            counters = serve([self.ENTRY], cache_root=cache_root).counters
            assert counters["query.requests"] == 1
            assert "query.engine_hits" not in counters
            assert not [name for name in counters
                        if name.startswith("query.cache_")]


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
        with pytest.raises(ValueError, match="line is not an integer"):
            query_from_entry({"op": "query", "workload": "word_count",
                              "var": VAR, "line": True})
        with pytest.raises(ValueError):
            query_from_entry({"op": "query", "workload": "word_count",
                              "var": VAR, "obj": "yes"})

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown request op"):
            requests_from_spec({"requests": [
                {"op": "explode", "workload": "word_count"}]})
