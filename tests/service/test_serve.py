"""The stdin/JSONL serve loop."""

import io
import json

from repro.obs import Observer
from repro.service.cache import ArtifactCache
from repro.service.serve import serve_loop


def _serve(lines, **kwargs):
    out = io.StringIO()
    served = serve_loop(io.StringIO("\n".join(lines) + "\n"), out, **kwargs)
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    return served, responses


class TestServeLoop:
    def test_workload_request(self):
        served, responses = _serve(['{"workload": "word_count"}'])
        assert served == 1
        assert responses[0]["name"] == "word_count"
        assert responses[0]["status"] == "ok"
        assert responses[0]["cache"] == "miss"
        assert responses[0]["summary"]["points_to_entries"] > 0

    def test_id_echoed_back(self):
        _, responses = _serve(['{"workload": "word_count", "id": 42}'])
        assert responses[0]["id"] == 42

    def test_second_request_hits_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _, responses = _serve(['{"workload": "word_count"}'] * 2,
                              cache=cache)
        assert [r["cache"] for r in responses] == ["miss", "hit"]
        assert responses[0]["digest"] == responses[1]["digest"]

    def test_malformed_line_does_not_kill_the_loop(self):
        served, responses = _serve([
            'this is not json',
            '{"no_program": true, "id": "after"}',
            '{"workload": "word_count"}',
        ])
        assert served == 1
        assert "error" in responses[0]
        assert "error" in responses[1]
        assert responses[1]["id"] == "after"
        assert responses[2]["status"] == "ok"

    def test_error_record_is_structured(self):
        """Garbage then a valid request: the garbage line yields a
        typed error record, the valid line is still served."""
        served, responses = _serve([
            '<<< not json >>>',
            '{"workload": "word_count", "id": 3}',
        ])
        assert served == 1
        err = responses[0]
        assert err["status"] == "error"
        assert err["error"]["type"] == "JSONDecodeError"
        assert err["error"]["message"]
        assert responses[1]["id"] == 3
        assert responses[1]["status"] == "ok"

    def test_unserializable_response_degrades_to_error_record(
            self, monkeypatch):
        """A response json cannot encode must not tear down the loop."""
        import repro.service.serve as serve_mod
        from repro.service.runner import RequestOutcome

        class _Artifact:
            degraded = False
            degraded_reason = None
            summary = {"weird": object()}

        def fake_run(request, timeout=None, funcstore=None):
            return RequestOutcome(name=request.name, digest="d0",
                                  artifact=_Artifact(), cache="miss",
                                  seconds=0.0, attempts=1)

        monkeypatch.setattr(serve_mod, "run_inline", fake_run)
        served, responses = _serve([
            '{"workload": "word_count", "id": 9}',
        ])
        assert served == 0
        assert responses[0]["status"] == "error"
        assert responses[0]["error"]["type"] == "TypeError"
        assert "JSON serializable" in responses[0]["error"]["message"]
        assert responses[0]["id"] == 9

    def test_blank_lines_skipped(self):
        served, responses = _serve(["", '{"workload": "word_count"}', ""])
        assert served == 1
        assert len(responses) == 1

    def test_file_entry_uses_base_dir(self, tmp_path):
        (tmp_path / "tiny.mc").write_text("int main() { return 0; }")
        _, responses = _serve(['{"file": "tiny.mc"}'],
                              base_dir=str(tmp_path))
        assert responses[0]["name"] == "tiny.mc"
        assert responses[0]["status"] == "ok"

    def test_obs_counters(self, tmp_path):
        obs = Observer(name="serve")
        _serve(['{"workload": "word_count"}', 'garbage'],
               cache=ArtifactCache(tmp_path), obs=obs)
        assert obs.counters["serve.requests"] == 1
        assert obs.counters["serve.errors"] == 1
        assert obs.counters["cache.stores"] == 1

    def test_degraded_request_served(self):
        _, responses = _serve([
            '{"workload": "raytrace", '
            '"config": {"time_budget": 1e-9}}'])
        assert responses[0]["status"] == "degraded"
        assert responses[0]["degraded_reason"] == "budget-exhausted"


class TestServeDispatch:
    def test_inline_timeout_becomes_budget(self):
        # workers=1 has no process to kill: --timeout becomes the
        # cooperative budget, as in an inline batch.
        served, responses = _serve(['{"workload": "raytrace"}'],
                                   timeout=1e-6)
        assert served == 1
        assert responses[0]["status"] == "degraded"
        assert responses[0]["degraded_reason"] == "budget-exhausted"

    def test_analysis_error_type_same_inline_and_pooled(self):
        bad = '{"source": "int main( { return 0; }", "name": "bad", "id": 4}'
        for workers in (1, 2):
            obs = Observer(name="t")
            served, responses = _serve([bad, '{"workload": "word_count"}'],
                                       workers=workers, obs=obs)
            assert served == 1
            assert responses[0]["status"] == "error"
            assert responses[0]["error"]["type"] == "ParseError"
            assert responses[0]["id"] == 4
            assert responses[1]["status"] == "ok"
            assert obs.counters["serve.errors"] == 1
