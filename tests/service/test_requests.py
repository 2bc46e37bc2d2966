"""Request digests (the cache key) and batch-spec parsing."""

import json

import pytest

from repro.fsam.config import FSAMConfig
from repro.minic.lexer import MAX_SOURCE_CHARS
from repro.service.requests import (
    MAX_SCALE, AnalysisRequest, request_digest, request_from_entry,
    requests_from_spec,
)
from repro.workloads import WORKLOADS

SOURCE = "int main() { return 0; }"


class TestRequestDigest:
    def test_stable(self):
        assert request_digest(SOURCE, FSAMConfig()) == \
            request_digest(SOURCE, FSAMConfig())

    def test_source_participates(self):
        assert request_digest(SOURCE, FSAMConfig()) != \
            request_digest(SOURCE + " ", FSAMConfig())

    def test_fixpoint_config_participates(self):
        assert request_digest(SOURCE, FSAMConfig()) != \
            request_digest(SOURCE, FSAMConfig(interleaving=False))
        assert request_digest(SOURCE, FSAMConfig()) != \
            request_digest(SOURCE, FSAMConfig(value_flow=False))

    def test_execution_knobs_do_not_participate(self):
        base = request_digest(SOURCE, FSAMConfig())
        # Budget and engine selection change how a run executes,
        # never what fixpoint it computes.
        assert base == request_digest(SOURCE, FSAMConfig(time_budget=1.0))
        assert base == request_digest(
            SOURCE, FSAMConfig(solver_engine="reference"))

    def test_code_version_participates(self):
        assert request_digest(SOURCE, FSAMConfig()) != \
            request_digest(SOURCE, FSAMConfig(), code_version="other")


class TestConfigWireForm:
    def test_round_trip(self):
        config = FSAMConfig(interleaving=False, time_budget=2.5,
                            lock_analysis=False,
                            solver_engine="reference")
        assert FSAMConfig.from_dict(config.to_dict()) == config

    def test_five_fields(self):
        assert sorted(FSAMConfig().to_dict()) == sorted([
            "interleaving", "value_flow", "lock_analysis", "time_budget",
            "solver_engine"])

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown FSAMConfig"):
            FSAMConfig.from_dict({"interleavings": True})

    def test_partial_dict_fills_defaults(self):
        config = FSAMConfig.from_dict({"value_flow": False})
        assert not config.value_flow
        assert config.interleaving

    def test_request_payload_round_trip(self):
        request = AnalysisRequest(name="r", source=SOURCE,
                                  config=FSAMConfig(lock_analysis=False),
                                  timeout=7.0)
        back = AnalysisRequest.from_payload(request.to_payload())
        assert back == request
        assert back.digest() == request.digest()


class TestRequestFromEntry:
    def test_workload_entry(self):
        request = request_from_entry({"workload": "word_count"})
        assert request.name == "word_count"
        assert "fork" in request.source

    def test_file_entry_uses_base_dir(self, tmp_path):
        (tmp_path / "p.mc").write_text(SOURCE)
        request = request_from_entry({"file": "p.mc"}, base_dir=str(tmp_path))
        assert request.source == SOURCE
        assert request.name == "p.mc"

    def test_inline_source_needs_name(self):
        with pytest.raises(ValueError, match="need a name"):
            request_from_entry({"source": SOURCE})
        request = request_from_entry({"source": SOURCE, "name": "tiny"})
        assert request.name == "tiny"

    def test_exactly_one_program_key(self):
        with pytest.raises(ValueError, match="exactly one way"):
            request_from_entry({"workload": "word_count", "source": SOURCE})
        with pytest.raises(ValueError, match="exactly one way"):
            request_from_entry({"name": "nothing"})

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            request_from_entry({"workload": "word_count", "timeout": "fast"})

    @pytest.mark.parametrize("value", [True, 0, -1])
    def test_non_positive_timeout_rejected(self, value):
        # JSON true is not one second, and no deadline is at or below 0.
        with pytest.raises(ValueError, match="timeout"):
            request_from_entry({"workload": "word_count", "timeout": value})

    @pytest.mark.parametrize("value", [True, -1, 1.5, "2", None,
                                       MAX_SCALE + 1, 8000])
    def test_bad_scale_rejected(self, value):
        # Refused before any source is generated.
        with pytest.raises(ValueError, match="scale"):
            request_from_entry({"workload": "raytrace", "scale": value})

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_fits_the_scanner_at_max_scale(self, name):
        request = request_from_entry({"workload": name,
                                      "scale": MAX_SCALE})
        assert len(request.source) <= MAX_SOURCE_CHARS

    def test_config_propagates(self):
        request = request_from_entry({
            "workload": "word_count",
            "config": {"interleaving": False}, "timeout": 3})
        assert not request.config.interleaving
        assert request.timeout == 3


class TestSpecParsing:
    def test_spec_round_trip(self, tmp_path):
        spec = {
            "workers": 2, "cache": ".c", "timeout": 9,
            "requests": [{"workload": "word_count"},
                         {"source": SOURCE, "name": "tiny"}],
        }
        requests, options = requests_from_spec(
            json.loads(json.dumps(spec)), base_dir=str(tmp_path))
        assert [r.name for r in requests] == ["word_count", "tiny"]
        assert options == {"workers": 2, "cache": ".c", "timeout": 9}

    @pytest.mark.parametrize("field,value", [("trace", True),
                                             ("solver_mode", "demand")])
    def test_run_mode_config_rejected(self, field, value):
        """A spec entry whose config names a run mode is a spec error,
        not a request that runs (and caches) under the full analysis's
        key."""
        spec = {"requests": [{"source": SOURCE, "name": "tiny",
                              "config": {field: value}}]}
        with pytest.raises(ValueError, match=field):
            requests_from_spec(spec)

    @pytest.mark.parametrize("field,value", [
        ("workers", "two"), ("workers", 0), ("workers", True),
        ("workers", 1.5), ("timeout", "5"), ("timeout", -1),
        ("timeout", True), ("cache", 5)])
    def test_bad_option_rejected(self, field, value):
        spec = {field: value,
                "requests": [{"source": SOURCE, "name": "tiny"}]}
        with pytest.raises(ValueError, match=field):
            requests_from_spec(spec)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            requests_from_spec({"requests": []})
        with pytest.raises(ValueError, match="not a JSON object"):
            requests_from_spec([])
