"""Unit tests for the observability layer (repro.obs)."""

import gc
import json
import tracemalloc

import pytest

from repro.obs import (
    NULL_OBS, NullObserver, Observer, PROFILE_SCHEMA, profile_to_csv,
    render_profile, validate_profile,
)


class TestCounters:
    def test_count_accumulates(self):
        obs = Observer()
        obs.count("a.x")
        obs.count("a.x", 4)
        assert obs.counter("a.x") == 5

    def test_unknown_counter_is_zero(self):
        assert Observer().counter("never.seen") == 0

    def test_gauge_keeps_latest(self):
        obs = Observer()
        obs.gauge("g", 1)
        obs.gauge("g", 7)
        assert obs.gauges["g"] == 7


class TestPhases:
    def test_nested_phases_build_a_tree(self):
        obs = Observer()
        with obs.phase("outer"):
            with obs.phase("inner"):
                pass
        assert [p.name for p in obs.phases] == ["outer"]
        assert [c.name for c in obs.phases[0].children] == ["inner"]

    def test_phase_seconds_flattens_paths(self):
        obs = Observer()
        with obs.phase("outer"):
            with obs.phase("inner"):
                pass
        seconds = obs.phase_seconds()
        assert set(seconds) == {"outer", "outer/inner"}
        assert seconds["outer"] >= seconds["outer/inner"] >= 0.0

    def test_repeated_phase_names_accumulate_in_flat_view(self):
        obs = Observer()
        with obs.phase("p"):
            pass
        with obs.phase("p"):
            pass
        assert len(obs.phases) == 2
        assert len(obs.phase_seconds()) == 1

    def test_total_seconds_sums_top_level(self):
        obs = Observer()
        with obs.phase("a"):
            pass
        with obs.phase("b"):
            pass
        assert obs.total_seconds() == pytest.approx(
            sum(p.seconds for p in obs.phases))

    def test_exceptions_propagate_out_of_phase(self):
        obs = Observer()
        with pytest.raises(ValueError):
            with obs.phase("boom"):
                raise ValueError("x")
        # The phase still closed cleanly.
        assert [p.name for p in obs.phases] == ["boom"]
        assert obs._stack == []


class TestGcTime:
    def test_collection_charged_to_innermost_phase(self):
        obs = Observer()
        with obs.phase("outer"):
            with obs.phase("inner"):
                gc.collect()
        inner = obs.phases[0].children[0]
        assert inner.gc_seconds > 0.0
        assert obs.phases[0].gc_seconds < inner.gc_seconds
        assert obs.counter("gc.collections") >= 1
        assert obs.counter("gc.gen2_collections") >= 1
        doc = obs.to_dict()
        assert doc["phases"][0]["children"][0]["gc_seconds"] == \
            inner.gc_seconds
        validate_profile(doc)
        assert "gc " in render_profile(doc)

    def test_hook_installed_only_while_a_phase_is_open(self):
        obs = Observer()
        assert obs._on_gc not in gc.callbacks
        with obs.phase("outer"):
            with obs.phase("inner"):
                assert gc.callbacks.count(obs._on_gc) == 1
            assert obs._on_gc in gc.callbacks
        assert obs._on_gc not in gc.callbacks
        gc.collect()  # outside every phase: not counted
        assert obs.counter("gc.collections") == 0

    def test_hook_removed_on_exception(self):
        obs = Observer()
        with pytest.raises(KeyError):
            with obs.phase("outer"):
                with obs.phase("inner"):
                    raise KeyError("x")
        assert obs._on_gc not in gc.callbacks

    def test_validation_rejects_negative_gc_seconds(self):
        obs = Observer()
        with obs.phase("p"):
            pass
        doc = obs.to_dict()
        doc["phases"][0]["gc_seconds"] = -1.0
        with pytest.raises(ValueError, match="gc_seconds"):
            validate_profile(doc)
        del doc["phases"][0]["gc_seconds"]  # documents predating it
        validate_profile(doc)


class TestMemoryTracking:
    def test_per_phase_peaks_with_tracemalloc(self):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            obs = Observer()
            with obs.phase("alloc"):
                blob = ["x" * 64 for _ in range(2000)]
            assert obs.phases[0].peak_traced_bytes > 0
            assert obs.peak_traced_bytes >= obs.phases[0].peak_traced_bytes
            del blob
        finally:
            if not was_tracing:
                tracemalloc.stop()

    def test_run_peak_survives_per_phase_resets(self):
        """reset_peak between phases must not lose the run maximum."""
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            obs = Observer()
            with obs.phase("big"):
                blob = ["y" * 64 for _ in range(4000)]
                del blob
            big_peak = obs.phases[0].peak_traced_bytes
            with obs.phase("small"):
                pass
            assert obs.peak_traced_bytes >= big_peak
        finally:
            if not was_tracing:
                tracemalloc.stop()

    def test_no_tracemalloc_is_fine(self):
        assert not tracemalloc.is_tracing()
        obs = Observer()
        with obs.phase("p"):
            pass
        assert obs.phases[0].peak_traced_bytes == 0


class TestExport:
    def _sample(self):
        obs = Observer(name="sample")
        with obs.phase("solve"):
            with obs.phase("inner"):
                pass
        obs.count("stage.events", 3)
        obs.gauge("stage.size", 11)
        return obs

    def test_to_dict_matches_schema(self):
        doc = self._sample().to_dict()
        assert validate_profile(doc) is doc
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["name"] == "sample"
        # A collection landing inside the sample's phases adds gc.*
        # tallies; everything else must match exactly.
        counters = {name: value for name, value in doc["counters"].items()
                    if not name.startswith("gc.")}
        assert counters == {"stage.events": 3}
        assert doc["gauges"] == {"stage.size": 11}

    def test_to_json_round_trips(self):
        doc = json.loads(self._sample().to_json())
        validate_profile(doc)

    def test_csv_has_all_rows(self):
        csv_text = profile_to_csv(self._sample().to_dict())
        lines = csv_text.strip().splitlines()
        assert lines[0] == "kind,name,value"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"phase_seconds", "phase_peak_traced_kb",
                         "counter", "gauge"}
        assert any(line.startswith("phase_seconds,solve/inner,")
                   for line in lines)

    def test_render_profile_mentions_everything(self):
        doc = self._sample().to_dict()
        doc["phases"][0]["rss_kb"] = 123456
        text = render_profile(doc)
        assert "solve" in text
        assert "stage.events" in text
        assert "stage.size" in text
        # The process peak RSS at phase exit, next to gc and peak.
        assert "rss 123456 KiB" in text


class TestValidation:
    def test_rejects_wrong_schema(self):
        doc = Observer().to_dict()
        doc["schema"] = "bogus/9"
        with pytest.raises(ValueError, match="schema"):
            validate_profile(doc)

    def test_rejects_negative_counter(self):
        doc = Observer().to_dict()
        doc["counters"] = {"x": -1}
        with pytest.raises(ValueError, match="counter"):
            validate_profile(doc)

    def test_rejects_phase_without_name(self):
        doc = Observer().to_dict()
        doc["phases"] = [{"seconds": 0.0, "peak_traced_kb": 0.0,
                          "rss_kb": None, "children": []}]
        with pytest.raises(ValueError, match="name"):
            validate_profile(doc)

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError):
            validate_profile([])


class TestNullObserver:
    def test_is_disabled_and_free(self):
        assert NULL_OBS.enabled is False
        assert isinstance(NULL_OBS, NullObserver)
        NULL_OBS.count("anything", 5)
        NULL_OBS.gauge("anything", 5)
        with NULL_OBS.phase("p"):
            pass
        assert NULL_OBS.counters == {}
        assert NULL_OBS.gauges == {}
        assert NULL_OBS.phases == []

    def test_phase_scope_is_shared(self):
        assert NULL_OBS.phase("a") is NULL_OBS.phase("b")

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            with NULL_OBS.phase("p"):
                raise RuntimeError("x")


class TestDeepNesting:
    def test_render_profile_survives_depth_20(self):
        # Regression: the shrinking name column went to a negative
        # field width at depth >= 15, which is a ValueError in
        # format(). Deep phase trees must render, just unaligned.
        obs = Observer(name="deep")
        from contextlib import ExitStack
        with ExitStack() as stack:
            for i in range(20):
                stack.enter_context(obs.phase(f"level{i}"))
        text = render_profile(obs.to_dict())
        assert "level19" in text

    def test_validate_accepts_deep_tree(self):
        obs = Observer()
        from contextlib import ExitStack
        with ExitStack() as stack:
            for i in range(20):
                stack.enter_context(obs.phase(f"level{i}"))
        validate_profile(obs.to_dict())


class TestRssKb:
    def test_platform_decides_units_not_magnitude(self, monkeypatch):
        # ru_maxrss is bytes on macOS, KiB on Linux. A >4 GiB RSS on
        # Linux must come back exact, not divided by 1024 because it
        # happens to look byte-sized.
        from repro import obs as obs_module

        class FakeUsage:
            ru_maxrss = 8 << 32  # 32 TiB-as-KiB on Linux, 32 GiB on mac

        class FakeResource:
            RUSAGE_SELF = 0

            @staticmethod
            def getrusage(_who):
                return FakeUsage()

        monkeypatch.setattr(obs_module, "_resource", FakeResource)
        monkeypatch.setattr(obs_module.sys, "platform", "linux", raising=False)
        assert obs_module._rss_kb() == 8 << 32
        monkeypatch.setattr(obs_module.sys, "platform", "darwin", raising=False)
        assert obs_module._rss_kb() == (8 << 32) // 1024

    def test_no_resource_module_is_none(self, monkeypatch):
        from repro import obs as obs_module
        monkeypatch.setattr(obs_module, "_resource", None)
        assert obs_module._rss_kb() is None


class TestNullScopeContract:
    """The phase scope yields None under NullObserver; call sites must
    not dereference the yielded record."""

    def test_null_phase_yields_none(self):
        with NULL_OBS.phase("p") as record:
            assert record is None

    def test_real_phase_yields_record(self):
        obs = Observer()
        with obs.phase("p") as record:
            assert record is not None
            assert record.name == "p"

    def test_no_call_site_binds_the_phase_record(self):
        # Instrumented code must treat the yielded record as opaque
        # (None under NULL_OBS), so no call site may bind it with
        # `with obs.phase(...) as rec`. Scan the sources.
        import pathlib
        import re
        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        pattern = re.compile(r"\.phase\([^)]*\)\s+as\s+\w+")
        offenders = []
        for path in src.rglob("*.py"):
            if path.name == "obs.py":
                continue  # the implementation itself may self-test
            for i, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.search(line):
                    offenders.append(f"{path.name}:{i}: {line.strip()}")
        assert not offenders, offenders
