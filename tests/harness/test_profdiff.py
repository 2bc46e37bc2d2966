"""Profile regression comparison (repro diff-profile)."""

import pytest

from repro.harness import diff_profiles, render_profile_diff
from repro.obs import Observer


def make_profile(name="run", counters=None, gauges=None, phases=("a", "b")):
    obs = Observer(name=name)
    for phase in phases:
        with obs.phase(phase):
            pass
    for key, value in (counters or {}).items():
        obs.count(key, value)
    for key, value in (gauges or {}).items():
        obs.gauge(key, value)
    return obs.to_dict()


def make_metrics(name="run", counters=None, observations=(0.5, 1.0),
                 phases=("a", "b")):
    obs = Observer(name=name, track_memory=False)
    for phase in phases:
        with obs.phase(phase):
            pass
    for key, value in (counters or {}).items():
        obs.count(key, value)
    for value in observations:
        obs.observe("pool.run_seconds", value)
    return obs.to_metrics_dict()


class TestDiff:
    def test_common_phases_get_ratios(self):
        diff = diff_profiles(make_profile(), make_profile())
        assert {d.path for d in diff.phases} == {"a", "b"}
        for delta in diff.phases:
            assert delta.status == "common"
            assert delta.seconds_ratio is None or delta.seconds_ratio > 0

    def test_added_and_removed_phases(self):
        diff = diff_profiles(make_profile(phases=("a", "old")),
                             make_profile(phases=("a", "new")))
        by_path = {d.path: d for d in diff.phases}
        assert by_path["old"].status == "removed"
        assert by_path["new"].status == "added"
        assert by_path["a"].status == "common"

    def test_counter_drift(self):
        diff = diff_profiles(
            make_profile(counters={"x": 1, "same": 5, "gone": 2}),
            make_profile(counters={"x": 3, "same": 5, "fresh": 7}))
        drift = diff.changed_counters()
        assert drift == {"x": (1, 3), "gone": (2, None), "fresh": (None, 7)}
        assert "same" not in drift

    def test_gauge_drift(self):
        diff = diff_profiles(make_profile(gauges={"g": 1.0}),
                             make_profile(gauges={"g": 2.5}))
        assert diff.changed_gauges() == {"g": (1.0, 2.5)}

    def test_rejects_malformed_document(self):
        with pytest.raises(ValueError):
            diff_profiles({"schema": "bogus"}, make_profile())

    def test_nested_phases_flatten_to_paths(self):
        obs = Observer(name="n")
        with obs.phase("outer"):
            with obs.phase("inner"):
                pass
        diff = diff_profiles(obs.to_dict(), obs.to_dict())
        assert {d.path for d in diff.phases} == {"outer", "outer/inner"}


class TestMetricsDocs:
    def test_metrics_doc_on_both_sides(self):
        diff = diff_profiles(make_metrics(), make_metrics())
        assert {d.path for d in diff.phases} == {"a", "b"}
        # Metrics snapshots carry no per-phase memory: peaks read 0.
        assert all(d.peak_kb_a == 0.0 and d.peak_kb_b == 0.0
                   for d in diff.phases)

    def test_metrics_doc_against_profile(self):
        diff = diff_profiles(make_profile(phases=("a",)),
                             make_metrics(phases=("a", "extra")))
        by_path = {d.path: d for d in diff.phases}
        assert by_path["a"].status == "common"
        assert by_path["extra"].status == "added"

    def test_histogram_drift(self):
        diff = diff_profiles(make_metrics(observations=(0.5,)),
                             make_metrics(observations=(0.5, 4.0, 4.0)))
        drift = diff.changed_histograms()
        assert "pool.run_seconds" in drift
        before, after = drift["pool.run_seconds"]
        assert before[0] == 1 and after[0] == 3
        assert after[2] >= before[2]     # p99 grew

    def test_identical_histograms_not_drift(self):
        diff = diff_profiles(make_metrics(), make_metrics())
        assert diff.changed_histograms() == {}

    def test_rejects_malformed_metrics(self):
        bad = make_metrics()
        bad["histograms"]["pool.run_seconds"]["count"] = -1
        with pytest.raises(ValueError):
            diff_profiles(bad, make_metrics())

    def test_render_includes_histogram_drift(self):
        text = render_profile_diff(
            diff_profiles(make_metrics(observations=(0.5,)),
                          make_metrics(observations=(0.5, 4.0))))
        assert "histogram drift" in text
        assert "pool.run_seconds" in text
        assert "n=1" in text and "n=2" in text


class TestRender:
    def test_mentions_everything(self):
        diff = diff_profiles(
            make_profile(name="old", counters={"c": 1}, phases=("a", "gone")),
            make_profile(name="new", counters={"c": 2}, phases=("a", "born")))
        text = render_profile_diff(diff)
        assert "old" in text and "new" in text
        assert "(removed)" in text and "(added)" in text
        assert "c" in text and "1 -> 2" in text

    def test_no_drift_is_stated(self):
        text = render_profile_diff(diff_profiles(make_profile(),
                                                 make_profile()))
        assert "no drift" in text


class TestQueryZeroDefaults:
    """Profiles predating the demand-query engine have no query.*
    section; diffing them against a current profile must read 0 -> N,
    not refuse or report an unknown baseline."""

    def make_query_metrics(self):
        obs = Observer(name="with-queries", track_memory=False)
        obs.count("query.requests", 3)
        obs.count("query.engine_hits", 2)
        obs.observe("query.seconds", 0.002)
        obs.observe("pool.run_seconds", 0.5)
        return obs.to_metrics_dict()

    def test_missing_query_counters_diff_as_zero(self):
        diff = diff_profiles(make_metrics(), self.make_query_metrics())
        drift = diff.changed_counters()
        assert drift["query.requests"] == (0, 3)
        assert drift["query.engine_hits"] == (0, 2)

    def test_missing_query_histogram_diffs_as_empty(self):
        diff = diff_profiles(make_metrics(), self.make_query_metrics())
        before, after = diff.changed_histograms()["query.seconds"]
        assert before == (0, 0.0, 0.0)
        assert after[0] == 1

    def test_non_query_counters_keep_none_baseline(self):
        new = make_metrics(counters={"serve.errors": 1})
        diff = diff_profiles(make_metrics(), new)
        assert diff.changed_counters()["serve.errors"] == (None, 1)

    def test_render_survives_query_only_drift(self):
        text = render_profile_diff(
            diff_profiles(make_metrics(), self.make_query_metrics()))
        assert "query.requests" in text
        assert "0 -> 3" in text
