"""The measurement window must close when the analysis returns.

Regression tests for a harness bug where the clock (and tracemalloc
snapshot) were taken *after* stats extraction, billing the post-run
walk over every points-to set to the analysis itself.
"""

import time

from repro.fsam.config import AnalysisTimeout
from repro.harness.measure import Measurement, _measured, measure_fsam
from repro.obs import Observer

EXTRACTION_DELAY = 0.25


class SlowStatsResult:
    """A fake analysis result whose stats extraction is slow."""

    def __init__(self):
        self.dug = None

    def points_to_entries(self):
        time.sleep(EXTRACTION_DELAY)
        return 42


class TestWindow:
    def test_stats_extraction_not_billed(self):
        m = _measured("w", "fsam", SlowStatsResult)
        assert m.points_to_entries == 42
        assert m.seconds < EXTRACTION_DELAY / 2

    def test_oot_still_reports_time(self):
        def thunk():
            raise AnalysisTimeout("budget")
        m = _measured("w", "fsam", thunk)
        assert m.oot
        assert m.seconds >= 0
        assert m.points_to_entries == 0

    def test_observer_peak_folded_into_memory(self):
        obs = Observer(name="w")
        # Simulate per-phase tracking having reset tracemalloc's peak:
        # the observer's folded maximum must win over the raw snapshot.
        obs.peak_traced_bytes = 64 * 1024 * 1024
        m = _measured("w", "fsam", SlowStatsResult, obs=obs)
        assert m.peak_memory_mb >= 64.0
        assert m.profile is not None
        assert m.profile["schema"] == "repro.obs/1"

    def test_measure_fsam_attaches_profile(self):
        src = "int A; int *p; int main() { p = &A; return 0; }"
        m = measure_fsam("tiny", src)
        assert isinstance(m, Measurement)
        assert m.profile is not None
        names = [p["name"] for p in m.profile["phases"]]
        assert "sparse_solve" in names
        assert m.profile["counters"]["solver.iterations"] > 0
