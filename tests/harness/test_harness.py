"""Measurement and table-rendering tests (small scales)."""

from repro.harness import (
    BASELINE_BUDGET, BENCH_SCALES, measure_fsam, measure_nonsparse,
    render_figure12, render_table1, render_table2, run_figure12, run_table1,
    run_table2,
)
from repro.harness.scales import SMOKE_SCALES
from repro.workloads import get_workload

SMALL = {"word_count": 1, "kmeans": 1}


class TestMeasure:
    def test_fsam_measurement_fields(self):
        src = get_workload("kmeans").source(1)
        m = measure_fsam("kmeans", src)
        assert m.analysis == "fsam"
        assert m.seconds > 0
        assert m.points_to_entries > 0
        assert not m.oot
        names = [phase["name"] for phase in m.profile["phases"]]
        assert "sparse_solve" in names

    def test_nonsparse_measurement(self):
        src = get_workload("kmeans").source(1)
        m = measure_nonsparse("kmeans", src, budget=60)
        assert m.analysis == "nonsparse"
        assert m.points_to_entries > 0

    def test_oot_flagged(self):
        src = get_workload("radiosity").source(2)
        m = measure_nonsparse("radiosity", src, budget=0.001)
        assert m.oot
        assert m.display_time() == "OOT"


class TestTables:
    def test_table1_rows(self):
        rows = run_table1(scales=SMOKE_SCALES)
        assert len(rows) == 10
        text = render_table1(rows)
        assert "word_count" in text and "x264" in text
        assert "380659" in text  # the paper total

    def test_table2_small(self):
        rows = run_table2(scales=SMALL, budget=120, names=list(SMALL))
        text = render_table2(rows)
        assert "word_count" in text and "speedup" in text
        for row in rows:
            assert not row["fsam"].oot

    def test_figure12_small(self):
        rows = run_figure12(scales=SMALL, names=["word_count"])
        text = render_figure12(rows)
        assert "No-Interleaving" in text
        assert "No-Value-Flow" in text
        assert "No-Lock" in text

    def test_bench_scales_cover_all(self):
        assert set(BENCH_SCALES) == set(
            ["word_count", "kmeans", "radiosity", "automount", "ferret",
             "bodytrack", "httpd_server", "mt_daapd", "raytrace", "x264"])
        assert BASELINE_BUDGET > 0
