"""Renderer unit tests with synthetic measurements (no analysis runs)."""

from repro.harness.measure import Measurement
from repro.harness.tables import render_figure12, render_table2


def m(name, analysis, seconds, entries, oot=False, solve=0.01, edges=0):
    profile = {"phases": [
        {"name": "value_flow", "seconds": 0.0, "children": []},
        {"name": "sparse_solve", "seconds": solve, "children": []},
    ]}
    return Measurement(name=name, analysis=analysis, seconds=seconds,
                       peak_memory_mb=seconds * 10.0,
                       points_to_entries=entries, oot=oot,
                       thread_edges=edges, profile=profile)


class TestTable2Renderer:
    def test_normal_rows_and_average(self):
        rows = [
            {"benchmark": "a", "fsam": m("a", "fsam", 1.0, 100),
             "nonsparse": m("a", "nonsparse", 10.0, 1000)},
            {"benchmark": "b", "fsam": m("b", "fsam", 2.0, 200),
             "nonsparse": m("b", "nonsparse", 8.0, 2000)},
        ]
        text = render_table2(rows)
        assert "10.0x" in text          # per-row speedup
        assert "speedup 7.0x" in text   # average of 10x and 4x
        assert "OOT" not in text

    def test_oot_rows_excluded_from_average(self):
        rows = [
            {"benchmark": "big", "fsam": m("big", "fsam", 5.0, 100),
             "nonsparse": m("big", "nonsparse", 30.0, 0, oot=True)},
        ]
        text = render_table2(rows)
        assert "OOT" in text
        assert "NONSPARSE OOT on: big" in text

    def test_display_helpers(self):
        fine = m("x", "fsam", 1.5, 10)
        dead = m("x", "nonsparse", 30.0, 0, oot=True)
        assert fine.display_time() == "1.50"
        assert dead.display_time() == "OOT"
        assert dead.display_memory() == "OOT"


class TestFigure12Renderer:
    def test_slowdowns_and_edges(self):
        base = m("prog", "fsam", 1.0, 10, solve=0.1, edges=10)
        rows = [{
            "benchmark": "prog",
            "base": base,
            "No-Interleaving": m("prog", "fsam", 1.2, 10, solve=0.12, edges=20),
            "No-Value-Flow": m("prog", "fsam", 3.0, 10, solve=0.50, edges=500),
            "No-Lock": m("prog", "fsam", 1.0, 10, solve=0.11, edges=12),
        }]
        text = render_figure12(rows)
        assert "5.00x" in text        # 0.50 / 0.10 solve slowdown
        assert "No-Value-Flow 500(50.0x)" in text
        assert "Average slowdowns" in text
