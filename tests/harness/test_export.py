"""CSV/JSON export tests (synthetic measurements)."""

import csv
import io
import json

from repro.harness.export import figure12_to_csv, table2_to_csv, table2_to_json
from repro.harness.measure import Measurement


def m(analysis, seconds, entries, oot=False, edges=3):
    profile = {"phases": [{"name": "sparse_solve", "seconds": seconds / 2,
                           "children": []}]}
    return Measurement(name="p", analysis=analysis, seconds=seconds,
                       peak_memory_mb=1.0, points_to_entries=entries,
                       oot=oot, thread_edges=edges, profile=profile)


ROWS = [
    {"benchmark": "alpha", "fsam": m("fsam", 1.0, 10),
     "nonsparse": m("nonsparse", 5.0, 100)},
    {"benchmark": "beta", "fsam": m("fsam", 2.0, 20),
     "nonsparse": m("nonsparse", 30.0, 0, oot=True)},
]


class TestTable2Export:
    def test_json_roundtrip(self):
        payload = json.loads(table2_to_json(ROWS))
        assert payload[0]["benchmark"] == "alpha"
        assert payload[0]["nonsparse"]["seconds"] == 5.0
        assert payload[1]["nonsparse"]["oot"] is True
        assert payload[1]["nonsparse"]["seconds"] is None

    def test_csv_shape(self):
        text = table2_to_csv(ROWS)
        records = list(csv.reader(io.StringIO(text)))
        assert records[0][0] == "benchmark"
        assert records[1][0] == "alpha"
        assert records[2][5] == "1"    # oot flag
        assert records[2][2] == ""     # no nonsparse time on OOT


class TestFigure12Export:
    def test_csv_columns(self):
        rows = [{
            "benchmark": "alpha",
            "base": m("fsam", 1.0, 10, edges=7),
            "No-Interleaving": m("fsam", 1.2, 10, edges=9),
            "No-Value-Flow": m("fsam", 3.0, 10, edges=90),
            "No-Lock": m("fsam", 1.1, 10, edges=8),
        }]
        text = figure12_to_csv(rows)
        records = list(csv.reader(io.StringIO(text)))
        assert "no_value_flow_edges" in records[0]
        row = dict(zip(records[0], records[1]))
        assert row["base_edges"] == "7"
        assert row["no_value_flow_edges"] == "90"
        # Solve times come from the profile's sparse_solve phase, the
        # same reading the rendered figure uses.
        assert row["base_solve_s"] == "0.50000"
        assert row["no_value_flow_solve_s"] == "1.50000"

    def test_csv_and_figure_share_resolution_time(self):
        from repro.harness.tables import render_figure12, resolution_seconds
        no_solve = m("fsam", 4.0, 10)
        no_solve.profile = {"phases": []}   # out of time before the solve
        rows = [{"benchmark": "alpha", "base": m("fsam", 1.0, 10),
                 "No-Interleaving": no_solve,
                 "No-Value-Flow": m("fsam", 3.0, 10),
                 "No-Lock": m("fsam", 1.0, 10)}]
        assert resolution_seconds(rows[0]["base"]) == 0.5
        assert resolution_seconds(no_solve) == 4.0
        row = dict(zip(*csv.reader(io.StringIO(figure12_to_csv(rows)))))
        assert row["no_interleaving_solve_s"] == "4.00000"
        assert "8.00x" in render_figure12(rows)   # 4.0 / 0.5
