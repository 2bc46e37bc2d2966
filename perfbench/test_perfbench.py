"""Self-tests of the benchmark: its oracles catch wrong outputs, its
input pins catch changed inputs, its layer sums reconcile and the
gateway workload tears down cleanly.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench import run, spans, stats, workloads  # noqa: E402

SMALL = ("kmeans", "word_count")


@pytest.fixture
def small_programs(monkeypatch):
    """Shrink every workload's program set to two small programs."""
    monkeypatch.setattr(workloads, "ALL_PROGRAMS", SMALL)
    monkeypatch.setattr(workloads, "EDIT_PROGRAMS", SMALL)
    monkeypatch.setattr(workloads, "QUERY_PROGRAMS", SMALL)
    monkeypatch.setattr(workloads, "GATEWAY_EDIT_PROGRAMS", SMALL)
    monkeypatch.setattr(workloads, "GATEWAY_QUERY_PROGRAMS", SMALL)


def corrupted(cls, key):
    """*cls* with one oracle answer replaced by a wrong one."""

    class Corrupted(cls):
        def setup(self):
            super().setup()
            self.expected[key(self)] = "0" * 64

    return Corrupted


def failed_ratio(report) -> float:
    return report.failed / report.attempted


@pytest.mark.usefixtures("small_programs")
def test_cold_suite_oracle_catches_a_wrong_digest():
    assert failed_ratio(workloads.ColdSuite(1).run(0.01, False)) == 0
    bad = corrupted(workloads.ColdSuite, lambda w: "kmeans")(1)
    assert failed_ratio(bad.run(0.01, False)) > 0


@pytest.mark.usefixtures("small_programs")
def test_query_stream_oracle_catches_a_wrong_mask():
    good = workloads.QueryStream(1)
    assert failed_ratio(good.run(0.05, False)) == 0
    # Corrupt the hottest query so the stream is sure to ask it.
    bad = corrupted(workloads.QueryStream,
                    lambda w: next(w.sequence(w.seed)[0]))(1)
    assert failed_ratio(bad.run(0.05, False)) > 0


@pytest.mark.usefixtures("small_programs")
def test_traced_layers_reconcile_with_operation_time():
    report = workloads.ColdSuite(2).run(0.01, True)
    metrics = run.per_layer(report)
    total = sum(metrics[name]["value"] for name in spans.LAYER_TIMES) \
        + metrics["unattributed_s"]["value"]
    assert math.isclose(total, metrics["trace.op_s"]["value"],
                        rel_tol=1e-9)
    assert metrics["fsam.schedule_s"]["value"] > 0
    assert metrics["fsam.solve_s"]["value"] > 0
    assert metrics["minic.parse_s"]["value"] > 0
    assert metrics["fsam.query_s"]["value"] == 0


@pytest.mark.usefixtures("small_programs")
def test_changed_inputs_are_refused():
    workload = workloads.ColdSuite(3)
    report = workload.run(0.01, False)
    pinned = {"seed": 0, "sources": dict(report.fingerprint["sources"]),
              "sequence_sha256":
              workloads.fingerprint(workload, 0)["sequence_sha256"]}
    manifest = {"workloads": {"cold_suite": {"inputs": pinned}}}
    assert run.check_pins(workload, manifest, report.fingerprint) == []
    pinned["sources"]["kmeans@3"] = "0" * 64
    pinned["sequence_sha256"] = "0" * 64
    assert len(run.check_pins(workload, manifest, report.fingerprint)) == 2


@pytest.mark.usefixtures("small_programs")
def test_gateway_mix_checks_outputs_and_tears_down():
    report = workloads.GatewayMix(4).run(0.5, False)
    assert report.attempted > 0 and report.failed == 0
    assert report.notes["teardown"] == {"children": 0,
                                        "cache_removed": True}


def test_compare_refuses_different_inputs(tmp_path):
    record = {"fingerprint": {"workload": "cold_suite", "seed": 1,
                              "sources": {"kmeans@3": "a"},
                              "sequence_sha256": "s"},
              "generator_sha256": "g",
              "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(record))
    record["fingerprint"]["sources"] = {"kmeans@3": "b"}
    b.write_text(json.dumps(record))
    assert run.compare(str(a), str(a)) == 0
    assert run.compare(str(a), str(b)) == 2


def test_tail_percentile_leaves_ten_samples_beyond():
    assert stats.tail_percentile(10) == 50.0
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(10 ** 6) == stats.TAIL_CAP
    for n in (20, 25, 100, 1000):
        assert n * (100 - stats.tail_percentile(n)) / 100 >= 10 - 1e-9


def test_benchmark_json_lists_every_printed_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} \
        == run.per_layer_units()
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
