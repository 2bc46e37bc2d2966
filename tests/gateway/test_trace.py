"""Zipfian trace generator tests (benchmarks/gateway_trace.py).

The satellite requirements: byte-identical traces under a fixed seed,
and observed skew within tolerance of the ideal zipf weights.
"""

import pytest

from benchmarks.gateway_trace import (
    TraceGenerator, catalogue_from_workloads, skew_error, zipf_weights,
)

CATALOGUE = [{"workload": f"w{i}", "scale": 1, "query_vars": ["p"]}
             for i in range(10)]


class TestZipfWeights:
    def test_normalized_and_monotonic(self):
        weights = zipf_weights(10, 1.1)
        assert abs(sum(weights) - 1.0) < 1e-12
        assert weights == sorted(weights, reverse=True)

    def test_skew_steepens_head(self):
        assert zipf_weights(10, 2.0)[0] > zipf_weights(10, 0.5)[0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            zipf_weights(0)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = TraceGenerator(CATALOGUE, seed=42, tenants=("t1", "t2"),
                           query_fraction=0.2).generate(2000)
        b = TraceGenerator(CATALOGUE, seed=42, tenants=("t1", "t2"),
                           query_fraction=0.2).generate(2000)
        assert a == b

    def test_different_seed_different_trace(self):
        a = TraceGenerator(CATALOGUE, seed=1).generate(500)
        b = TraceGenerator(CATALOGUE, seed=2).generate(500)
        assert a != b

    def test_generate_is_repeatable_on_one_instance(self):
        gen = TraceGenerator(CATALOGUE, seed=7)
        assert gen.generate(300) == gen.generate(300)

    def test_ids_are_sequential(self):
        entries = TraceGenerator(CATALOGUE, seed=0).generate(50)
        assert [entry["id"] for entry in entries] == list(range(50))

    def test_tenants_cycle_deterministically(self):
        entries = TraceGenerator(CATALOGUE, seed=0,
                                 tenants=("a", "b")).generate(6)
        assert [entry["tenant"] for entry in entries] == [
            "a", "b", "a", "b", "a", "b"]


class TestSkew:
    def test_skew_within_tolerance(self):
        gen = TraceGenerator(CATALOGUE, seed=0, s=1.1)
        entries = gen.generate(20000)
        counts = gen.rank_counts(entries)
        # Head ranks of a 20k-draw sample track the ideal weights
        # closely; 10% relative error is generous for this n.
        assert skew_error(counts, s=1.1) < 0.10

    def test_rank_one_is_hottest(self):
        gen = TraceGenerator(CATALOGUE, seed=3)
        counts = gen.rank_counts(gen.generate(5000))
        assert counts[0] == max(counts)
        assert counts[0] > 2 * counts[-1]

    def test_skew_error_flags_uniform_sample(self):
        # A flat distribution is far from zipf(1.1): the tolerance
        # check must fail it, or the test above proves nothing.
        assert skew_error([100] * 10, s=1.1) > 0.5

    def test_skew_error_rejects_empty(self):
        with pytest.raises(ValueError):
            skew_error([0, 0, 0])


class TestEntries:
    def test_entries_resolve_programs_and_queries(self):
        gen = TraceGenerator(CATALOGUE, seed=11, query_fraction=0.5)
        entries = gen.generate(400)
        ops = {entry.get("op", "analyze") for entry in entries}
        assert ops == {"analyze", "query"}
        for entry in entries:
            assert "workload" in entry
            assert "query_vars" not in entry
            if entry.get("op") == "query":
                assert entry["var"] == "p"

    def test_query_fraction_zero_means_no_queries(self):
        entries = TraceGenerator(CATALOGUE, seed=11).generate(200)
        assert all("op" not in entry for entry in entries)

    def test_catalogue_from_workloads(self):
        catalogue = catalogue_from_workloads(["a", "b"], scale=2)
        assert catalogue == [{"workload": "a", "scale": 2},
                             {"workload": "b", "scale": 2}]

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceGenerator([])
        with pytest.raises(ValueError):
            TraceGenerator(CATALOGUE, tenants=())
        with pytest.raises(ValueError):
            TraceGenerator(CATALOGUE, query_fraction=1.5)
