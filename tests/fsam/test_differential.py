"""Differential pinning of the delta-propagating solver engine.

The optimised :class:`~repro.fsam.solver.SparseSolver` (delta
propagation + SCC-condensed topological scheduling) must compute a
fixpoint *bit-identical* to the retained naive
:class:`~repro.fsam.reference.ReferenceSolver` (FIFO, seed-all,
recompute-from-preds): same ``pts_top`` map, same per-definition
``mem`` map, same strong/weak/pass/kill classification at every
(store, object) — across every workload program and every ablation
config. Transfer functions are union-monotone, so any schedule
reaches the same least fixpoint; these tests are the executable form
of that argument.

Both engines run over the *same* DUG/builder/universe (the pipeline
is run once; the reference engine re-solves its output graph), so the
interned masks are directly comparable integers.
"""

import pytest

from repro.frontend import compile_source
from repro.fsam.analysis import FSAM
from repro.fsam.config import FSAMConfig
from repro.fsam.reference import ReferenceSolver
from repro.fsam.solver import SparseSolver, store_update_classes
from repro.trace import Tracer
from repro.workloads import get_workload, workload_names

ABLATIONS = ["interleaving", "value_flow", "lock_analysis"]


def _fixpoint(solver):
    """The three comparable faces of a solved fixpoint, as raw masks
    over the shared interning universe."""
    return ({k: v.mask for k, v in solver.pts_top.items()},
            {k: v.mask for k, v in solver.mem.items()},
            store_update_classes(solver))


def _assert_engines_agree(source: str, config: FSAMConfig) -> None:
    result = FSAM(compile_source(source), config).run()
    new = result.solver
    assert isinstance(new, SparseSolver)
    ref = ReferenceSolver(result.module, result.dug, result.builder,
                          result.andersen, config=config)
    ref.solve()
    # Interned sets over one shared universe: masks are directly
    # comparable ints, and neither engine stores empty entries.
    assert {k: v.mask for k, v in new.pts_top.items()} == \
        {k: v.mask for k, v in ref.pts_top.items()}
    assert {k: v.mask for k, v in new.mem.items()} == \
        {k: v.mask for k, v in ref.mem.items()}
    assert store_update_classes(new) == store_update_classes(ref)


class TestEnginesAgreeOnWorkloads:
    @pytest.mark.parametrize("name", workload_names())
    def test_default_config(self, name):
        _assert_engines_agree(get_workload(name).source(1), FSAMConfig())

    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("phase", ABLATIONS)
    def test_ablations(self, name, phase):
        _assert_engines_agree(get_workload(name).source(1),
                              FSAMConfig().ablated(phase))


class TestTracedSolve:
    @pytest.mark.parametrize("name", workload_names())
    def test_traced_matches_untraced(self, name):
        """Provenance tracing adds a recording step to every state
        change; the traced solve must land on the identical
        fixpoint."""
        source = get_workload(name).source(1)
        result = FSAM(compile_source(source), FSAMConfig()).run()
        expected = _fixpoint(result.solver)
        traced = SparseSolver(result.module, result.dug, result.builder,
                              result.andersen, config=FSAMConfig(),
                              tracer=Tracer(name="diff"))
        traced.solve()
        assert traced.provenance
        assert _fixpoint(traced) == expected


class TestEngineSelection:
    def test_reference_engine_via_config(self):
        source = get_workload("word_count").source(1)
        result = FSAM(compile_source(source),
                      FSAMConfig(solver_engine="reference")).run()
        assert isinstance(result.solver, ReferenceSolver)
        assert result.points_to_entries() > 0

    def test_ablated_preserves_engine(self):
        config = FSAMConfig(solver_engine="reference")
        assert config.ablated("value_flow").solver_engine == "reference"


class TestEngineDoesLessWork:
    @pytest.mark.parametrize("name", workload_names())
    def test_fewer_iterations_and_revisits(self, name):
        source = get_workload(name).source(1)
        result = FSAM(compile_source(source), FSAMConfig()).run()
        new = result.solver
        ref = ReferenceSolver(result.module, result.dug, result.builder,
                              result.andersen, config=FSAMConfig())
        ref.solve()
        assert new.iterations < ref.iterations
        new_revisits = new.iterations - len(new._visited)
        ref_revisits = ref.iterations - len(ref._visited)
        assert new_revisits < ref_revisits
        # Sparse seeding: only fact-producing nodes enter the initial
        # worklist, vs every node in the reference engine.
        assert new.seeded_nodes < ref.seeded_nodes
        assert new.scc_count > 0
        assert new.delta_propagations > 0
