"""NONSPARSE stops at a fixpoint, whatever order its worklist takes.

A node's transfer reads its IN state and the top-level sets of the
temps it uses, which may be defined anywhere: a callee's parameters,
a call's result, the ``Ret`` values a call reads. When such a set
grows, every node that reads it must run again, not only the
successors of the node that grew it. Otherwise the solver stops
early, and where it stops depends on the worklist order.

After ``run()``, one more sweep of the transfer over every node must
change no top-level set, OUT state or store effect. And since the
baseline is at least as coarse as FSAM on top-level temps, its answer
must cover FSAM's on every temp. Its answers on the ten programs at
scale 1 are pinned; regenerate them (only when an answer is meant to
change) with::

    PYTHONPATH=src python -m tests.baseline.test_nonsparse_fixpoint --write
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict

import pytest
from hypothesis import HealthCheck, given, settings

from repro.baseline import NonSparseAnalysis
from repro.frontend import compile_source
from repro.fsam import FSAM, FSAMConfig
from repro.ir.module import canonical_instr_index, canonical_temps
from repro.workloads import get_workload, workload_names

from tests.mt.test_shape_pins import _node_desc
from tests.mt.test_thread_model_pins import _pin
from tests.properties.program_gen import (
    argument_passing_programs, multithreaded_programs, sequential_programs,
)

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Each run here takes well under a second; a solver that stops
# converging fails with AnalysisTimeout instead of hanging the suite.
BUDGET_S = 60.0


def changed_by_sweep(analysis: NonSparseAnalysis) -> list:
    """The nodes whose transfer, run once more over the solved state,
    grows a top-level set, changes its OUT state or adds a store
    effect."""
    changed = []
    for node in analysis.icfg.nodes():
        in_state = analysis._merge_in(node)
        out, top_changed, new_effects = analysis._transfer(node, in_state)
        if top_changed or new_effects or analysis.out_state.get(node) != out:
            changed.append(node)
    return changed


def assert_fixpoint(src: str) -> None:
    analysis = NonSparseAnalysis(compile_source(src),
                                 FSAMConfig(time_budget=BUDGET_S))
    analysis.run()
    changed = changed_by_sweep(analysis)
    assert not changed, f"{len(changed)} nodes move: {changed[:5]}\n{src}"


@pytest.mark.parametrize("name", workload_names())
def test_workload_is_a_fixpoint(name):
    assert_fixpoint(get_workload(name).source(1))


@pytest.mark.parametrize("name", workload_names())
def test_covers_fsam_on_every_temp(name):
    src = get_workload(name).source(1)
    baseline_module = compile_source(src, name=name)
    baseline = NonSparseAnalysis(baseline_module).run()
    fsam_module = compile_source(src, name=name)
    fsam = FSAM(fsam_module).run()
    missing = []
    for temp, twin in zip(canonical_temps(baseline_module),
                          canonical_temps(fsam_module)):
        coarse = {o.name for o in baseline.pts(temp)}
        fine = {o.name for o in fsam.pts(twin)}
        if not fine <= coarse:
            missing.append((temp, sorted(fine - coarse)))
    assert not missing, missing[:5]


def test_empty_entries_do_not_cycle():
    """The store through ``h1`` first kills ``h1``'s fields (``h1``
    points nowhere yet) and later updates them, so OUT states once
    differed only in empty entries. Equal facts must compare equal, or
    such states chase each other round the ICFG's cycles forever."""
    assert_fixpoint("""
        struct node { int *f; struct node *n; };
        int g0;
        int *p0;
        struct node *h0;
        struct node *h1;
        void helper() { }
        void *worker(void *arg) { h0->f = p0; helper(); return null; }
        int main() {
            thread_t t;
            h1->n = h1;
            fork(&t, worker, null);
            h0 = h1->n;
            h1 = malloc(struct node);
            helper();
            while (g0 < 2) { h0 = malloc(struct node); }
            return 0;
        }
    """)


class TestGeneratedPrograms:
    @SETTINGS
    @given(sequential_programs())
    def test_sequential(self, src):
        assert_fixpoint(src)

    @SETTINGS
    @given(multithreaded_programs())
    def test_multithreaded(self, src):
        assert_fixpoint(src)

    @SETTINGS
    @given(argument_passing_programs())
    def test_argument_passing(self, src):
        assert_fixpoint(src)


# -- answer pins ---------------------------------------------------------

PIN_FIXTURE = os.path.join(os.path.dirname(__file__), "nonsparse_pins.json")


def nonsparse_pins(name: str) -> Dict[str, object]:
    """NONSPARSE's answer on workload *name* at scale 1: each temp's
    top-level set and each node's OUT memory state."""
    module = compile_source(get_workload(name).source(1), name=name)
    analysis = NonSparseAnalysis(module)
    result = analysis.run()
    canon = canonical_instr_index(module)

    def names(pts) -> str:
        return ",".join(sorted(o.name for o in pts))

    objects = {obj.id: obj.name for obj in module.objects}
    for pts in analysis.pts_top.values():
        objects.update((o.id, o.name) for o in pts)
    top = [f"{index} {names(result.pts(temp))}"
           for index, temp in enumerate(canonical_temps(module))
           if result.pts(temp)]
    memory = []
    for node in analysis.icfg.nodes():
        state = analysis.out_state.get(node, {})
        for obj_id, pts in state.items():
            if pts:
                memory.append(f"{_node_desc(analysis.icfg, node, canon)} "
                              f"{objects[obj_id]} {names(pts)}")
    return {"points_to_entries": result.points_to_entries(),
            "top_level": _pin(top), "memory": _pin(memory)}


@pytest.mark.parametrize("name", workload_names())
def test_nonsparse_pins(name):
    with open(PIN_FIXTURE) as handle:
        expected = json.load(handle)[name]
    assert nonsparse_pins(name) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.baseline.test_nonsparse_fixpoint "
                 "--write")
    with open(PIN_FIXTURE, "w") as handle:
        json.dump({name: nonsparse_pins(name) for name in workload_names()},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
