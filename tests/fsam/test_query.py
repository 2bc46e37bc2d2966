"""Differential suite for the demand-driven query engine.

The contract under test: a demand query's answer — solved over the
backward DUG slice only — is **bit-identical** (equal PTSet masks) to
the whole-program fixpoint, for every top-level variable of every
workload, with and without tracing. Plus the engine mechanics around
it: warm re-queries cost zero iterations, queries on a
reference-engine result slice with the delta engine and equal that
result's own fixpoint, object queries reproduce ``global_pts``, and
``FSAM.prepare()`` defers all solving to queries.
"""

from __future__ import annotations

import pytest

from repro.frontend import compile_source
from repro.fsam import FSAM, FSAMConfig, analyze_source
from repro.fsam.query import QueryEngine, resolve_temps
from repro.fsam.reference import ReferenceSolver
from repro.trace import Tracer
from repro.workloads import get_workload, workload_names

WORKLOADS = tuple(workload_names())

_PIPELINES = {}


def pipeline(name: str):
    """One shared whole-program solve per workload (the oracle)."""
    if name not in _PIPELINES:
        source = get_workload(name).source(1)
        _PIPELINES[name] = FSAM(compile_source(source, name=name)).run()
    return _PIPELINES[name]


def top_level_names(result):
    return sorted({temp.name
                   for fn in result.module.functions.values()
                   for temp in list(fn.params)
                   + [instr.dst for instr in fn.instructions()
                      if hasattr(instr, "dst")]
                   if hasattr(temp, "name") and hasattr(temp, "id")})


def expected_mask(result, var: str) -> int:
    mask = 0
    for tid in resolve_temps(result.module, var):
        pts = result.solver.pts_top.get(tid)
        if pts is not None:
            mask |= pts.mask
    return mask


def engine_for(result) -> QueryEngine:
    return QueryEngine(result.module, result.dug, result.builder,
                       result.andersen)


@pytest.mark.parametrize("name", WORKLOADS)
def test_demand_answers_bit_identical(name):
    """Every top-level variable: demand answer mask == whole-program
    fixpoint mask."""
    result = pipeline(name)
    names = top_level_names(result)
    assert names, f"workload {name} has no top-level variables"
    engine = engine_for(result)
    for var in names:
        answer = engine.query(var)
        assert answer.mask == expected_mask(result, var), (name, var)


@pytest.mark.parametrize("name", WORKLOADS)
def test_object_queries_match_global_pts(name):
    result = pipeline(name)
    engine = engine_for(result)
    for gname in sorted(result.module.globals):
        answer = engine.query(gname, obj=True)
        assert answer.mask == result.global_pts(gname).mask, (name, gname)
        assert set(answer.names()) == result.global_pts_names(gname)


@pytest.mark.parametrize("name", ("kmeans", "raytrace"))
def test_traced_queries_stay_identical(name):
    """Provenance tracing during slice solves must not change the
    demand answers."""
    result = pipeline(name)
    engine = QueryEngine(result.module, result.dug, result.builder,
                         result.andersen, tracer=Tracer(name=name))
    saw_solve = False
    for var in top_level_names(result):
        answer = engine.query(var)
        if answer.source == "solve":
            saw_solve = True
        assert answer.mask == expected_mask(result, var), (name, var)
    assert saw_solve


def test_warm_requery_costs_zero_iterations():
    result = pipeline("kmeans")
    engine = engine_for(result)
    var = next(v for v in top_level_names(result)
               if engine.query(v).slice_nodes > 0)
    again = engine.query(var)
    assert again.source == "warm"
    assert again.iterations == 0
    assert again.mask == expected_mask(result, var)


def test_reference_result_queries_match_its_fixpoint():
    """Queries on a reference-engine result slice with the delta
    engine, and every answer equals that result's own whole-program
    reference fixpoint."""
    source = get_workload("kmeans").source(1)
    result = FSAM(compile_source(source, name="kmeans"),
                  FSAMConfig(solver_engine="reference")).run()
    assert isinstance(result.solver, ReferenceSolver)
    sources = set()
    for var in top_level_names(result):
        answer = result.query(var)
        sources.add(answer.source)
        assert answer.mask == expected_mask(result, var), var
    for gname in sorted(result.module.globals):
        answer = result.query(gname, obj=True)
        sources.add(answer.source)
        assert answer.mask == result.global_pts(gname).mask, gname
    assert sources == {"solve", "warm"}


def test_unknown_names_raise():
    result = pipeline("kmeans")
    engine = engine_for(result)
    with pytest.raises(ValueError, match="no top-level variable"):
        engine.query("no_such_variable")
    with pytest.raises(ValueError, match="unknown global"):
        engine.query("no_such_global", obj=True)


def test_line_restricted_query():
    """A line qualifier restricts resolution to temps defined on that
    source line; a line with no matching definition is an error, not
    an empty answer."""
    src = """
int x; int y;
int *p;
int main() {
    p = &x;
    p = &y;
    return 0;
}
"""
    result = analyze_source(src)
    # Pick a real dst temp (assignments SSA-rename, so resolve one
    # dynamically rather than hard-coding the compiler's naming).
    fn = result.module.functions["main"]
    instr = next(i for i in fn.instructions()
                 if getattr(i, "dst", None) is not None)
    var, line = instr.dst.name, instr.line
    unrestricted = result.query(var)
    restricted = result.query(var, line=line)
    assert restricted.mask == unrestricted.mask
    assert restricted.names() == unrestricted.names()
    with pytest.raises(ValueError, match=f"at line {line + 99}"):
        result.query(var, line=line + 99)


def test_demand_mode_defers_all_solving():
    """``FSAM.prepare()`` skips the whole-program solve; queries still
    answer bit-identically."""
    oracle = pipeline("kmeans")
    source = get_workload("kmeans").source(1)
    result = FSAM(compile_source(source, name="kmeans")).prepare()
    assert result.solver.iterations == 0  # nothing solved eagerly
    for var in top_level_names(oracle)[:25]:
        answer = result.query(var)
        assert answer.mask == expected_mask(oracle, var), var
    # An engine accumulates: the same variable again is warm.
    for var in top_level_names(oracle)[:5]:
        assert result.query(var).source == "warm"
