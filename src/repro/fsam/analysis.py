"""The FSAM pipeline (paper Figure 2).

pre-analysis -> thread-oblivious def-use -> interleaving analysis ->
value-flow analysis -> lock analysis -> sparse flow-sensitive solve.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.andersen import AndersenResult, run_andersen
from repro.cfg.icfg import ICFG
from repro.fsam.config import Deadline, FSAMConfig
from repro.fsam.reference import ReferenceSolver
from repro.fsam.solver import SparseSolver
from repro.ir.instructions import Load, Store
from repro.ir.module import Module
from repro.ir.values import MemObject, Temp, Value
from repro.memssa.builder import MemorySSABuilder, build_dug
from repro.memssa.dug import DUG
from repro.mt.locks import LockAnalysis
from repro.mt.mhp import CoarsePCGMhp, InterleavingAnalysis, MHPOracle
from repro.mt.threads import ThreadModel
from repro.mt.valueflow import add_thread_aware_edges
from repro.obs import NULL_OBS, Observer
from repro.trace import NULL_TRACER, Tracer


class FSAMResult:
    """The analysis output: points-to queries plus statistics."""

    def __init__(self, module: Module, solver: SparseSolver,
                 andersen: AndersenResult, dug: DUG,
                 builder: MemorySSABuilder, model: Optional[ThreadModel],
                 mhp: Optional[MHPOracle],
                 obs: Observer = NULL_OBS,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.module = module
        self.solver = solver
        self.andersen = andersen
        self.dug = dug
        self.builder = builder
        self.thread_model = model
        self.mhp = mhp
        self.obs = obs
        self.tracer = tracer
        # Filled by FSAM.run() when an incremental hook participated.
        self.incremental_stats: Optional[Dict[str, object]] = None
        # Lazily-built demand query engine, shared across query() calls
        # so solved slices accumulate (see repro.fsam.query).
        self._query_engine = None

    # -- points-to queries ------------------------------------------------

    def pts(self, value: Value):
        """The points-to set of a top-level value (an interned
        :class:`~repro.pts.PTSet`, duck-typed as a set of objects)."""
        return self.solver.value_pts(value)

    def pts_names(self, value: Value) -> Set[str]:
        """Readable form: names of pointed-to objects."""
        return {obj.name for obj in self.pts(value)}

    def load_pts_at_line(self, line: int):
        """pt() of the values read by loads on source *line* — the
        query the paper's examples pose (e.g. pt(c) for ``c = *p``)."""
        result = self.solver.universe.empty
        for instr in self.module.all_instructions():
            if isinstance(instr, Load) and instr.line == line:
                result = result | self.pts(instr.dst)
        return result

    def load_pts_names_at_line(self, line: int) -> Set[str]:
        return {obj.name for obj in self.load_pts_at_line(line)}

    def deref_pts_at_line(self, line: int):
        """pt() of true dereferences on *line*: loads whose pointer is
        itself the result of a load/phi/copy rather than a direct
        ``&variable`` — i.e. ``*p`` in the source, not the implicit
        load of a variable's own value."""
        addr_defined: Set[int] = set()
        from repro.ir.instructions import AddrOf
        for instr in self.module.all_instructions():
            if isinstance(instr, AddrOf):
                addr_defined.add(instr.dst.id)
        result = self.solver.universe.empty
        for instr in self.module.all_instructions():
            if isinstance(instr, Load) and instr.line == line:
                if isinstance(instr.ptr, Temp) and instr.ptr.id in addr_defined:
                    continue
                result = result | self.pts(instr.dst)
        return result

    def deref_pts_names_at_line(self, line: int) -> Set[str]:
        return {obj.name for obj in self.deref_pts_at_line(line)}

    def global_pts(self, name: str):
        """Everything ever stored into global *name* over the whole
        program (the union of its per-point states)."""
        obj = self.module.globals[name]
        result = self.solver.universe.empty
        for (_uid, obj_id), values in self.solver.mem.items():
            if obj_id == obj.id:
                result = result | values
        return result

    def global_pts_names(self, name: str) -> Set[str]:
        return {obj.name for obj in self.global_pts(name)}

    def query(self, name: str, line: Optional[int] = None,
              obj: bool = False):
        """Demand-driven points-to query (see :mod:`repro.fsam.query`):
        answer ``pt(name)`` — or, with *obj*, the accumulated memory
        state of global *name* — by solving only the backward DUG
        slice that can influence it with the delta engine, whichever
        engine the run was configured with. Answers are bit-identical
        to the whole-program fixpoint. The engine is shared across
        calls, so repeated queries reuse already-solved slices. It
        works on a :meth:`FSAM.run` result and on a
        :meth:`FSAM.prepare` one, where it is the only way results are
        computed (the whole-program solve was skipped)."""
        engine = self._query_engine
        if engine is None:
            from repro.fsam.query import QueryEngine
            engine = QueryEngine(self.module, self.dug, self.builder,
                                 self.andersen, config=self.solver.config,
                                 obs=self.obs, tracer=self.tracer)
            self._query_engine = engine
        return engine.query(name, line=line, obj=obj)

    def store_out_at_line(self, line: int, obj: MemObject):
        """The o-state immediately after stores on source *line*."""
        result = self.solver.universe.empty
        for instr in self.module.all_instructions():
            if isinstance(instr, Store) and instr.line == line:
                node = self.dug.stmt_node(instr)
                result = result | self.solver.mem_state(node, obj)
        return result

    # -- canonical artifact views -----------------------------------------

    def pts_top_masks(self) -> Dict[int, int]:
        """``canonical temp index -> bitmask`` view of the top-level
        fixpoint. Canonical indices (see
        :func:`repro.ir.module.canonical_temp_index`) and universe-
        dense bitmasks are both deterministic functions of (source,
        config), so two runs of the same request — in any process, at
        any counter offset — produce the same map. This is the
        boundary the artifact cache serializes and the batch
        differential suite compares bit-for-bit."""
        from repro.ir.module import canonical_temp_index
        canon = canonical_temp_index(self.module)
        out: Dict[int, int] = {}
        for temp_id, pts in self.solver.pts_top.items():
            if not pts:
                continue
            if temp_id not in canon:
                raise ValueError(
                    f"points-to fact for temp id {temp_id} not reachable "
                    f"by the canonical module walk")
            out[canon[temp_id]] = pts.mask
        return out

    def store_out_masks(self) -> Dict[Tuple[int, int], int]:
        """``(canonical instr index, object index) -> bitmask`` view of
        the o-state after each store — what :meth:`store_out_at_line`
        answers. Keys are program positions, not DUG nodes, so the
        view does not move when memory SSA adds or drops
        pseudo-nodes."""
        from repro.ir.module import canonical_instr_index
        canon = canonical_instr_index(self.module)
        nodes = self.dug.nodes
        out: Dict[Tuple[int, int], int] = {}
        for (uid, obj_id), values in self.solver.mem.items():
            instr = getattr(nodes[uid], "instr", None)
            if values and isinstance(instr, Store):
                out[(canon[instr.id], self._obj_index(obj_id))] = values.mask
        return out

    def obj_union_masks(self) -> Dict[int, int]:
        """``object index -> bitmask`` view of each object's union over
        every memory state — what :meth:`global_pts` answers."""
        out: Dict[int, int] = {}
        for (_uid, obj_id), values in self.solver.mem.items():
            if values:
                idx = self._obj_index(obj_id)
                out[idx] = out.get(idx, 0) | values.mask
        return out

    def _obj_index(self, obj_id: int) -> int:
        idx = self.solver.universe.index_of_id(obj_id)
        if idx is None:
            raise ValueError(f"memory state of object {obj_id} not "
                             f"reachable by the universe numbering")
        return idx

    # -- statistics ----------------------------------------------------------

    def points_to_entries(self) -> int:
        return self.solver.points_to_entries()

    def total_time(self) -> float:
        return self.obs.total_seconds()

    def profile(self) -> Dict[str, object]:
        """The observability document for this run (schema
        ``repro.obs/1``: phase timers, counters, gauges)."""
        return self.obs.to_dict()

    def profile_json(self, indent: int = 2) -> str:
        return self.obs.to_json(indent=indent)

    # -- tracing & provenance -----------------------------------------------

    @property
    def provenance(self):
        """Fact key -> :class:`~repro.trace.Derivation` map recorded
        by the solver (None when tracing was off)."""
        return self.solver.provenance

    def trace_jsonl(self) -> str:
        """The run's event trace as ``repro.trace/1`` JSONL."""
        return self.tracer.to_jsonl()

    def stats(self) -> Dict[str, object]:
        return {
            "phase_times": {path: seconds for path, seconds
                            in self.obs.phase_seconds().items()
                            if "/" not in path},
            "points_to_entries": self.points_to_entries(),
            "dug_nodes": len(self.dug.nodes),
            "dug_mem_edges": self.dug.num_mem_edges(),
            "thread_aware_edges": len(self.dug.thread_edges),
            "threads": len(self.thread_model.threads) if self.thread_model else 1,
            "solver_iterations": self.solver.iterations,
            "pts_universe": self.solver.universe.stats(),
            "counters": dict(self.obs.counters),
            "gauges": dict(self.obs.gauges),
        }


class FSAM:
    """Runs the pipeline on a module: :meth:`run` is the whole
    analysis, and :meth:`prepare` the same steps without the
    whole-program solve. An enabled ``tracer`` records provenance and
    typed events during the run.

    ``incremental`` is an optional hook for function-granular
    incremental analysis (see :mod:`repro.service.incremental`): a
    callable invoked after the value-flow phase with ``(module, dug,
    builder, andersen, config)``, returning either None or a plan
    object with a ``reuse`` attribute (an
    :class:`~repro.fsam.solver.IncrementalReuse` or None), a ``stats``
    dict, and a ``harvest(solver)`` method called after the fixpoint.
    When the plan carries a reuse, the sparse solve runs through
    :meth:`~repro.fsam.solver.SparseSolver.solve_incremental` instead
    of a cold :meth:`~repro.fsam.solver.SparseSolver.solve` — results
    are bit-identical either way. A traced run never consults the
    hook: tracing records first-introduction provenance, which a
    preloaded state skips.
    """

    def __init__(self, module: Module, config: Optional[FSAMConfig] = None,
                 obs: Optional[Observer] = None,
                 tracer: Optional[Tracer] = None,
                 incremental=None, on_preanalysis=None) -> None:
        self.module = module
        self.config = config or FSAMConfig()
        self.incremental = incremental
        # Optional progressive-results hook (the gateway's streaming
        # Andersen frame): called once, right after the pre-analysis
        # phase, with ``(module, andersen)``. Purely observational — it
        # must not mutate either argument.
        self.on_preanalysis = on_preanalysis
        # An explicit observer wins (NULL_OBS opts out of recording);
        # otherwise the run records into a fresh one. Its phase tree is
        # the run's only timing record.
        self.obs = obs if obs is not None else Observer(name="fsam")
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run(self) -> FSAMResult:
        """The whole pipeline, ending in the whole-program solve."""
        return self._run(solve=True)

    def prepare(self) -> FSAMResult:
        """The pipeline up to value flow, with no whole-program solve:
        the result's solver is unsolved, and answers come from
        :meth:`FSAMResult.query`, which solves backward DUG slices
        (see :mod:`repro.fsam.query`). No ``sparse_solve`` phase is
        recorded."""
        return self._run(solve=False)

    def _run(self, solve: bool) -> FSAMResult:
        deadline = Deadline(self.config.time_budget)
        obs = self.obs
        tracer = self.tracer

        def timed(name: str, thunk):
            with obs.phase(name):
                value = thunk()
            deadline.check()
            return value

        andersen = timed("pre_analysis",
                         lambda: run_andersen(self.module, obs=obs))
        if self.on_preanalysis is not None:
            self.on_preanalysis(self.module, andersen)
        icfg = timed("icfg", lambda: ICFG(self.module, andersen.callgraph))
        dug, builder = timed("thread_oblivious_dug",
                             lambda: build_dug(self.module, andersen, obs=obs))
        model = timed("thread_model",
                      lambda: ThreadModel(self.module, andersen, icfg,
                                          builder.symmetric_pairs))
        obs.gauge("mt.threads", len(model.threads))
        obs.gauge("mt.states", model.state_count())
        if self.config.interleaving:
            mhp: MHPOracle = timed(
                "interleaving",
                lambda: InterleavingAnalysis(model, tracer=tracer))
        else:
            mhp = timed("interleaving", lambda: CoarsePCGMhp(model))
        locks: Optional[LockAnalysis] = None
        if self.config.lock_analysis:
            locks = timed("lock_analysis",
                          lambda: LockAnalysis(model, andersen, dug, builder,
                                               tracer=tracer))
        timed("value_flow", lambda: add_thread_aware_edges(
            dug, builder, mhp, locks=locks,
            alias_filtering=self.config.value_flow, obs=obs, tracer=tracer))
        engine = ReferenceSolver \
            if self.config.solver_engine == "reference" else SparseSolver
        solver = engine(self.module, dug, builder, andersen,
                        config=self.config, deadline=deadline,
                        tracer=tracer, obs=obs)
        plan = None
        if solve and self.incremental is not None \
                and engine is SparseSolver and not tracer.enabled:
            plan = timed("incremental_plan",
                         lambda: self.incremental(self.module, dug, builder,
                                                  andersen, self.config))
        if plan is not None and plan.reuse is not None:
            timed("sparse_solve",
                  lambda: solver.solve_incremental(plan.reuse))
        elif solve:
            timed("sparse_solve", solver.solve)
        incremental_stats: Optional[Dict[str, object]] = None
        if plan is not None:
            timed("incremental_harvest", lambda: plan.harvest(solver))
            incremental_stats = dict(plan.stats)
            incremental_stats["seeded_nodes"] = solver.seeded_nodes
            incremental_stats["dug_nodes"] = len(dug.nodes)
            for key, value in incremental_stats.items():
                if isinstance(value, int):
                    obs.count(f"incremental.{key}", value)
        # The MHP and lock oracles are queried across phases (value
        # flow and downstream clients), so their tallies are flushed
        # once here rather than inside any one phase.
        mhp.flush_obs(obs)
        if locks is not None:
            locks.flush_obs(obs)
        solver.flush_obs(obs)
        result = FSAMResult(self.module, solver, andersen, dug, builder,
                            model, mhp, obs=obs, tracer=tracer)
        result.incremental_stats = incremental_stats
        return result


def analyze_source(source: str, config: Optional[FSAMConfig] = None) -> FSAMResult:
    """Compile MiniC *source* and run FSAM on it (one-call helper)."""
    from repro.frontend import compile_source
    module = compile_source(source)
    return FSAM(module, config).run()
