"""Demand-driven points-to queries: backward DUG slicing.

The whole-program sparse solve computes every variable's fixpoint; a
*query* needs one. The demand engine answers ``pt(v)`` (or a global's
accumulated memory state) by:

1. **Slicing** — :meth:`repro.memssa.dug.DUG.upstream_closure` walks
   the combined value-flow graph *backwards* from the query roots
   (the temps named ``v``, or the defining nodes of the queried
   object): memory in-edges including [THREAD-VF] ones, top-level
   use->def, and the interprocedural copy graph against the flow.
   The result is predecessor-closed: everything a slice member's
   transfer function reads is itself in the slice.
2. **Solving the slice** — the existing delta engine runs over the
   sub-DUG only (:meth:`repro.fsam.solver.SparseSolver.solve_demand`):
   slice-local SCC ranks and a slice-filtered schedule from
   :func:`repro.fsam.solver.build_plan`. Because the slice is
   predecessor-closed and transfer functions are union-monotone, the
   computed states on slice members are **bit-identical** to the
   whole-program fixpoint (pinned by ``tests/fsam/test_query.py``).
3. **Accumulating** — solved slices union into per-engine mask state.
   Each solve is an exact restriction of the one whole-program
   fixpoint, so unions of overlapping slices agree everywhere; a
   later query whose slice is already covered is answered with zero
   solver iterations (``source="warm"``).

Slices always run the delta engine, whatever ``solver_engine`` the
pipeline was configured with: the reference engine solves only whole
programs, as the oracle the answers are checked against.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from repro.andersen import AndersenResult
from repro.fsam.config import FSAMConfig
from repro.fsam.solver import SparseSolver
from repro.ir.instructions import Store
from repro.ir.module import Module
from repro.ir.values import MemObject, Temp
from repro.memssa.builder import MemorySSABuilder
from repro.memssa.dug import DUG, DUGNode, StmtNode
from repro.obs import NULL_OBS, Observer
from repro.pts import mask_to_hex
from repro.trace import NULL_TRACER, Tracer


def resolve_temps(module: Module, name: str,
                  line: Optional[int] = None) -> Dict[int, Temp]:
    """Top-level temps named *name*: function parameters plus
    instruction destinations (the same surface ``repro explain``
    resolves against). A *line* restricts to temps defined by an
    instruction on that source line — parameters, which have no
    defining line, only match unrestricted queries."""
    temps: Dict[int, Temp] = {}
    for fn in module.functions.values():
        if line is None:
            for param in fn.params:
                if param.name == name:
                    temps[param.id] = param
        for instr in fn.instructions():
            dst = getattr(instr, "dst", None)
            if isinstance(dst, Temp) and dst.name == name:
                if line is not None and instr.line != line:
                    continue
                temps[dst.id] = dst
    return temps


class QueryResult:
    """One demand query's answer plus its cost accounting.

    ``source`` says how the answer was produced: ``"solve"`` (a fresh
    slice solve) or ``"warm"`` (the slice was already covered by this
    engine's accumulated state — zero solver iterations).
    """

    __slots__ = ("name", "line", "obj_query", "mask", "universe",
                 "slice_nodes", "slice_temps", "slice_fraction",
                 "iterations", "source", "seconds")

    def __init__(self, name: str, line: Optional[int], obj_query: bool,
                 mask: int, universe, slice_nodes: int, slice_temps: int,
                 slice_fraction: float, iterations: int, source: str,
                 seconds: float) -> None:
        self.name = name
        self.line = line
        self.obj_query = obj_query
        self.mask = mask
        self.universe = universe
        self.slice_nodes = slice_nodes
        self.slice_temps = slice_temps
        self.slice_fraction = slice_fraction
        self.iterations = iterations
        self.source = source
        self.seconds = seconds

    def names(self) -> List[str]:
        """Sorted names of the pointed-to objects."""
        return sorted({obj.name
                       for obj in self.universe.iter_mask(self.mask)})

    def to_dict(self) -> Dict[str, object]:
        return {
            "var": self.name,
            "line": self.line,
            "obj": self.obj_query,
            "mask": mask_to_hex(self.mask),
            "names": self.names(),
            "slice_nodes": self.slice_nodes,
            "slice_temps": self.slice_temps,
            "slice_fraction": round(self.slice_fraction, 6),
            "iterations": self.iterations,
            "source": self.source,
            "seconds": self.seconds,
        }


class QueryEngine:
    """Answers demand queries over one prepared pipeline.

    Construct it on the outputs of the pre-solve pipeline phases (the
    module, the value-flow-complete DUG, the memory-SSA builder, and
    the Andersen pre-analysis) — exactly what an
    :class:`~repro.fsam.analysis.FSAMResult` holds, whether or not a
    whole-program solve ran. The engine accumulates solved slices, so
    a sequence of queries on one engine converges toward (and never
    exceeds) the cost of one whole-program solve.
    """

    def __init__(self, module: Module, dug: DUG, builder: MemorySSABuilder,
                 andersen: AndersenResult,
                 config: Optional[FSAMConfig] = None,
                 obs: Observer = NULL_OBS,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.module = module
        self.dug = dug
        self.builder = builder
        self.andersen = andersen
        self.universe = andersen.universe
        self.config = config or FSAMConfig()
        self.obs = obs
        self.tracer = tracer
        # Accumulated exact-fixpoint restrictions (see module doc).
        self._solved_uids: Set[int] = set()
        self._solved_temps: Set[int] = set()
        self._top_masks: Dict[int, int] = {}
        self._mem_masks: Dict[Tuple[int, int], int] = {}
        # obj.id -> defining DUG nodes; built on the first object query.
        self._defs_by_obj: Optional[Dict[int, List[DUGNode]]] = None

    # -- root resolution ---------------------------------------------------

    def _obj_def_nodes(self, obj: MemObject) -> List[DUGNode]:
        """Every DUG node that defines a memory state of *obj*:
        chi-annotated stores plus the per-object pseudo-statements
        (memory phis, formal-in/out, call chis). These are exactly
        the nodes the fixpoint keys ``(uid, obj.id)`` states under, so
        their union reproduces ``FSAMResult.global_pts``. Shared
        across engines via ``dug.schedule_cache``."""
        index = self._defs_by_obj
        if index is None:
            index = self.dug.schedule_cache.get("query_obj_defs")
        if index is None:
            index = {}
            chis = self.builder.chis
            for node in self.dug.nodes:
                node_obj = getattr(node, "obj", None)
                if node_obj is not None:
                    index.setdefault(node_obj.id, []).append(node)
                elif isinstance(node, StmtNode) \
                        and isinstance(node.instr, Store):
                    for o in chis.get(node.instr.id, ()):
                        index.setdefault(o.id, []).append(node)
            self.dug.schedule_cache["query_obj_defs"] = index
        self._defs_by_obj = index
        return index.get(obj.id, [])

    def _resolve_temps(self, name: str,
                       line: Optional[int]) -> Dict[int, Temp]:
        """:func:`resolve_temps` through a memoized name index — a
        pure function of the frozen module, shared across engines via
        ``dug.schedule_cache`` like the solver's graph index — so
        each query costs a dict probe instead of a module walk.
        Parameters carry a ``None`` line and, as there, only match
        unrestricted queries."""
        index = self.dug.schedule_cache.get("query_name_index")
        if index is None:
            index = {}
            for fn in self.module.functions.values():
                for param in fn.params:
                    index.setdefault(param.name, []).append((param, None))
                for instr in fn.instructions():
                    dst = getattr(instr, "dst", None)
                    if isinstance(dst, Temp):
                        index.setdefault(dst.name, []).append(
                            (dst, instr.line))
            self.dug.schedule_cache["query_name_index"] = index
        temps: Dict[int, Temp] = {}
        for temp, def_line in index.get(name, ()):
            if line is not None and def_line != line:
                continue
            temps[temp.id] = temp
        return temps

    # -- querying ------------------------------------------------------------

    def query(self, name: str, line: Optional[int] = None,
              obj: bool = False) -> QueryResult:
        """Answer ``pt(name)`` (or, with *obj*, the accumulated
        memory state of global *name* — ``global_pts`` semantics).
        Raises :class:`ValueError` when *name* resolves to nothing."""
        start = time.perf_counter()
        obs = self.obs
        obs.count("query.requests")
        target: Optional[MemObject] = None
        root_temps: Dict[int, Temp] = {}
        root_nodes: List[DUGNode] = []
        if obj:
            target = self.module.globals.get(name)
            if target is None:
                raise ValueError(f"unknown global {name!r}")
            root_nodes = self._obj_def_nodes(target)
        else:
            root_temps = self._resolve_temps(name, line)
            if not root_temps:
                where = f" at line {line}" if line is not None else ""
                raise ValueError(
                    f"no top-level variable named {name!r}{where}")
        node_uids, temp_ids = self.dug.upstream_closure(
            root_nodes, root_temps.keys())
        if node_uids <= self._solved_uids and \
                temp_ids <= self._solved_temps:
            obs.count("query.engine_hits")
            iterations = 0
            source = "warm"
        else:
            solver = SparseSolver(self.module, self.dug, self.builder,
                                  self.andersen, config=self.config,
                                  tracer=self.tracer)
            solver.solve_demand(node_uids, temp_ids)
            iterations = solver.iterations
            source = "solve"
            top = self._top_masks
            for tid, pts in solver.pts_top.items():
                top[tid] = pts.mask
            memm = self._mem_masks
            for key, pts in solver.mem.items():
                memm[key] = pts.mask
            self._solved_uids |= node_uids
            self._solved_temps |= temp_ids
            obs.count("query.solve_iterations", iterations)
        mask = 0
        if obj:
            oid = target.id
            memm = self._mem_masks
            for node in root_nodes:
                mask |= memm.get((node.uid, oid), 0)
        else:
            top = self._top_masks
            for tid in root_temps:
                mask |= top.get(tid, 0)
        fraction = len(node_uids) / (len(self.dug.nodes) or 1)
        seconds = time.perf_counter() - start
        obs.count("query.slice_nodes", len(node_uids))
        obs.count("query.slice_temps", len(temp_ids))
        obs.observe("query.slice_fraction", fraction)
        obs.observe("query.seconds", seconds)
        return QueryResult(
            name=name, line=line, obj_query=obj, mask=mask,
            universe=self.universe, slice_nodes=len(node_uids),
            slice_temps=len(temp_ids), slice_fraction=fraction,
            iterations=iterations, source=source, seconds=seconds)
