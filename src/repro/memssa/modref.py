"""Interprocedural mod-ref summaries.

For every function, the sets of abstract objects it (or anything it
transitively calls, forks, or joins) may store to (MOD) and load from
(REF). These sets decide which mu/chi functions annotate each
callsite (paper Section 2.2: "Every callsite is also annotated with
mu and chi functions to expose its indirect uses and defs").

Fork sites count as calls of their start routines (the paper's Pseq
transformation, Section 3.2 Step 1). Join sites import the MOD of
the routines they may join (Step 3), so a joined thread's effects are
visible at and after the join.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Set

from repro.andersen import AndersenResult
from repro.cfg.callgraph import CallGraph
from repro.graphs.digraph import DiGraph
from repro.graphs.scc import tarjan_scc
from repro.ir.instructions import Call, Fork, Instruction, Join, Load, Store
from repro.ir.module import Module
from repro.ir.values import Function, MemObject, object_key
from repro.pts import PTSet


class ModRefAnalysis:
    """Computes MOD/REF per function and per callsite.

    Summaries are interned :class:`~repro.pts.PTSet`s over the
    pre-analysis universe, so the bottom-up union over the call graph
    shares set instances instead of copying them per function.
    """

    def __init__(self, module: Module, andersen: AndersenResult,
                 relevant: Optional[Set[MemObject]] = None) -> None:
        self.module = module
        self.andersen = andersen
        self.callgraph: CallGraph = andersen.callgraph
        self.universe = andersen.universe
        # Restrict to pointer-carrying objects when a filter is given.
        self.relevant = relevant
        self._relevant_pts: Optional[PTSet] = (
            None if relevant is None else self.universe.make(relevant))
        self.mod: Dict[Function, PTSet] = {}
        self.ref: Dict[Function, PTSet] = {}
        # Join sites -> routines whose termination the join observes.
        self.joined_routines: Dict[int, Set[Function]] = {}
        self._compute()

    def _filter(self, objs: PTSet) -> PTSet:
        if self._relevant_pts is None:
            return objs
        return objs & self._relevant_pts

    def _routines_of_join(self, join: Join) -> Set[Function]:
        """Start routines of the threads *join* may join, correlated
        through the abstract thread-id objects in pts(handle)."""
        routines: Set[Function] = set()
        for tid in self.andersen.pts(join.handle):
            fork = getattr(tid, "fork_site", None)
            if fork is not None:
                routines |= set(self.callgraph.callees(fork))
        return routines

    def _compute(self) -> None:
        empty = self.universe.empty
        fns = [fn for fn in self.module.functions.values()
               if not fn.is_declaration and fn.blocks]
        local_mod: Dict[Function, PTSet] = {fn: empty for fn in fns}
        local_ref: Dict[Function, PTSet] = {fn: empty for fn in fns}
        # Effect edges: caller depends on callee summaries.
        dep = DiGraph()
        for fn in fns:
            dep.add_node(fn)
        for fn in fns:
            for instr in fn.instructions():
                if isinstance(instr, Load):
                    local_ref[fn] = local_ref[fn] | self._filter(self.andersen.pts(instr.ptr))
                elif isinstance(instr, Store):
                    local_mod[fn] = local_mod[fn] | self._filter(self.andersen.pts(instr.ptr))
                elif isinstance(instr, (Call, Fork)):
                    for callee in self.callgraph.callees(instr):
                        if callee in local_mod:
                            dep.add_edge(fn, callee)
                elif isinstance(instr, Join):
                    routines = self._routines_of_join(instr)
                    self.joined_routines[instr.id] = routines
                    for routine in routines:
                        if routine in local_mod:
                            dep.add_edge(fn, routine)

        # Propagate bottom-up over the dependency graph's SCC DAG;
        # Tarjan emits callees before callers. Interned sets make the
        # per-SCC copies free: every function of an SCC shares one
        # instance.
        self.mod = dict(local_mod)
        self.ref = dict(local_ref)
        for scc in tarjan_scc(dep):
            # Merge within the SCC to a common fixpoint.
            scc_mod = empty
            scc_ref = empty
            for fn in scc:
                scc_mod = scc_mod | self.mod[fn]
                scc_ref = scc_ref | self.ref[fn]
                for callee in dep.successors(fn):
                    scc_mod = scc_mod | self.mod[callee]
                    scc_ref = scc_ref | self.ref[callee]
            for fn in scc:
                self.mod[fn] = scc_mod
                self.ref[fn] = scc_ref

    # -- summary signatures -----------------------------------------------

    def signature(self, fn: Function, key=object_key) -> str:
        """A content hash of *fn*'s MOD/REF summary over cross-process
        object keys. Two runs agree on a function's signature exactly
        when its transitive memory side effects are the same sets of
        (kind, allocation-site-name) objects — the ingredient the
        per-function cache digest mixes in for every callee, so an
        edit that moves a summary invalidates all its callers. *key*
        lets callers substitute an edit-stable key function (the
        incremental layer strips absolute source lines from
        allocation-site names)."""
        empty = self.universe.empty
        payload = "|".join([
            ",".join(sorted(key(obj)
                            for obj in self.mod.get(fn, empty))),
            ",".join(sorted(key(obj)
                            for obj in self.ref.get(fn, empty))),
        ])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- per-site queries -------------------------------------------------

    def callsite_mod(self, site: Instruction) -> PTSet:
        """Objects a call or fork site may modify (via its callees),
        or a join site may import from its joined routines."""
        empty = self.universe.empty
        result = empty
        if isinstance(site, Join):
            for routine in self.joined_routines.get(site.id, ()):
                result = result | self.mod.get(routine, empty)
            return result
        for callee in self.callgraph.callees(site):
            result = result | self.mod.get(callee, empty)
        return result

    def callsite_ref(self, site: Instruction) -> PTSet:
        """Objects a call or fork site may read (via its callees).
        Includes MOD because weak chi functions also read the old
        contents."""
        empty = self.universe.empty
        result = empty
        if isinstance(site, Join):
            return result
        for callee in self.callgraph.callees(site):
            result = result | self.ref.get(callee, empty)
            result = result | self.mod.get(callee, empty)
        return result
