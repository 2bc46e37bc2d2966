"""A coarse procedure-level concurrency analysis (PCG-style).

Joisha et al.'s PCG distinguishes whether two *procedures* may
execute concurrently. This implementation captures that granularity:
it assigns each fork site (context-insensitively) a thread class,
computes the procedures each class may execute, and deems two
procedures concurrent when distinct classes (or one multi-forked
class) may run them. No flow-sensitive join reasoning, no
happens-before — the coarseness the paper's No-Interleaving ablation
and the NONSPARSE baseline both rely on.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.andersen import AndersenResult
from repro.cfg.callgraph import CallGraph
from repro.cfg.cfg import CFG
from repro.ir.instructions import Call, Fork
from repro.ir.module import Module
from repro.ir.values import Function


class ProcedureConcurrencyGraph:
    """Thread classes and their procedure footprints."""

    MAIN_CLASS = 0

    def __init__(self, module: Module, andersen: AndersenResult) -> None:
        self.module = module
        self.andersen = andersen
        self.callgraph: CallGraph = andersen.callgraph
        # class id -> procedures it may execute.
        self.class_procs: Dict[int, Set[Function]] = {}
        # class id -> is the class multi-forked (fork in loop/recursion).
        self.multi: Dict[int, bool] = {}
        # function name -> class ids that may run it.
        self._classes_of_fn: Dict[str, Set[int]] = {}
        self._build()

    def _call_reachable(self, root: Function) -> Set[Function]:
        """Functions reachable from *root* through calls AND forks —
        the footprint of a thread class plus everything it spawns."""
        seen: Set[Function] = set()
        work = [root]
        while work:
            fn = work.pop()
            if fn in seen or fn.is_declaration or not fn.blocks:
                continue
            seen.add(fn)
            for instr in fn.instructions():
                if isinstance(instr, (Call, Fork)):
                    work.extend(self.callgraph.callees(instr))
        return seen

    def _build(self) -> None:
        main = self.module.main
        self.class_procs[self.MAIN_CLASS] = self._call_reachable(main)
        self.multi[self.MAIN_CLASS] = False
        next_class = 1
        loop_cache: Dict[str, Set] = {}
        for fn in self.module.functions.values():
            if fn.is_declaration or not fn.blocks:
                continue
            for instr in fn.instructions():
                if not isinstance(instr, Fork):
                    continue
                in_loop = False
                if fn.name not in loop_cache:
                    loop_cache[fn.name] = CFG(fn).loop_blocks
                if instr.block in loop_cache[fn.name] or self.callgraph.in_cycle(fn):
                    in_loop = True
                for routine in self.callgraph.callees(instr):
                    cid = next_class
                    next_class += 1
                    self.class_procs[cid] = self._call_reachable(routine)
                    self.multi[cid] = in_loop
        for cid, procs in self.class_procs.items():
            for fn in procs:
                self._classes_of_fn.setdefault(fn.name, set()).add(cid)

    # -- queries ------------------------------------------------------------

    def classes_of(self, fn: Optional[Function]) -> Set[int]:
        if fn is None:
            return set()
        return self._classes_of_fn.get(fn.name, set())

    def procedures_concurrent(self, f1: Function, f2: Function) -> bool:
        """May *f1* and *f2* execute concurrently (procedure-level)?"""
        c1 = self.classes_of(f1)
        c2 = self.classes_of(f2)
        for a in c1:
            for b in c2:
                if a != b:
                    return True
                if self.multi.get(a, False):
                    return True
        return False

    def parallel_classes(self, fn: Function) -> Set[int]:
        """Classes that may run concurrently with code of *fn*."""
        own = self.classes_of(fn)
        result: Set[int] = set()
        for cid in self.class_procs:
            if cid not in own:
                result.add(cid)
            elif self.multi.get(cid, False):
                result.add(cid)
        # Any two distinct classes overlap in time under this coarse
        # model; classes sharing fn still conflict when multi-forked.
        if len(own) > 1:
            result |= own
        return result
