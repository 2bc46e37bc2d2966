"""The retained naive sparse solver — the differential-testing oracle.

This is the pre-delta-propagation engine, kept verbatim in spirit: a
FIFO worklist seeded with **every** DUG node, where each visit of a
load/phi/chi/formal re-unions *all* predecessor states from scratch
via ``_in_values``. It is deliberately simple — recompute-from-preds
over union-monotone transfer functions is obviously a fixpoint
computation — and so serves as the executable specification the
optimised :class:`~repro.fsam.solver.SparseSolver` is differentially
pinned against (``tests/fsam/test_differential.py``): both engines
must produce bit-identical ``pts_top``/``mem`` maps and identical
strong/weak store classifications.

It intentionally supports no tracing/provenance (``provenance`` is
always None): provenance recording is a property of the production
engine, not of the semantics being pinned.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set, Tuple

from repro.andersen import AndersenResult
from repro.andersen.fields import derive_field
from repro.fsam.config import Deadline, FSAMConfig
from repro.ir.instructions import AddrOf, Copy, Fork, Gep, Load, Phi, Store
from repro.ir.module import Module
from repro.ir.values import Constant, Function, MemObject, Temp, Value
from repro.memssa.builder import MemorySSABuilder
from repro.memssa.dug import (
    CallChiNode, DUG, DUGNode, FormalInNode, FormalOutNode, MemPhiNode,
    StmtNode,
)
from repro.obs import NULL_OBS, Observer
from repro.trace import NULL_TRACER, Tracer


class ReferenceSolver:
    """FIFO seed-everything recompute-from-preds solver over the DUG.

    Exposes the same result surface as the production solver
    (``pts_top``, ``mem``, ``value_pts``, ``mem_state``, counters,
    ``flush_obs``) so :class:`~repro.fsam.analysis.FSAMResult` can wrap
    either engine — ``FSAMConfig(solver_engine="reference")`` selects
    this one.
    """

    def __init__(self, module: Module, dug: DUG, builder: MemorySSABuilder,
                 andersen: AndersenResult, config: Optional[FSAMConfig] = None,
                 deadline: Optional[Deadline] = None,
                 tracer: Tracer = NULL_TRACER,
                 obs: Observer = NULL_OBS) -> None:
        self.module = module
        self.dug = dug
        self.builder = builder
        self.andersen = andersen
        self.universe = andersen.universe
        self.config = config or FSAMConfig()
        self.deadline = deadline
        # Accepted for interface parity; the reference engine records
        # no provenance (use the delta engine for `repro explain`) and
        # builds no schedule to time.
        self.tracer = tracer
        self.obs = obs
        self.provenance = None
        self.pts_top: Dict[int, object] = {}
        self.mem: Dict[Tuple[int, int], object] = {}
        self._work: deque = deque()
        self._queued: Set[int] = set()
        self._visited: Set[int] = set()
        self.iterations = 0
        self.strong_updates = 0
        self.weak_updates = 0
        self.delta_propagations = 0   # N/A for this engine; kept for parity
        self.seeded_nodes = 0
        self.scc_count = 0

    # -- state access ----------------------------------------------------

    def top(self, temp: Temp):
        return self.pts_top.get(temp.id, self.universe.empty)

    def value_pts(self, value: Optional[Value]):
        if value is None or isinstance(value, Constant):
            return self.universe.empty
        if isinstance(value, Function):
            return self.universe.singleton(value.mem_object)
        if isinstance(value, Temp):
            return self.pts_top.get(value.id, self.universe.empty)
        return self.universe.empty

    def mem_state(self, node: DUGNode, obj: MemObject):
        return self.mem.get((node.uid, obj.id), self.universe.empty)

    def _in_values(self, node: DUGNode, obj: MemObject):
        empty = self.universe.empty
        result = empty
        for src in self.dug.mem_defs_of(node, obj):
            result = result | self.mem.get((src.uid, obj.id), empty)
        return result

    # -- state updates ------------------------------------------------------

    def _push(self, node: DUGNode) -> None:
        if node.uid not in self._queued:
            self._queued.add(node.uid)
            self._work.append(node)

    def _set_top(self, temp: Temp, values) -> None:
        empty = self.universe.empty
        pending = [(temp, values)]
        while pending:
            target, vals = pending.pop()
            current = self.pts_top.get(target.id, empty)
            merged = current | vals
            if merged is current:
                continue
            self.pts_top[target.id] = merged
            for user in self.dug.top_users(target):
                self._push(user)
            for src, dst in self.dug.copies_from(target):
                pending.append((dst, self.value_pts(src)))

    def _set_mem(self, node: DUGNode, obj: MemObject, values) -> None:
        key = (node.uid, obj.id)
        current = self.mem.get(key, self.universe.empty)
        merged = current | values
        if merged is current:
            return
        self.mem[key] = merged
        for dst in self.dug.mem_uses_of(node, obj):
            self._push(dst)

    # -- solving ---------------------------------------------------------------

    def solve(self) -> None:
        for src, dst in self.dug.top_copies:
            self._set_top(dst, self.value_pts(src))
        for node in self.dug.nodes:
            self._push(node)
        self.seeded_nodes = len(self.dug.nodes)
        while self._work:
            if self.deadline is not None and self.iterations % 256 == 0:
                self.deadline.check()
            self.iterations += 1
            node = self._work.popleft()
            self._queued.discard(node.uid)
            self._visited.add(node.uid)
            self._eval(node)

    def _eval(self, node: DUGNode) -> None:
        if isinstance(node, StmtNode):
            self._eval_stmt(node)
        elif isinstance(node, (MemPhiNode, FormalInNode, FormalOutNode)):
            obj = node.obj
            self._set_mem(node, obj, self._in_values(node, obj))
        elif isinstance(node, CallChiNode):
            self._eval_call_chi(node)

    def _eval_call_chi(self, node: CallChiNode) -> None:
        obj = node.obj
        values = self._in_values(node, obj)
        site = node.site
        if isinstance(site, Fork) and site.handle_ptr is not None:
            if obj in self.value_pts(site.handle_ptr):
                tid = self.andersen.thread_objects.get(site.id)
                if tid is not None:
                    values = values | self.universe.singleton(tid)
        self._set_mem(node, obj, values)

    def _eval_stmt(self, node: StmtNode) -> None:
        instr = node.instr
        if isinstance(instr, AddrOf):
            self._set_top(instr.dst, {instr.obj})
        elif isinstance(instr, Copy):
            self._set_top(instr.dst, self.value_pts(instr.src))
        elif isinstance(instr, Phi):
            merged = self.universe.empty
            for value, _block in instr.incomings:
                merged = merged | self.value_pts(value)
            self._set_top(instr.dst, merged)
        elif isinstance(instr, Gep):
            derived = self.universe.make(
                derive_field(obj, instr.field_index)
                for obj in self.value_pts(instr.base))
            self._set_top(instr.dst, derived)
        elif isinstance(instr, Load):
            empty = self.universe.empty
            objs = self.value_pts(instr.ptr)
            values = empty
            for obj in objs & self.builder.mus.get(instr.id, empty):
                values = values | self._in_values(node, obj)
            for obj, src in self.dug.thread_in_edges(node):
                values = values | self.mem.get((src.uid, obj.id), empty)
            self._set_top(instr.dst, values)
        elif isinstance(instr, Store):
            self._eval_store(node, instr)

    def _eval_store(self, node: StmtNode, instr: Store) -> None:
        targets = self.value_pts(instr.ptr)
        stored = self.value_pts(instr.value)
        for obj in self.builder.chis.get(instr.id, self.universe.empty):
            if not targets:
                continue  # kill(s, p) = A for an empty pointer
            if obj not in targets:
                self._set_mem(node, obj, self._in_values(node, obj))
                continue
            if len(targets) == 1 and obj.is_singleton:
                self.strong_updates += 1
                self._set_mem(node, obj, stored)
            else:
                self.weak_updates += 1
                self._set_mem(node, obj, stored | self._in_values(node, obj))

    # -- metrics ------------------------------------------------------------

    def points_to_entries(self) -> int:
        total = sum(len(s) for s in self.pts_top.values())
        total += sum(len(s) for s in self.mem.values())
        return total

    def flush_obs(self, obs: Observer) -> None:
        obs.count("solver.iterations", self.iterations)
        obs.count("solver.strong_updates", self.strong_updates)
        obs.count("solver.weak_updates", self.weak_updates)
        obs.count("solver.node_revisits",
                  max(0, self.iterations - len(self._visited)))
        obs.gauge("solver.dug_nodes", len(self.dug.nodes))
        obs.gauge("solver.points_to_entries", self.points_to_entries())
        obs.gauge("solver.engine_reference", 1)
        self.universe.flush_obs(obs)
