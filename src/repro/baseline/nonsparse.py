"""NONSPARSE: traditional data-flow flow-sensitive pointer analysis.

Maintains the points-to state of every address-taken object at every
ICFG node and iterates transfer functions to a fixpoint, propagating
whole states from each node to its successors whether or not the
facts are needed there — the approach whose time and memory blow-up
motivates FSAM (paper Sections 1.1 and 4).

Thread interference is handled at PCG granularity: the effects of
every store are visible to every load in any procedure that may
execute concurrently (by the coarse procedure-level MHP), with no
flow-sensitive join or lock reasoning.

Top-level SSA temps keep a single global points-to set (they are
thread-local registers in partial SSA; both analyses treat them the
same way, so the comparison isolates the address-taken machinery).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set

from repro.andersen import AndersenResult, run_andersen
from repro.andersen.fields import derive_field
from repro.baseline.pcg import ProcedureConcurrencyGraph
from repro.cfg.icfg import ICFG, NodeKind
from repro.fsam.config import Deadline, FSAMConfig
from repro.ir.instructions import (
    AddrOf, Call, Copy, Fork, Gep, Load, Phi, Ret, Store,
)
from repro.ir.module import Module
from repro.ir.values import Constant, Function, MemObject, Temp, Value
from repro.obs import NULL_OBS, Observer
from repro.pts import PTSet, PTUniverse

# A memory state: object id -> interned points-to set. Because PTSets
# are hash-consed, the per-ICFG-node states share set instances, which
# is what keeps this deliberately-wasteful baseline runnable at all.
# An object that points nowhere has no entry: with no empty sets
# stored, two states are equal exactly when they hold the same facts,
# so the worklist stops once no fact grows.
MemState = Dict[int, PTSet]


class NonSparseResult:
    """Query interface mirroring :class:`repro.fsam.FSAMResult`."""

    def __init__(self, analysis: "NonSparseAnalysis") -> None:
        self.analysis = analysis
        self.module = analysis.module

    def pts(self, value: Value) -> PTSet:
        return self.analysis.value_pts(value)

    def pts_names(self, value: Value) -> Set[str]:
        return {o.name for o in self.pts(value)}

    def deref_pts_at_line(self, line: int) -> PTSet:
        addr_defined: Set[int] = set()
        for instr in self.module.all_instructions():
            if isinstance(instr, AddrOf):
                addr_defined.add(instr.dst.id)
        result = self.analysis.universe.empty
        for instr in self.module.all_instructions():
            if isinstance(instr, Load) and instr.line == line:
                if isinstance(instr.ptr, Temp) and instr.ptr.id in addr_defined:
                    continue
                result = result | self.pts(instr.dst)
        return result

    def deref_pts_names_at_line(self, line: int) -> Set[str]:
        return {o.name for o in self.deref_pts_at_line(line)}

    def points_to_entries(self) -> int:
        return self.analysis.points_to_entries()

    def total_time(self) -> float:
        return self.analysis.elapsed


class NonSparseAnalysis:
    """The baseline solver."""

    def __init__(self, module: Module, config: Optional[FSAMConfig] = None,
                 obs: Observer = NULL_OBS) -> None:
        self.module = module
        self.config = config or FSAMConfig()
        self.obs = obs
        self.andersen: Optional[AndersenResult] = None
        self.icfg: Optional[ICFG] = None
        self.pcg: Optional[ProcedureConcurrencyGraph] = None
        self.universe: Optional[PTUniverse] = None    # set from the pre-analysis
        self.pts_top: Dict[int, PTSet] = {}
        # Temp id -> the nodes whose transfer reads its set, and the
        # ids of the temps the current transfer grew.
        self._readers: Dict[int, List[int]] = {}
        self._grown: List[int] = []
        # Thread class id -> the loads that read its store effects.
        self._effect_readers: Dict[int, List[int]] = {}
        # Fork node -> the start routines' entries, and back: thread
        # start sees the spawner's state. The shared ICFG has no such
        # edges, so the baseline keeps its own.
        self._fork_succs: Dict[int, List[int]] = {}
        self._fork_preds: Dict[int, List[int]] = {}
        self.out_state: Dict[int, MemState] = {}      # ICFG node -> state
        self.iterations = 0
        self.strong_updates = 0
        self.weak_updates = 0
        self.parallel_requeues = 0
        self.elapsed = 0.0
        # Per thread class: accumulated store effects (obj id -> values)
        # visible to concurrently-running procedures.
        self._class_effects: Dict[int, Dict[int, PTSet]] = {}
        self._objects_by_id: Dict[int, MemObject] = {}

    # -- top-level helpers ------------------------------------------------

    def value_pts(self, value: Optional[Value]) -> PTSet:
        if value is None or isinstance(value, Constant):
            return self.universe.empty
        if isinstance(value, Function):
            return self.universe.singleton(value.mem_object)
        if isinstance(value, Temp):
            return self.pts_top.get(value.id, self.universe.empty)
        return self.universe.empty

    def _set_top(self, temp: Temp, values: PTSet) -> bool:
        current = self.pts_top.get(temp.id, self.universe.empty)
        merged = current | values
        if merged is current:
            return False
        self.pts_top[temp.id] = merged
        self._grown.append(temp.id)
        return True

    def _build_readers(self) -> None:
        """Index, once, which nodes read each temp and each thread
        class's store effects. Every instruction reads its operands,
        and a call with a result also reads the value of each of its
        callees' returns. A load reads the effects of every class
        parallel to its procedure."""
        readers = self._readers
        callgraph = self.andersen.callgraph
        for fn in self.module.functions.values():
            loads = [self.icfg.node_of(instr) for instr in fn.instructions()
                     if isinstance(instr, Load)]
            if loads:
                for cid in self.pcg.parallel_classes(fn):
                    self._effect_readers.setdefault(cid, []).extend(loads)
        for instr in self.module.all_instructions():
            node = self.icfg.node_of(instr)
            values = list(instr.operands())
            if isinstance(instr, Call) and instr.dst is not None:
                for callee in callgraph.callees(instr):
                    values.extend(rv.value for rv in callee.instructions()
                                  if isinstance(rv, Ret))
            for value in values:
                if isinstance(value, Temp):
                    readers.setdefault(value.id, []).append(node)

    # -- interference ---------------------------------------------------------

    def _record_store_effect(self, instr: Store) -> None:
        targets = self.value_pts(instr.ptr)
        values = self.value_pts(instr.value)
        if not targets or not values:
            return
        empty = self.universe.empty
        for cid in self.pcg.classes_of(instr.function):
            effects = self._class_effects.setdefault(cid, {})
            for obj in targets:
                effects[obj.id] = effects.get(obj.id, empty) | values

    def _interference_values(self, instr, obj: MemObject) -> PTSet:
        """Concurrent stores' contributions to reads of *obj* at a
        statement of this procedure."""
        empty = self.universe.empty
        result = empty
        for cid in self.pcg.parallel_classes(instr.function):
            result = result | self._class_effects.get(cid, {}).get(obj.id, empty)
        return result

    # -- solving -----------------------------------------------------------------

    def run(self) -> NonSparseResult:
        deadline = Deadline(self.config.time_budget)
        obs = self.obs
        with obs.phase("pre_analysis"):
            self.andersen = run_andersen(self.module, obs=obs)
        self.universe = self.andersen.universe
        with obs.phase("icfg"):
            self.icfg = ICFG(self.module, self.andersen.callgraph)
        with obs.phase("pcg"):
            self.pcg = ProcedureConcurrencyGraph(self.module, self.andersen)
        for obj in self.module.objects:
            self._objects_by_id[obj.id] = obj
        self._build_readers()

        icfg = self.icfg
        # Fork nodes feed the start routine's entry (thread start sees
        # the spawner's state); joins are identity (interference covers
        # the rest).
        for instr in self.module.all_instructions():
            if isinstance(instr, Fork):
                node = icfg.node_of(instr)
                entries = sorted(icfg.entry_of(routine) for routine
                                 in self.andersen.callgraph.callees(instr)
                                 if icfg.has_body(routine))
                for entry in entries:
                    self._fork_succs.setdefault(node, []).append(entry)
                    self._fork_preds.setdefault(entry, []).append(node)

        work: deque = deque(icfg.nodes())
        queued = bytearray(b"\x01") * len(icfg)

        def push(node: int) -> None:
            if not queued[node]:
                queued[node] = 1
                work.append(node)

        with obs.phase("nonsparse_solve"):
            while work:
                if self.iterations % 64 == 0:
                    deadline.check()
                self.iterations += 1
                node = work.popleft()
                queued[node] = 0
                in_state = self._merge_in(node)
                out_state, top_changed, effect_stores = self._transfer(node, in_state)
                old = self.out_state.get(node)
                if old != out_state:
                    self.out_state[node] = out_state
                    for succ in icfg.successors(node):
                        push(succ)
                    for succ in self._fork_succs.get(node, ()):
                        push(succ)
                if top_changed:
                    # A grown temp is read wherever it is used, not only
                    # downstream of this node: a callee's uses of a
                    # parameter, the users of a call's result, a call
                    # reading its callees' returns. Requeue every reader.
                    for temp_id in self._grown:
                        for reader in self._readers.get(temp_id, ()):
                            push(reader)
                self._grown.clear()
                if effect_stores:
                    # New interference effects become visible to every
                    # load that reads this store's classes: requeue them.
                    self._requeue_parallel(node, push)
        self.elapsed = deadline.elapsed()
        self.flush_obs(obs)
        return NonSparseResult(self)

    def flush_obs(self, obs: Observer) -> None:
        obs.count("nonsparse.iterations", self.iterations)
        obs.count("nonsparse.strong_updates", self.strong_updates)
        obs.count("nonsparse.weak_updates", self.weak_updates)
        obs.count("nonsparse.parallel_requeues", self.parallel_requeues)
        obs.gauge("nonsparse.icfg_nodes", len(self.icfg))
        obs.gauge("nonsparse.points_to_entries", self.points_to_entries())
        self.universe.flush_obs(obs)

    def _requeue_parallel(self, node: int, push) -> None:
        for cid in self.pcg.classes_of(self.icfg.function[node]):
            for load in self._effect_readers.get(cid, ()):
                self.parallel_requeues += 1
                push(load)

    def _merge_in(self, node: int) -> MemState:
        state: MemState = {}
        preds = self.icfg.predecessors(node)
        forks = self._fork_preds.get(node)
        for pred in preds if forks is None else [*preds, *forks]:
            pred_out = self.out_state.get(pred)
            if not pred_out:
                continue
            for obj_id, values in pred_out.items():
                existing = state.get(obj_id)
                # Interned union: shared masks make the all-paths merge
                # a dict-lookup + big-int OR instead of a set copy.
                state[obj_id] = values if existing is None else (existing | values)
        return state

    def _transfer(self, node: int, state: MemState):
        """Returns (out_state, top_changed, produced_new_effects)."""
        kind = self.icfg.kind[node]
        if kind != NodeKind.STMT and kind != NodeKind.CALL:
            return state, False, False
        instr = self.icfg.instr[node]
        top_changed = False
        new_effects = False
        if isinstance(instr, AddrOf):
            top_changed = self._set_top(instr.dst, {instr.obj})
        elif isinstance(instr, Copy):
            top_changed = self._set_top(instr.dst, self.value_pts(instr.src))
        elif isinstance(instr, Phi):
            merged = self.universe.empty
            for value, _b in instr.incomings:
                merged = merged | self.value_pts(value)
            top_changed = self._set_top(instr.dst, merged)
        elif isinstance(instr, Gep):
            derived = self.universe.make(
                derive_field(o, instr.field_index)
                for o in self.value_pts(instr.base))
            top_changed = self._set_top(instr.dst, derived)
        elif isinstance(instr, Load):
            empty = self.universe.empty
            values = empty
            for obj in self.value_pts(instr.ptr):
                values = values | state.get(obj.id, empty)
                values = values | self._interference_values(instr, obj)
            top_changed = self._set_top(instr.dst, values)
        elif isinstance(instr, Store):
            empty = self.universe.empty
            targets = self.value_pts(instr.ptr)
            stored = self.value_pts(instr.value)
            if targets:
                state = dict(state)
                single = len(targets) == 1
                for obj in targets:
                    # Same strong-update gate as the sparse solver
                    # (fsam/solver.py:_eval_store): the pointer must
                    # resolve to exactly one object AND that object
                    # must be a singleton — checked per object, not on
                    # an arbitrary element of the target set.
                    if single and obj.is_singleton:
                        self.strong_updates += 1
                        if stored:
                            state[obj.id] = stored
                        else:
                            state.pop(obj.id, None)
                    else:
                        self.weak_updates += 1
                        if stored:
                            state[obj.id] = state.get(obj.id, empty) | stored
                before = self._effect_sizes(instr)
                self._record_store_effect(instr)
                new_effects = self._effect_sizes(instr) != before
            else:
                # kill(s, p) = A when the pointer resolves to nothing
                # (paper Figure 10): a store through null defines no
                # known location and propagates nothing. Mirror the
                # sparse analysis by killing the objects the
                # pre-analysis says the pointer could name.
                pre = self.andersen.pts(instr.ptr)
                if pre:
                    state = dict(state)
                    for obj in pre:
                        state.pop(obj.id, None)
        elif isinstance(instr, Fork):
            # The abstract thread id lands in the handle slot.
            if instr.handle_ptr is not None:
                tid = self.andersen.thread_objects.get(instr.id)
                slots = self.value_pts(instr.handle_ptr)
                if tid is not None and slots:
                    state = dict(state)
                    tid_set = self.universe.singleton(tid)
                    for obj in slots:
                        state[obj.id] = state.get(obj.id, self.universe.empty) | tid_set
            for routine in self.andersen.callgraph.callees(instr):
                if routine.blocks and instr.arg is not None and routine.params:
                    top_changed |= self._set_top(routine.params[0],
                                                 self.value_pts(instr.arg))
        elif isinstance(instr, Call):
            for callee in self.andersen.callgraph.callees(instr):
                if callee.is_declaration or not callee.blocks:
                    continue
                for param, arg in zip(callee.params, instr.args):
                    top_changed |= self._set_top(param, self.value_pts(arg))
                if instr.dst is not None:
                    for rv in callee.instructions():
                        if isinstance(rv, Ret) and rv.value is not None:
                            top_changed |= self._set_top(instr.dst,
                                                         self.value_pts(rv.value))
        return state, top_changed, new_effects

    def _effect_sizes(self, instr: Store) -> int:
        total = 0
        for cid in self.pcg.classes_of(instr.function):
            effects = self._class_effects.get(cid, {})
            total += sum(len(v) for v in effects.values())
        return total

    # -- metrics -------------------------------------------------------------------

    def points_to_entries(self) -> int:
        total = sum(len(s) for s in self.pts_top.values())
        for state in self.out_state.values():
            total += sum(len(v) for v in state.values())
        return total
