"""Concrete execution of the IR with interleaved threads.

Runtime model:

- A *cell* is one runtime memory location, tagged with the abstract
  object it refines. Recursion and multi-forked threads create many
  cells per abstract stack object; arrays are one cell (matching the
  analyses' monolithic treatment, so observations stay comparable).
- Runtime values are ints, ``Pointer(cell, field)``, ``FuncRef``,
  ``ThreadRef``, or None (uninitialised).
- The scheduler picks a runnable thread per step from a seeded RNG —
  replaying seeds enumerates interleavings deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ir.instructions import (
    AddrOf, BarrierInit, BarrierWait, BinOp, Branch, Call, Copy, Fork, Gep,
    Instruction, Join, Jump, Load, Lock, Phi, Ret, Signal, Store, Unlock,
    Wait,
)
from repro.ir.module import BasicBlock, Module
from repro.ir.types import ArrayType, StructType
from repro.ir.values import Constant, Function, MemObject, Temp, Value


class ExecutionLimit(Exception):
    """The step budget ran out (likely an infinite loop or deadlock)."""


class SegmentationFault(Exception):
    """A null/garbage pointer was dereferenced. In C this is undefined
    behaviour; we model the common outcome — the process dies — so the
    static analyses' kill-everything treatment of null stores (paper
    Figure 10, kill = A) stays a sound over-approximation of every
    observable execution prefix."""


class Cell:
    """One runtime memory location."""

    _ids = 0

    def __init__(self, obj: MemObject) -> None:
        Cell._ids += 1
        self.id = Cell._ids
        self.obj = obj
        self.scalar: object = None
        self.fields: Dict[int, object] = {}

    def read(self, field_index: Optional[int]):
        if field_index is None:
            return self.scalar
        return self.fields.get(field_index)

    def write(self, field_index: Optional[int], value) -> None:
        if field_index is None:
            self.scalar = value
        else:
            self.fields[field_index] = value

    def __repr__(self) -> str:
        return f"<cell {self.obj.name}#{self.id}>"


@dataclass(frozen=True)
class Pointer:
    cell: Cell
    field: Optional[int] = None

    def abstract_object(self) -> MemObject:
        """The abstract object this pointer's target refines."""
        if self.field is None:
            return self.cell.obj
        ty = self.cell.obj.type
        if isinstance(ty, ArrayType):
            ty = ty.element
        if isinstance(ty, StructType) and self.field < len(ty.fields):
            return self.cell.obj.field(self.field, ty.field_type(self.field))
        return self.cell.obj


@dataclass(frozen=True)
class FuncRef:
    function: Function


@dataclass(frozen=True)
class ThreadRef:
    thread_index: int
    fork_id: int


@dataclass
class Observation:
    """One load's dynamically observed pointed-to abstract object."""

    load: Load
    target: MemObject


class Frame:
    def __init__(self, function: Function) -> None:
        self.function = function
        self.block: BasicBlock = function.entry
        self.index = 0
        self.prev_block: Optional[BasicBlock] = None
        self.temps: Dict[int, object] = {}
        self.cells: Dict[int, Cell] = {}  # stack obj id -> cell
        self.ret_target: Optional[Temp] = None


class ThreadExec:
    def __init__(self, index: int, function: Function, arg) -> None:
        self.index = index
        self.frames: List[Frame] = [Frame(function)]
        if function.params and arg is not None:
            self.frames[0].temps[function.params[0].id] = arg
        self.done = False
        self.joining: Optional[int] = None       # thread index awaited
        self.waiting_lock: Optional[Cell] = None
        self.waiting_barrier: Optional[int] = None  # barrier cell id

    @property
    def frame(self) -> Frame:
        return self.frames[-1]


class Interpreter:
    """Executes a module from ``main`` under one schedule."""

    def __init__(self, module: Module, seed: int = 0, max_steps: int = 100000,
                 chooser=None) -> None:
        self.module = module
        self.rng = random.Random(seed)
        self.max_steps = max_steps
        # Optional scheduling hook: chooser(runnable) -> ThreadExec.
        # Used by the exhaustive explorer to enumerate interleavings.
        self.chooser = chooser
        self.globals: Dict[int, Cell] = {}
        for obj in module.globals.values():
            self.globals[obj.id] = Cell(obj)
        self.threads: List[ThreadExec] = [ThreadExec(0, module.main, None)]
        self.locks_held: Dict[int, int] = {}       # cell id -> thread index
        # barrier cell id -> {"count": n, "arrived": set of thread idx}
        self.barriers: Dict[int, Dict[str, object]] = {}
        self.observations: List[Observation] = []
        self.steps = 0

    # -- value evaluation --------------------------------------------------

    def _value(self, frame: Frame, value: Value):
        if isinstance(value, Constant):
            return None if value.is_null else value.value
        if isinstance(value, Function):
            return FuncRef(value)
        if isinstance(value, Temp):
            return frame.temps.get(value.id)
        raise TypeError(f"cannot evaluate {value!r}")

    def _cell_of(self, thread: ThreadExec, obj: MemObject) -> Cell:
        if obj.id in self.globals:
            return self.globals[obj.id]
        frame = thread.frame
        cell = frame.cells.get(obj.id)
        if cell is None:
            cell = Cell(obj)
            frame.cells[obj.id] = cell
        return cell

    # -- scheduling ---------------------------------------------------------

    def _runnable(self) -> List[ThreadExec]:
        result = []
        for t in self.threads:
            if t.done:
                continue
            if t.waiting_barrier is not None:
                continue  # released by the last thread to arrive
            if t.joining is not None:
                if self.threads[t.joining].done:
                    t.joining = None
                else:
                    continue
            if t.waiting_lock is not None:
                if t.waiting_lock.id not in self.locks_held:
                    self.locks_held[t.waiting_lock.id] = t.index
                    t.waiting_lock = None
                else:
                    continue
            result.append(t)
        return result

    def run(self) -> List[Observation]:
        """Run to completion (or the step budget); returns observations.

        A segmentation fault ends the run like a real process death:
        the observations gathered so far are the execution's output."""
        try:
            return self._run_loop()
        except SegmentationFault:
            return self.observations

    def _run_loop(self) -> List[Observation]:
        while True:
            runnable = self._runnable()
            if not runnable:
                if all(t.done for t in self.threads):
                    return self.observations
                # Blocked threads remain: deadlock. Surface it as a
                # limit; tests treat it as a truncated execution.
                raise ExecutionLimit("deadlock")
            self.steps += 1
            if self.steps > self.max_steps:
                raise ExecutionLimit("step budget exhausted")
            if self.chooser is not None:
                thread = self.chooser(runnable)
            else:
                thread = self.rng.choice(runnable)
            self._step(thread)

    # -- one instruction -------------------------------------------------------

    def _step(self, thread: ThreadExec) -> None:
        frame = thread.frame
        instr = frame.block.instructions[frame.index]
        frame.index += 1
        self._execute(thread, frame, instr)

    def _jump(self, frame: Frame, target: BasicBlock) -> None:
        frame.prev_block = frame.block
        frame.block = target
        frame.index = 0

    def _execute(self, thread: ThreadExec, frame: Frame, instr: Instruction) -> None:
        if isinstance(instr, AddrOf):
            frame.temps[instr.dst.id] = Pointer(self._cell_of(thread, instr.obj))
        elif isinstance(instr, Copy):
            frame.temps[instr.dst.id] = self._value(frame, instr.src)
        elif isinstance(instr, Phi):
            for value, block in instr.incomings:
                if block is frame.prev_block:
                    frame.temps[instr.dst.id] = self._value(frame, value)
                    break
        elif isinstance(instr, Load):
            ptr = self._value(frame, instr.ptr)
            if not isinstance(ptr, Pointer):
                raise SegmentationFault(f"load through {ptr!r} at {instr!r}")
            loaded = ptr.cell.read(ptr.field)
            frame.temps[instr.dst.id] = loaded
            target = self._abstract_target(loaded)
            if target is not None:
                self.observations.append(Observation(instr, target))
        elif isinstance(instr, Store):
            ptr = self._value(frame, instr.ptr)
            if not isinstance(ptr, Pointer):
                raise SegmentationFault(f"store through {ptr!r} at {instr!r}")
            ptr.cell.write(ptr.field, self._value(frame, instr.value))
        elif isinstance(instr, Gep):
            base = self._value(frame, instr.base)
            if isinstance(base, Pointer):
                if instr.field_index is None:
                    frame.temps[instr.dst.id] = Pointer(base.cell, base.field)
                else:
                    frame.temps[instr.dst.id] = Pointer(base.cell, instr.field_index)
            else:
                frame.temps[instr.dst.id] = None
        elif isinstance(instr, Call):
            self._call(thread, frame, instr)
        elif isinstance(instr, Ret):
            value = self._value(frame, instr.value) if instr.value is not None else None
            ret_target = frame.ret_target
            thread.frames.pop()
            if not thread.frames:
                thread.done = True
                return
            if ret_target is not None:
                thread.frame.temps[ret_target.id] = value
        elif isinstance(instr, Fork):
            self._fork(thread, frame, instr)
        elif isinstance(instr, Join):
            handle = self._value(frame, instr.handle)
            if isinstance(handle, ThreadRef):
                if not self.threads[handle.thread_index].done:
                    thread.joining = handle.thread_index
        elif isinstance(instr, Lock):
            ptr = self._value(frame, instr.ptr)
            if isinstance(ptr, Pointer):
                if ptr.cell.id in self.locks_held:
                    thread.waiting_lock = ptr.cell
                else:
                    self.locks_held[ptr.cell.id] = thread.index
        elif isinstance(instr, Unlock):
            ptr = self._value(frame, instr.ptr)
            if isinstance(ptr, Pointer):
                if self.locks_held.get(ptr.cell.id) == thread.index:
                    del self.locks_held[ptr.cell.id]
        elif isinstance(instr, Wait):
            # Spurious-wakeup model (valid per POSIX): release the
            # mutex, then immediately contend to re-acquire it. The
            # condition variable itself imposes no ordering here.
            mu = self._value(frame, instr.mutex_ptr)
            if isinstance(mu, Pointer):
                if self.locks_held.get(mu.cell.id) == thread.index:
                    del self.locks_held[mu.cell.id]
                thread.waiting_lock = mu.cell
        elif isinstance(instr, Signal):
            pass  # no-op under the spurious-wakeup model
        elif isinstance(instr, BarrierInit):
            ptr = self._value(frame, instr.ptr)
            count = self._value(frame, instr.count)
            if isinstance(ptr, Pointer) and isinstance(count, int):
                self.barriers[ptr.cell.id] = {"count": max(count, 1),
                                              "arrived": set()}
        elif isinstance(instr, BarrierWait):
            ptr = self._value(frame, instr.ptr)
            if isinstance(ptr, Pointer):
                state = self.barriers.setdefault(
                    ptr.cell.id, {"count": 1, "arrived": set()})
                arrived = state["arrived"]
                arrived.add(thread.index)
                if len(arrived) >= state["count"]:
                    for idx in arrived:
                        self.threads[idx].waiting_barrier = None
                    arrived.clear()
                else:
                    thread.waiting_barrier = ptr.cell.id
        elif isinstance(instr, Branch):
            cond = self._value(frame, instr.cond)
            taken = instr.then_block if self._truthy(cond) else instr.else_block
            self._jump(frame, taken)
        elif isinstance(instr, Jump):
            self._jump(frame, instr.target)
        elif isinstance(instr, BinOp):
            frame.temps[instr.dst.id] = self._binop(frame, instr)

    def _abstract_target(self, value) -> Optional[MemObject]:
        if isinstance(value, Pointer):
            return value.abstract_object()
        if isinstance(value, FuncRef):
            return value.function.mem_object
        return None

    def _truthy(self, value) -> bool:
        if value is None:
            return False
        if isinstance(value, int):
            return value != 0
        return True  # pointers/functions/threads are non-null

    def _binop(self, frame: Frame, instr: BinOp):
        lhs = self._value(frame, instr.lhs)
        rhs = self._value(frame, instr.rhs)
        op = instr.op
        if op == "==":
            return int(lhs == rhs)
        if op == "!=":
            return int(lhs != rhs)
        if op == "&&":
            return int(self._truthy(lhs) and self._truthy(rhs))
        if op == "||":
            return int(self._truthy(lhs) or self._truthy(rhs))
        if op == "!":
            return int(not self._truthy(rhs))
        lhs = lhs if isinstance(lhs, int) else 0
        rhs = rhs if isinstance(rhs, int) else 0
        try:
            if op == "+":
                return lhs + rhs
            if op == "-":
                return lhs - rhs
            if op == "*":
                return lhs * rhs
            if op == "/":
                return lhs // rhs if rhs else 0
            if op == "%":
                return lhs % rhs if rhs else 0
            if op == "<":
                return int(lhs < rhs)
            if op == ">":
                return int(lhs > rhs)
            if op == "<=":
                return int(lhs <= rhs)
            if op == ">=":
                return int(lhs >= rhs)
        except OverflowError:  # pragma: no cover
            return 0
        return 0

    def _call(self, thread: ThreadExec, frame: Frame, instr: Call) -> None:
        callee = self._resolve_callee(frame, instr.callee)
        if callee is None or callee.is_declaration or not callee.blocks:
            if instr.dst is not None:
                frame.temps[instr.dst.id] = None
            return
        new_frame = Frame(callee)
        new_frame.ret_target = instr.dst
        for param, arg in zip(callee.params, instr.args):
            new_frame.temps[param.id] = self._value(frame, arg)
        # Heap allocations: a fresh cell per executed AddrOf of a heap
        # object is created lazily by _cell_of per frame; globals are
        # shared. (Stack objects are per-frame by construction.)
        thread.frames.append(new_frame)

    def _resolve_callee(self, frame: Frame, callee: Value) -> Optional[Function]:
        if isinstance(callee, Function):
            return callee
        value = self._value(frame, callee)
        if isinstance(value, FuncRef):
            return value.function
        return None

    def _fork(self, thread: ThreadExec, frame: Frame, instr: Fork) -> None:
        routine = self._resolve_callee(frame, instr.routine)
        if routine is None or not routine.blocks:
            return
        arg = self._value(frame, instr.arg) if instr.arg is not None else None
        child = ThreadExec(len(self.threads), routine, arg)
        self.threads.append(child)
        if instr.handle_ptr is not None:
            ptr = self._value(frame, instr.handle_ptr)
            if isinstance(ptr, Pointer):
                ptr.cell.write(ptr.field, ThreadRef(child.index, instr.id))


def run_program(module: Module, seed: int = 0, max_steps: int = 100000) -> List[Observation]:
    """Execute *module* under the schedule drawn from *seed*."""
    return Interpreter(module, seed=seed, max_steps=max_steps).run()
