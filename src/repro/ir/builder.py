"""A convenience builder for constructing IR programmatically.

Used by the frontend's lowering pass, by the workload generators, and
heavily by tests that need precise control of the IR under analysis.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.ir.instructions import (
    AddrOf, BarrierInit, BarrierWait, BinOp, Branch, Call, Copy, Fork, Gep,
    Join, Jump, Load, Lock, Phi, Ret, Signal, Store, Unlock, Wait,
)
from repro.ir.module import BasicBlock, Module
from repro.ir.types import FunctionType, INT, PointerType, Type, VOID
from repro.ir.values import Constant, Function, MemObject, ObjectKind, Temp, Value


class IRBuilder:
    """Builds instructions at an insertion point, LLVM-IRBuilder style."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.function: Optional[Function] = None
        self.block: Optional[BasicBlock] = None
        self._temp_counter = itertools.count()
        self._block_counter = itertools.count()

    # -- structure ----------------------------------------------------

    def new_function(self, name: str, ret: Type = VOID, param_types: Optional[List[Type]] = None,
                     param_names: Optional[List[str]] = None) -> Function:
        """Create a function with an entry block and position at it."""
        param_types = param_types or []
        fn = Function(name, FunctionType(ret, param_types))
        for i, pty in enumerate(param_types):
            pname = param_names[i] if param_names else f"{name}.arg{i}"
            fn.params.append(Temp(pname, pty))
        self.module.add_function(fn)
        entry = self.new_block("entry", fn)
        self.position(fn, entry)
        return fn

    def new_block(self, label: Optional[str] = None, fn: Optional[Function] = None) -> BasicBlock:
        fn = fn or self.function
        assert fn is not None, "no current function"
        suffix = next(self._block_counter)
        label = f"{label}{suffix}" if label else f"bb{suffix}"
        block = BasicBlock(f"{fn.name}.{label}", fn)
        fn.blocks.append(block)
        return block

    def position(self, fn: Function, block: BasicBlock) -> None:
        self.function = fn
        self.block = block

    def position_at(self, block: BasicBlock) -> None:
        self.function = block.function
        self.block = block

    def temp(self, ty: Type, hint: str = "t") -> Temp:
        return Temp(f"{hint}{next(self._temp_counter)}", ty)

    def _emit(self, instr, line: Optional[int] = None):
        assert self.block is not None, "builder has no insertion block"
        if line is not None:
            instr.line = line
        return self.block.append(instr)

    # -- objects ------------------------------------------------------

    def stack_object(self, name: str, ty: Type, is_array: bool = False,
                     in_recursion: bool = False) -> MemObject:
        fn_name = self.function.name if self.function else "?"
        obj = MemObject(name, ty, ObjectKind.STACK, alloc_fn=fn_name,
                        is_array=is_array, in_recursion=in_recursion)
        return self.module.register_object(obj)

    def heap_object(self, name: str, ty: Type) -> MemObject:
        fn_name = self.function.name if self.function else "?"
        obj = MemObject(name, ty, ObjectKind.HEAP, alloc_fn=fn_name)
        return self.module.register_object(obj)

    # -- instructions -------------------------------------------------

    def addr_of(self, obj: MemObject, dst: Optional[Temp] = None, hint: str = "p",
                line: Optional[int] = None) -> Temp:
        dst = dst or self.temp(PointerType(obj.type), hint)
        self._emit(AddrOf(dst, obj), line)
        return dst

    def copy(self, src: Value, dst: Optional[Temp] = None, hint: str = "c",
             line: Optional[int] = None) -> Temp:
        dst = dst or self.temp(src.type, hint)
        self._emit(Copy(dst, src), line)
        return dst

    def load(self, ptr: Temp, dst: Optional[Temp] = None, hint: str = "l",
             line: Optional[int] = None) -> Temp:
        pointee = ptr.type.pointee if isinstance(ptr.type, PointerType) else INT
        dst = dst or self.temp(pointee, hint)
        self._emit(Load(dst, ptr), line)
        return dst

    def store(self, ptr: Temp, value: Value, line: Optional[int] = None) -> Store:
        return self._emit(Store(ptr, value), line)

    def gep(self, base: Temp, field_index: Optional[int], field_ty: Type,
            dst: Optional[Temp] = None, line: Optional[int] = None) -> Temp:
        dst = dst or self.temp(PointerType(field_ty), "g")
        self._emit(Gep(dst, base, field_index), line)
        return dst

    def phi(self, dst: Temp, line: Optional[int] = None) -> Phi:
        return self._emit(Phi(dst), line)

    def call(self, callee: Value, args: Optional[List[Value]] = None,
             dst: Optional[Temp] = None, line: Optional[int] = None) -> Call:
        return self._emit(Call(dst, callee, args or []), line)

    def ret(self, value: Optional[Value] = None, line: Optional[int] = None) -> Ret:
        return self._emit(Ret(value), line)

    def fork(self, handle_ptr: Optional[Temp], routine: Value,
             arg: Optional[Value] = None, line: Optional[int] = None) -> Fork:
        return self._emit(Fork(handle_ptr, routine, arg), line)

    def join(self, handle: Temp, line: Optional[int] = None) -> Join:
        return self._emit(Join(handle), line)

    def lock(self, ptr: Temp, line: Optional[int] = None) -> Lock:
        return self._emit(Lock(ptr), line)

    def unlock(self, ptr: Temp, line: Optional[int] = None) -> Unlock:
        return self._emit(Unlock(ptr), line)

    def wait(self, cond_ptr: Temp, mutex_ptr: Temp, line: Optional[int] = None):
        return self._emit(Wait(cond_ptr, mutex_ptr), line)

    def signal(self, cond_ptr: Temp, broadcast: bool = False,
               line: Optional[int] = None):
        return self._emit(Signal(cond_ptr, broadcast=broadcast), line)

    def barrier_init(self, ptr: Temp, count: Value, line: Optional[int] = None):
        return self._emit(BarrierInit(ptr, count), line)

    def barrier_wait(self, ptr: Temp, line: Optional[int] = None):
        return self._emit(BarrierWait(ptr), line)

    def branch(self, cond: Value, then_block: BasicBlock, else_block: BasicBlock,
               line: Optional[int] = None) -> Branch:
        return self._emit(Branch(cond, then_block, else_block), line)

    def jump(self, target: BasicBlock, line: Optional[int] = None) -> Jump:
        return self._emit(Jump(target), line)

    def binop(self, op: str, lhs: Value, rhs: Value, dst: Optional[Temp] = None,
              line: Optional[int] = None) -> Temp:
        dst = dst or self.temp(INT, "b")
        self._emit(BinOp(dst, op, lhs, rhs), line)
        return dst

    def const(self, value: int) -> Constant:
        return Constant(value, INT)
