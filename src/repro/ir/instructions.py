"""IR instructions.

The pointer-relevant core matches the paper's five statement forms
(ADDROF, COPY, LOAD, STORE, PHI) plus GEP for field addresses, CALL /
RET for interprocedural flow, FORK / JOIN / LOCK / UNLOCK for the
Pthreads API, branch terminators, and opaque scalar arithmetic.

Every instruction carries a stable integer ``id`` so analyses can use
instructions as graph nodes, and a back-pointer to its basic block.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.ir.values import Function, MemObject, Temp, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.module import BasicBlock


class Instruction:
    """Base class of all instructions."""

    _ids = itertools.count()

    def __init__(self) -> None:
        self.id = next(Instruction._ids)
        self.block: Optional["BasicBlock"] = None
        # Source line for diagnostics (set by the frontend when known).
        self.line: Optional[int] = None

    @property
    def function(self):
        """The enclosing function (via the parent block)."""
        return self.block.function if self.block is not None else None

    def is_terminator(self) -> bool:
        return isinstance(self, (Branch, Jump, Ret))

    def operands(self) -> List[Value]:
        """Values read by this instruction (for generic traversals)."""
        return []

    def defined_temp(self) -> Optional[Temp]:
        """The Temp this instruction defines, if any."""
        return getattr(self, "dst", None)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} #{self.id}>"


class AddrOf(Instruction):
    """``p = &o`` — also models allocation sites (malloc, globals)."""

    def __init__(self, dst: Temp, obj: MemObject) -> None:
        super().__init__()
        self.dst = dst
        self.obj = obj

    def operands(self) -> List[Value]:
        return [self.obj]

    def __repr__(self) -> str:
        return f"{self.dst!r} = &{self.obj.name}"


class Copy(Instruction):
    """``p = q`` (q may be a constant, e.g. null)."""

    def __init__(self, dst: Temp, src: Value) -> None:
        super().__init__()
        self.dst = dst
        self.src = src

    def operands(self) -> List[Value]:
        return [self.src]

    def __repr__(self) -> str:
        return f"{self.dst!r} = {self.src!r}"


class Phi(Instruction):
    """``p = phi [(v1, b1), (v2, b2), ...]`` for top-level variables."""

    def __init__(self, dst: Temp, incomings: Optional[List[Tuple[Value, "BasicBlock"]]] = None) -> None:
        super().__init__()
        self.dst = dst
        self.incomings: List[Tuple[Value, "BasicBlock"]] = incomings or []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        self.incomings.append((value, block))

    def operands(self) -> List[Value]:
        return [v for v, _ in self.incomings]

    def __repr__(self) -> str:
        parts = ", ".join(f"[{v!r}, {b.label}]" for v, b in self.incomings)
        return f"{self.dst!r} = phi {parts}"


class Load(Instruction):
    """``p = *q``."""

    def __init__(self, dst: Temp, ptr: Temp) -> None:
        super().__init__()
        self.dst = dst
        self.ptr = ptr

    def operands(self) -> List[Value]:
        return [self.ptr]

    def __repr__(self) -> str:
        return f"{self.dst!r} = *{self.ptr!r}"


class Store(Instruction):
    """``*p = q``."""

    def __init__(self, ptr: Temp, value: Value) -> None:
        super().__init__()
        self.ptr = ptr
        self.value = value

    def operands(self) -> List[Value]:
        return [self.ptr, self.value]

    def __repr__(self) -> str:
        return f"*{self.ptr!r} = {self.value!r}"


class Gep(Instruction):
    """``p = &q->f`` — field address (field-sensitive pointer step).

    ``field_index`` of ``None`` encodes an array element address,
    which is analysed monolithically (same object as the base).
    """

    def __init__(self, dst: Temp, base: Temp, field_index: Optional[int]) -> None:
        super().__init__()
        self.dst = dst
        self.base = base
        self.field_index = field_index

    def operands(self) -> List[Value]:
        return [self.base]

    def __repr__(self) -> str:
        if self.field_index is None:
            return f"{self.dst!r} = gep {self.base!r}[*]"
        return f"{self.dst!r} = gep {self.base!r}.f{self.field_index}"


class Call(Instruction):
    """``p = call callee(args)``; callee may be a Function or a Temp
    (function pointer, resolved by the pre-analysis)."""

    def __init__(self, dst: Optional[Temp], callee: Value, args: List[Value]) -> None:
        super().__init__()
        self.dst = dst
        self.callee = callee
        self.args = args

    @property
    def is_indirect(self) -> bool:
        return not isinstance(self.callee, Function)

    def operands(self) -> List[Value]:
        return [self.callee] + list(self.args)

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        prefix = f"{self.dst!r} = " if self.dst is not None else ""
        return f"{prefix}call {self.callee!r}({args})"


class Ret(Instruction):
    """``ret v`` (terminator)."""

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__()
        self.value = value

    def operands(self) -> List[Value]:
        return [self.value] if self.value is not None else []

    def __repr__(self) -> str:
        return f"ret {self.value!r}" if self.value is not None else "ret"


class Fork(Instruction):
    """``fork(handle_ptr, routine, arg)`` — pthread_create.

    ``handle_ptr`` points at the pthread_t slot written by the create;
    ``routine`` is a Function or a function-pointer Temp; ``arg`` is
    the single void* argument passed to the start routine.
    """

    def __init__(self, handle_ptr: Optional[Temp], routine: Value, arg: Optional[Value]) -> None:
        super().__init__()
        self.handle_ptr = handle_ptr
        self.routine = routine
        self.arg = arg

    def operands(self) -> List[Value]:
        ops: List[Value] = [self.routine]
        if self.handle_ptr is not None:
            ops.append(self.handle_ptr)
        if self.arg is not None:
            ops.append(self.arg)
        return ops

    def __repr__(self) -> str:
        return f"fork(&{self.handle_ptr!r}, {self.routine!r}, {self.arg!r})"


class Join(Instruction):
    """``join(handle)`` — pthread_join on the thread id in *handle*."""

    def __init__(self, handle: Temp) -> None:
        super().__init__()
        self.handle = handle

    def operands(self) -> List[Value]:
        return [self.handle]

    def __repr__(self) -> str:
        return f"join({self.handle!r})"


class Lock(Instruction):
    """``lock(l)`` — pthread_mutex_lock through pointer *ptr*."""

    def __init__(self, ptr: Temp) -> None:
        super().__init__()
        self.ptr = ptr

    def operands(self) -> List[Value]:
        return [self.ptr]

    def __repr__(self) -> str:
        return f"lock({self.ptr!r})"


class Unlock(Instruction):
    """``unlock(l)`` — pthread_mutex_unlock through pointer *ptr*."""

    def __init__(self, ptr: Temp) -> None:
        super().__init__()
        self.ptr = ptr

    def operands(self) -> List[Value]:
        return [self.ptr]

    def __repr__(self) -> str:
        return f"unlock({self.ptr!r})"


class Wait(Instruction):
    """``wait(cv, mu)`` — pthread_cond_wait.

    Semantically releases *mutex_ptr*, sleeps, and re-acquires it.
    The analyses treat the sleep soundly as a no-op (POSIX allows
    spurious wakeups, so "may return at any time" is a valid model),
    but the release/re-acquire matters: a lock-release span ends at a
    wait on its own mutex and a fresh span begins after it.
    """

    def __init__(self, cond_ptr: Temp, mutex_ptr: Temp) -> None:
        super().__init__()
        self.cond_ptr = cond_ptr
        self.mutex_ptr = mutex_ptr

    def operands(self) -> List[Value]:
        return [self.cond_ptr, self.mutex_ptr]

    def __repr__(self) -> str:
        return f"wait({self.cond_ptr!r}, {self.mutex_ptr!r})"


class Signal(Instruction):
    """``signal(cv)`` / ``broadcast(cv)`` — pthread_cond_signal and
    pthread_cond_broadcast. A sound no-op for the analyses."""

    def __init__(self, cond_ptr: Temp, broadcast: bool = False) -> None:
        super().__init__()
        self.cond_ptr = cond_ptr
        self.broadcast = broadcast

    def operands(self) -> List[Value]:
        return [self.cond_ptr]

    def __repr__(self) -> str:
        name = "broadcast" if self.broadcast else "signal"
        return f"{name}({self.cond_ptr!r})"


class BarrierInit(Instruction):
    """``barrier_init(b, n)`` — pthread_barrier_init with count *n*."""

    def __init__(self, ptr: Temp, count: Value) -> None:
        super().__init__()
        self.ptr = ptr
        self.count = count

    def operands(self) -> List[Value]:
        return [self.ptr, self.count]

    def __repr__(self) -> str:
        return f"barrier_init({self.ptr!r}, {self.count!r})"


class BarrierWait(Instruction):
    """``barrier_wait(b)`` — pthread_barrier_wait. A sound no-op for
    the analyses; the interpreter performs the real rendezvous."""

    def __init__(self, ptr: Temp) -> None:
        super().__init__()
        self.ptr = ptr

    def operands(self) -> List[Value]:
        return [self.ptr]

    def __repr__(self) -> str:
        return f"barrier_wait({self.ptr!r})"


class Branch(Instruction):
    """Conditional branch (terminator). The condition is opaque to the
    pointer analysis (paths are merged, per flow-sensitivity)."""

    def __init__(self, cond: Value, then_block: "BasicBlock", else_block: "BasicBlock") -> None:
        super().__init__()
        self.cond = cond
        self.then_block = then_block
        self.else_block = else_block

    def operands(self) -> List[Value]:
        return [self.cond]

    def __repr__(self) -> str:
        return f"br {self.cond!r}, {self.then_block.label}, {self.else_block.label}"


class Jump(Instruction):
    """Unconditional branch (terminator)."""

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__()
        self.target = target

    def __repr__(self) -> str:
        return f"jmp {self.target.label}"


class BinOp(Instruction):
    """Scalar arithmetic / comparison; opaque to pointer analysis."""

    def __init__(self, dst: Temp, op: str, lhs: Value, rhs: Value) -> None:
        super().__init__()
        self.dst = dst
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def operands(self) -> List[Value]:
        return [self.lhs, self.rhs]

    def __repr__(self) -> str:
        return f"{self.dst!r} = {self.lhs!r} {self.op} {self.rhs!r}"
