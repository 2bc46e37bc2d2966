"""mem2reg: promote non-escaping scalar stack slots to SSA temps.

This reproduces the compile setup of the paper (Section 4.1: "the
compiler option mem2reg is turned on to promote memory into
registers"), and is what creates the top-level/address-taken split of
partial SSA: a local whose address never escapes becomes a top-level
SSA variable; everything else remains an address-taken object in A.

Classic SSA construction: phi insertion at iterated dominance
frontiers, then renaming along a dominator-tree walk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cfg.cfg import CFG
from repro.graphs.dominance import iterated_dominance_frontier
from repro.ir.instructions import (
    AddrOf, BarrierInit, BarrierWait, BinOp, Branch, Call, Copy, Fork, Gep,
    Instruction, Join, Load, Lock, Phi, Ret, Signal, Store, Unlock, Wait,
)
from repro.ir.module import BasicBlock, Module
from repro.ir.types import IntType, PointerType, ThreadType, Type
from repro.ir.values import Constant, Function, MemObject, ObjectKind, Temp, Value


def _promotable_type(ty: Type) -> bool:
    """Scalars only: ints, pointers, thread ids. Structs, arrays, and
    mutexes stay in memory."""
    return isinstance(ty, (IntType, PointerType, ThreadType))


def _undef_for(ty: Type) -> Constant:
    """The value of a promoted variable before any store reaches it."""
    if isinstance(ty, PointerType):
        return Constant.null(ty)
    return Constant(0, ty)


def promote_to_ssa(module: Module) -> None:
    """Run mem2reg on every function of *module* (in place)."""
    for fn in module.functions.values():
        if not fn.is_declaration and fn.blocks:
            _promote_function(fn)


def _promote_function(fn: Function) -> None:
    # 1. Find promotable objects: stack scalars whose address temps are
    #    used only as the pointer operand of loads and stores.
    addr_temps: Dict[Temp, MemObject] = {}
    candidates: Dict[MemObject, bool] = {}
    for block in fn.blocks:
        for instr in block.instructions:
            if isinstance(instr, AddrOf):
                obj = instr.obj
                if obj.kind is ObjectKind.STACK and _promotable_type(obj.type) \
                        and not obj.is_array:
                    addr_temps[instr.dst] = obj
                    candidates.setdefault(obj, True)
    if not addr_temps:
        return

    for block in fn.blocks:
        for instr in block.instructions:
            # A load's only operand is its pointer, and a store's pointer
            # operand is a promotable use unless it is also the value.
            if isinstance(instr, Load):
                continue
            uses = (instr.value,) if isinstance(instr, Store) else instr.operands()
            for op in uses:
                obj = addr_temps.get(op)
                if obj is not None:
                    candidates[obj] = False

    # Insertion-ordered (dict order), not a set: phi instructions are
    # created while iterating this, and their order decides temp
    # numbering — which must be identical across runs and processes
    # for the artifact cache's canonical indices.
    promoted = [obj for obj, ok in candidates.items() if ok]
    if not promoted:
        return
    promoted_set = set(promoted)
    # The address temps of promoted objects: the loads, stores and
    # AddrOfs through them are rewritten away.
    slots: Dict[Temp, MemObject] = {temp: obj for temp, obj in addr_temps.items()
                                    if obj in promoted_set}
    cfg = CFG(fn)

    # 2. Phi insertion at iterated dominance frontiers of def blocks.
    def_blocks: Dict[MemObject, Set[BasicBlock]] = {obj: set() for obj in promoted}
    for block in fn.blocks:
        for instr in block.instructions:
            if isinstance(instr, Store):
                obj = slots.get(instr.ptr)
                if obj is not None:
                    def_blocks[obj].add(block)

    phi_var: Dict[Phi, MemObject] = {}
    counters: Dict[MemObject, int] = {obj: 0 for obj in promoted}
    for obj in promoted:
        # Sort the IDF (a set of address-hashed blocks) by block id —
        # ids follow deterministic creation order, so phi placement
        # order is stable across runs and processes.
        for block in sorted(
                iterated_dominance_frontier(cfg.frontiers, def_blocks[obj]),
                key=lambda b: b.id):
            counters[obj] += 1
            phi = Phi(Temp(f"{obj.name}.phi{counters[obj]}", obj.type))
            block.insert(0, phi)
            phi_var[phi] = obj

    # 3. Renaming along the dominator tree.
    stacks: Dict[MemObject, List[Value]] = {obj: [] for obj in promoted}
    replacement: Dict[Value, Value] = {}
    to_delete: Set[Instruction] = set()

    def current(obj: MemObject) -> Value:
        return stacks[obj][-1] if stacks[obj] else _undef_for(obj.type)

    def process(block: BasicBlock) -> List[MemObject]:
        pushed: List[MemObject] = []
        for instr in block.instructions:
            if isinstance(instr, Load):
                obj = slots.get(instr.ptr)
                if obj is not None:
                    replacement[instr.dst] = current(obj)
                    to_delete.add(instr)
            elif isinstance(instr, Store):
                obj = slots.get(instr.ptr)
                if obj is not None:
                    stacks[obj].append(instr.value)
                    pushed.append(obj)
                    to_delete.add(instr)
            elif isinstance(instr, AddrOf):
                if instr.dst in slots:
                    to_delete.add(instr)
            elif isinstance(instr, Phi):
                obj = phi_var.get(instr)
                if obj is not None:
                    stacks[obj].append(instr.dst)
                    pushed.append(obj)
        for succ in cfg.successors(block):
            for instr in succ.instructions:
                if not isinstance(instr, Phi):
                    break
                if instr in phi_var:
                    instr.add_incoming(current(phi_var[instr]), block)
        return pushed

    # Iterative dominator-tree walk (deep trees exceed the recursion
    # limit on generated workloads).
    stack: List[Tuple[BasicBlock, Optional[List[MemObject]], int]] = [(cfg.entry, None, 0)]
    while stack:
        block, pushed, child_idx = stack.pop()
        if pushed is None:
            pushed = process(block)
        children = cfg.domtree.children(block)
        if child_idx < len(children):
            stack.append((block, pushed, child_idx + 1))
            stack.append((children[child_idx], None, 0))
        else:
            for obj in reversed(pushed):
                stacks[obj].pop()

    # 4. Resolve replacement chains once (a load's value may itself be
    #    a deleted load's dst; the chains are acyclic), then rewrite
    #    every remaining operand.
    for temp, value in replacement.items():
        while value in replacement:
            value = replacement[value]
        replacement[temp] = value

    for block in fn.blocks:
        block.instructions = [i for i in block.instructions if i not in to_delete]
        for instr in block.instructions:
            _rewrite_operands(instr, replacement)


def _rewrite_operands(instr: Instruction, replacement: Dict[Value, Value]) -> None:
    """Replace each operand of *instr* that *replacement* maps. The
    most frequent kinds are tested first; AddrOf and Jump read no
    replaceable operand."""
    get = replacement.get
    if isinstance(instr, Gep):
        instr.base = get(instr.base, instr.base)
    elif isinstance(instr, Load):
        instr.ptr = get(instr.ptr, instr.ptr)
    elif isinstance(instr, BinOp):
        instr.lhs = get(instr.lhs, instr.lhs)
        instr.rhs = get(instr.rhs, instr.rhs)
    elif isinstance(instr, Store):
        instr.ptr = get(instr.ptr, instr.ptr)
        instr.value = get(instr.value, instr.value)
    elif isinstance(instr, Branch):
        instr.cond = get(instr.cond, instr.cond)
    elif isinstance(instr, Ret):
        if instr.value is not None:
            instr.value = get(instr.value, instr.value)
    elif isinstance(instr, Phi):
        instr.incomings = [(get(v, v), b) for v, b in instr.incomings]
    elif isinstance(instr, Call):
        instr.callee = get(instr.callee, instr.callee)
        instr.args = [get(a, a) for a in instr.args]
    elif isinstance(instr, (Lock, Unlock, BarrierWait)):
        instr.ptr = get(instr.ptr, instr.ptr)
    elif isinstance(instr, Copy):
        instr.src = get(instr.src, instr.src)
    elif isinstance(instr, Fork):
        if instr.handle_ptr is not None:
            instr.handle_ptr = get(instr.handle_ptr, instr.handle_ptr)
        instr.routine = get(instr.routine, instr.routine)
        if instr.arg is not None:
            instr.arg = get(instr.arg, instr.arg)
    elif isinstance(instr, Join):
        instr.handle = get(instr.handle, instr.handle)
    elif isinstance(instr, Wait):
        instr.cond_ptr = get(instr.cond_ptr, instr.cond_ptr)
        instr.mutex_ptr = get(instr.mutex_ptr, instr.mutex_ptr)
    elif isinstance(instr, Signal):
        instr.cond_ptr = get(instr.cond_ptr, instr.cond_ptr)
    elif isinstance(instr, BarrierInit):
        instr.ptr = get(instr.ptr, instr.ptr)
        instr.count = get(instr.count, instr.count)
