"""IR verifier.

Checks the structural invariants every analysis in this package relies
on: blocks end in exactly one terminator, temporaries obey SSA (unique
definition), phi instructions lead their block and name only actual
predecessors, and operand parent links are consistent.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.instructions import Branch, Instruction, Jump, Phi
from repro.ir.module import BasicBlock, Module
from repro.ir.values import Function, Temp


class VerificationError(Exception):
    """Raised when a module violates an IR invariant."""


def _block_successors(block: BasicBlock) -> List[BasicBlock]:
    term = block.terminator
    if isinstance(term, Branch):
        return [term.then_block, term.else_block]
    if isinstance(term, Jump):
        return [term.target]
    return []


def verify_function(fn: Function) -> None:
    """Verify one function; raises :class:`VerificationError`."""
    if fn.is_declaration:
        return
    if not fn.blocks:
        raise VerificationError(f"{fn.name}: no basic blocks")

    defined: Dict[Temp, Instruction] = {}
    preds: Dict[BasicBlock, Set[BasicBlock]] = {b: set() for b in fn.blocks}

    for block in fn.blocks:
        if block.function is not fn:
            raise VerificationError(f"{fn.name}/{block.label}: bad function back-pointer")
        term = block.terminator
        if term is None:
            raise VerificationError(f"{fn.name}/{block.label}: missing terminator")
        for i, instr in enumerate(block.instructions):
            if instr.block is not block:
                raise VerificationError(f"{fn.name}/{block.label}: instruction {instr!r} has bad block pointer")
            if instr.is_terminator() and i != len(block.instructions) - 1:
                raise VerificationError(f"{fn.name}/{block.label}: terminator {instr!r} not last")
            dst = instr.defined_temp()
            if dst is not None:
                if dst in defined:
                    raise VerificationError(
                        f"{fn.name}: temp {dst!r} defined twice ({defined[dst]!r} and {instr!r})")
                defined[dst] = instr
        for succ in _block_successors(block):
            if succ not in preds:
                raise VerificationError(
                    f"{fn.name}/{block.label}: branch to foreign block {succ.label}")
            preds[succ].add(block)

    for block in fn.blocks:
        seen_non_phi = False
        for instr in block.instructions:
            if isinstance(instr, Phi):
                if seen_non_phi:
                    raise VerificationError(
                        f"{fn.name}/{block.label}: phi {instr!r} after non-phi instruction")
                incoming_blocks = {b for _, b in instr.incomings}
                if incoming_blocks != preds[block]:
                    raise VerificationError(
                        f"{fn.name}/{block.label}: phi {instr!r} incomings {sorted(b.label for b in incoming_blocks)} "
                        f"!= predecessors {sorted(b.label for b in preds[block])}")
            else:
                seen_non_phi = True

    # Uses of temps must be defined somewhere (params count as defs).
    known = set(defined) | set(fn.params)
    for block in fn.blocks:
        for instr in block.instructions:
            for op in instr.operands():
                if isinstance(op, Temp) and op not in known:
                    raise VerificationError(
                        f"{fn.name}/{block.label}: use of undefined temp {op!r} in {instr!r}")


def verify_module(module: Module) -> None:
    """Verify every function in *module*."""
    for fn in module.functions.values():
        verify_function(fn)
