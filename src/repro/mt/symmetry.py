"""Symmetric fork/join loop recognition.

The paper (Section 4.2, Figure 11) uses LLVM's SCEV alias analysis to
correlate a fork loop with its matching join loop: word_count forks N
slaves storing ids into ``tid[i]`` and later joins ``tid[i]`` in a
second, "symmetric" loop. Recognising the pattern lets FSAM treat
the (multi-forked) slave thread as fully joined once the join loop
finishes, so statements after it do not happen in parallel with the
slaves.

Our stand-in recognises the same shape on the IR: a fork in loop L1
storing thread ids into array object A, and a join in a later,
disjoint loop L2 whose handle is loaded from the same A, where A
holds ids of no other fork.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.andersen import AndersenResult
from repro.cfg.cfg import CFG
from repro.graphs.loops import Loop, natural_loops
from repro.ir.instructions import Fork, Join, Load
from repro.ir.module import BasicBlock, Module
from repro.ir.values import MemObject, Temp


class SymmetricPair:
    """A recognised fork-loop/join-loop correlation."""

    def __init__(self, fork: Fork, join: Join, handle_array: MemObject,
                 join_loop: Loop, kill_blocks: List[BasicBlock]) -> None:
        self.fork = fork
        self.join = join
        self.handle_array = handle_array
        self.join_loop = join_loop
        # Blocks at which the joined thread is certainly dead: the join
        # loop's exit targets (not the join statement itself — other
        # slave instances are still live mid-loop).
        self.kill_blocks = kill_blocks

    def __repr__(self) -> str:
        return f"<symmetric fork#{self.fork.id} ~ join#{self.join.id} via {self.handle_array.name}>"


def find_symmetric_pairs(module: Module, andersen: AndersenResult) -> Dict[Tuple[int, int], SymmetricPair]:
    """All symmetric (fork.id, join.id) pairs in *module*. A pair's
    fork and join lie in one function, so only a function holding both
    gets a CFG and loop analysis."""
    pairs: Dict[Tuple[int, int], SymmetricPair] = {}
    for fn in module.functions.values():
        kinds = {type(instr) for instr in fn.instructions()}
        if Fork in kinds and Join in kinds:
            pairs.update(_pairs_in_function(fn, andersen))
    return pairs


def _pairs_in_function(fn, andersen: AndersenResult) -> Dict[Tuple[int, int], SymmetricPair]:
    cfg = CFG(fn)
    loops = natural_loops(cfg.graph, cfg.entry)
    if not loops:
        return {}

    def innermost_loop(block: BasicBlock) -> Optional[Loop]:
        best: Optional[Loop] = None
        for loop in loops:
            if block in loop.body and (best is None or len(loop.body) < len(best.body)):
                best = loop
        return best

    # Index loads by their dst temp, to trace join handles to arrays.
    load_def: Dict[int, Load] = {}
    for instr in fn.instructions():
        if isinstance(instr, Load):
            load_def[instr.dst.id] = instr

    forks: List[Tuple[Fork, MemObject, Loop]] = []
    joins: List[Tuple[Join, MemObject, Loop]] = []
    for instr in fn.instructions():
        loop = innermost_loop(instr.block)
        if loop is None:
            continue
        if isinstance(instr, Fork) and instr.handle_ptr is not None:
            slots = andersen.pts(instr.handle_ptr)
            if len(slots) == 1:
                forks.append((instr, next(iter(slots)), loop))
        elif isinstance(instr, Join) and isinstance(instr.handle, Temp):
            load = load_def.get(instr.handle.id)
            if load is None:
                continue
            slots = andersen.pts(load.ptr)
            if len(slots) == 1:
                joins.append((instr, next(iter(slots)), loop))

    def dom_depth(block: BasicBlock) -> int:
        depth = 0
        node = block
        while node is not cfg.entry and node in cfg.domtree.idom:
            node = cfg.domtree.idom[node]
            depth += 1
        return depth

    # Match each join loop with the *nearest dominating* fork loop on
    # the same handle array — reused tid arrays (the common Phoenix
    # idiom) make "array holds one fork's ids" too strict, while
    # nearest-dominator matching mirrors what SCEV's induction
    # correlation establishes: the ids the join loop reads are the
    # ones the immediately preceding fork loop stored.
    result: Dict[Tuple[int, int], SymmetricPair] = {}
    for join, join_array, join_loop in joins:
        best = None
        best_depth = -1
        for fork, fork_array, fork_loop in forks:
            if fork_array is not join_array:
                continue
            if fork_loop.header is join_loop.header:
                continue  # the same loop: not a fork-then-join-all shape
            if fork_loop.body & join_loop.body:
                continue  # nested/overlapping loops
            # The fork loop must complete before the join loop starts.
            if not cfg.domtree.dominates(fork_loop.header, join_loop.header):
                continue
            tid = andersen.thread_objects.get(fork.id)
            if tid is None or tid not in andersen.pts(fork_array):
                continue
            depth = dom_depth(fork_loop.header)
            if depth > best_depth:
                best = (fork, fork_loop)
                best_depth = depth
        if best is not None:
            fork, _fork_loop = best
            kill_blocks = _loop_exit_blocks(cfg, join_loop)
            result[(fork.id, join.id)] = SymmetricPair(fork, join, join_array,
                                                       join_loop, kill_blocks)
    return result


def _loop_exit_blocks(cfg: CFG, loop: Loop) -> List[BasicBlock]:
    """Blocks outside *loop* that a loop block branches to."""
    exits: List[BasicBlock] = []
    for block in loop.body:
        for succ in cfg.successors(block):
            if succ not in loop.body and succ not in exits:
                exits.append(succ)
    return exits
