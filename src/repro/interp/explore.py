"""Exhaustive (bounded) schedule exploration.

Enumerates every thread interleaving of a small program by DFS over
the scheduler's decision sequence, re-executing from scratch per
schedule (cells are mutable, so states are not cloned). Exponential,
of course — meant for programs of a few dozen steps, where it turns
the soundness check into a *tightness* check: the union of
observations over all schedules is the exact dynamic semantics the
static analysis over-approximates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Set, Tuple

from repro.interp.interpreter import ExecutionLimit, Interpreter
from repro.ir.instructions import (
    BarrierInit, BarrierWait, Fork, Join, Load, Lock, Signal, Store, Unlock,
    Wait,
)
from repro.ir.module import Module

# Operations whose interleaving other threads can observe. Everything
# else (temp arithmetic, branches, frame pushes) is thread-local, so a
# simple partial-order reduction runs it deterministically without
# branching the schedule.
_VISIBLE = (Load, Store, Fork, Join, Lock, Unlock, Wait, Signal,
            BarrierInit, BarrierWait)


class _Branch(Exception):
    """Raised when the schedule prefix runs out at a choice point."""

    def __init__(self, options: int) -> None:
        self.options = options


def _next_instr(thread):
    frame = thread.frame
    return frame.block.instructions[frame.index]


class _PrefixChooser:
    def __init__(self, prefix: Tuple[int, ...]) -> None:
        self.prefix = prefix
        self.position = 0

    def __call__(self, runnable):
        if len(runnable) == 1:
            return runnable[0]
        # Partial-order reduction: a thread about to execute an
        # invisible (thread-local) instruction can always go first.
        for thread in runnable:
            if not isinstance(_next_instr(thread), _VISIBLE):
                return thread
        if self.position >= len(self.prefix):
            raise _Branch(len(runnable))
        choice = self.prefix[self.position]
        self.position += 1
        return runnable[choice]


@dataclass
class ExplorationResult:
    """Everything the explorer saw across all enumerated schedules."""

    schedules_run: int = 0
    truncated: int = 0               # schedules hitting the step budget
    exhausted: bool = True           # False if the schedule cap hit
    # load index (order of appearance) -> set of observed object names.
    observations: Dict[int, Set[str]] = field(default_factory=dict)

    def observed_at(self, load_index: int) -> Set[str]:
        return self.observations.get(load_index, set())


def _load_index_map(module: Module) -> Dict[int, int]:
    mapping: Dict[int, int] = {}
    index = 0
    for instr in module.all_instructions():
        if isinstance(instr, Load):
            mapping[instr.id] = index
            index += 1
    return mapping


def explore_schedules(module_factory: Callable[[], Module],
                      max_schedules: int = 4096,
                      max_steps: int = 4000) -> ExplorationResult:
    """Run *every* interleaving (up to the caps) of the program built
    by ``module_factory`` (a fresh module per run — instruction
    identities differ, so observations are keyed by load *order*)."""
    result = ExplorationResult()
    stack: List[Tuple[int, ...]] = [()]
    while stack:
        if result.schedules_run >= max_schedules:
            result.exhausted = False
            break
        prefix = stack.pop()
        module = module_factory()
        load_index = _load_index_map(module)
        chooser = _PrefixChooser(prefix)
        interp = Interpreter(module, max_steps=max_steps, chooser=chooser)
        try:
            interp.run()
        except _Branch as branch:
            # Extend the prefix with every possible choice.
            for option in range(branch.options):
                stack.append(prefix + (option,))
            continue
        except ExecutionLimit:
            result.truncated += 1
        result.schedules_run += 1
        for obs in interp.observations:
            idx = load_index[obs.load.id]
            result.observations.setdefault(idx, set()).add(obs.target.name)
    return result


def observed_names_for_line(module: Module, result: ExplorationResult,
                            line: int, deref_only: bool = True) -> Set[str]:
    """Union of observations at the loads on *line* (matching the
    FSAMResult.deref_pts_at_line query)."""
    from repro.ir.instructions import AddrOf
    from repro.ir.values import Temp
    addr_defined: Set[int] = set()
    for instr in module.all_instructions():
        if isinstance(instr, AddrOf):
            addr_defined.add(instr.dst.id)
    load_index = _load_index_map(module)
    names: Set[str] = set()
    for instr in module.all_instructions():
        if isinstance(instr, Load) and instr.line == line:
            if deref_only and isinstance(instr.ptr, Temp) \
                    and instr.ptr.id in addr_defined:
                continue
            names |= result.observed_at(load_index[instr.id])
    return names
