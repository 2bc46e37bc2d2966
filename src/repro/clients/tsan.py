"""Static instrumentation reduction for dynamic race detectors.

The paper's future work (§6) proposes combining FSAM with tools like
Google's ThreadSanitizer "to reduce their instrumentation overhead":
an access that FSAM proves race-free never needs a runtime check.

This client classifies every load and store:

- ``RACY``        — participates in at least one MHP, aliased,
                    not-commonly-locked access pair: must instrument.
- ``LOCKED``      — conflicts exist, but every parallel instance pair
                    is protected by a common lock: a dynamic detector
                    with lock-set reasoning can skip or downgrade it.
- ``LOCAL``       — no conflicting parallel access at all: skip.

The summary reports the fraction of instrumentation sites avoided.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.fsam.analysis import FSAM, FSAMResult
from repro.fsam.config import FSAMConfig
from repro.ir.instructions import Instruction, Load, Store
from repro.ir.module import Module
from repro.ir.values import Constant, MemObject
from repro.mt.locks import LockAnalysis


class AccessClass(enum.Enum):
    RACY = "racy"
    LOCKED = "locked"
    LOCAL = "local"


@dataclass
class InstrumentationReport:
    """Per-access classes plus the headline reduction numbers."""

    classes: Dict[int, AccessClass] = field(default_factory=dict)
    accesses: Dict[int, Instruction] = field(default_factory=dict)

    def count(self, cls: AccessClass) -> int:
        return sum(1 for c in self.classes.values() if c is cls)

    @property
    def total(self) -> int:
        return len(self.classes)

    @property
    def reduction(self) -> float:
        """Fraction of accesses that need no full instrumentation."""
        if not self.classes:
            return 0.0
        return 1.0 - self.count(AccessClass.RACY) / self.total

    def class_of(self, instr: Instruction) -> Optional[AccessClass]:
        return self.classes.get(instr.id)

    def summary(self) -> str:
        return (f"{self.total} accesses: {self.count(AccessClass.RACY)} racy, "
                f"{self.count(AccessClass.LOCKED)} lock-protected, "
                f"{self.count(AccessClass.LOCAL)} thread-local "
                f"-> {self.reduction * 100.0:.1f}% instrumentation avoided")


class InstrumentationReducer:
    """Classifies accesses using FSAM's MHP + aliasing + lock spans."""

    def __init__(self, module: Module, config: Optional[FSAMConfig] = None) -> None:
        self.module = module
        self.config = config or FSAMConfig()
        self.result: Optional[FSAMResult] = None

    def _objects_of(self, andersen, instr: Instruction) -> Set[MemObject]:
        ptr = instr.ptr
        if isinstance(ptr, Constant) or ptr is None:
            return set()
        return andersen.pts(ptr)

    def run(self) -> InstrumentationReport:
        result = FSAM(self.module, self.config).run()
        self.result = result
        andersen = result.andersen
        locks = LockAnalysis(result.thread_model, andersen,
                             result.dug, result.builder)
        mhp = result.mhp

        accesses: List[Instruction] = []
        objs_of: Dict[int, Set[MemObject]] = {}
        by_object: Dict[int, List[Instruction]] = {}
        writers: Dict[int, List[Instruction]] = {}
        for instr in self.module.all_instructions():
            if isinstance(instr, (Load, Store)):
                objs = self._objects_of(andersen, instr)
                if not objs:
                    continue
                accesses.append(instr)
                objs_of[instr.id] = objs
                for obj in objs:
                    by_object.setdefault(obj.id, []).append(instr)
                    if isinstance(instr, Store):
                        writers.setdefault(obj.id, []).append(instr)

        report = InstrumentationReport()
        for access in accesses:
            report.accesses[access.id] = access
            cls = AccessClass.LOCAL
            for obj in objs_of[access.id]:
                conflicting = (by_object.get(obj.id, [])
                               if isinstance(access, Store)
                               else writers.get(obj.id, []))
                for other in conflicting:
                    if other is access:
                        continue
                    verdict = self._pair_class(access, other, mhp, locks)
                    if verdict is AccessClass.RACY:
                        cls = AccessClass.RACY
                        break
                    if verdict is AccessClass.LOCKED and cls is AccessClass.LOCAL:
                        cls = AccessClass.LOCKED
                if cls is AccessClass.RACY:
                    break
            report.classes[access.id] = cls
        return report

    def _pair_class(self, a: Instruction, b: Instruction, mhp,
                    locks: LockAnalysis) -> AccessClass:
        saw_pair = False
        for inst1, inst2 in mhp.parallel_instance_pairs(a, b):
            saw_pair = True
            if not locks.commonly_protected(inst1, inst2):
                return AccessClass.RACY
        return AccessClass.LOCKED if saw_pair else AccessClass.LOCAL


def reduce_instrumentation(module: Module,
                           config: Optional[FSAMConfig] = None) -> InstrumentationReport:
    """Convenience wrapper."""
    return InstrumentationReducer(module, config).run()
