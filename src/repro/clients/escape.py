"""Thread-escape classification (the "compiler optimization reuse"
client family of the paper's introduction).

Classifies every abstract object by which abstract threads may touch
it:

- ``THREAD_LOCAL`` — accessed by exactly one non-multi-forked thread:
  a compiler may reuse sequential optimisations (scalarisation,
  redundant-load elimination) on its accesses unchanged.
- ``SHARED``       — reachable from two threads (or one multi-forked
  thread): sequential optimisations need interference checks.

Accuracy comes straight from FSAM's thread model: the per-thread
state graphs say which code each abstract thread executes, and the
pre-analysis says which objects that code touches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.andersen import AndersenResult, run_andersen
from repro.ir.instructions import Load, Store
from repro.ir.module import Module
from repro.ir.values import Constant, MemObject
from repro.mt.threads import ThreadModel


class EscapeClass(enum.Enum):
    THREAD_LOCAL = "thread-local"
    SHARED = "shared"
    UNUSED = "unused"


@dataclass
class EscapeReport:
    classes: Dict[int, EscapeClass] = field(default_factory=dict)
    objects: Dict[int, MemObject] = field(default_factory=dict)
    accessing_threads: Dict[int, Set[int]] = field(default_factory=dict)

    def class_of(self, obj: MemObject) -> EscapeClass:
        return self.classes.get(obj.id, EscapeClass.UNUSED)

    def count(self, cls: EscapeClass) -> int:
        return sum(1 for c in self.classes.values() if c is cls)

    def summary(self) -> str:
        return (f"{len(self.classes)} objects: "
                f"{self.count(EscapeClass.THREAD_LOCAL)} thread-local, "
                f"{self.count(EscapeClass.SHARED)} shared, "
                f"{self.count(EscapeClass.UNUSED)} unused")


class EscapeAnalysis:
    """Object -> accessing-thread classification."""

    def __init__(self, module: Module,
                 andersen: Optional[AndersenResult] = None,
                 model: Optional[ThreadModel] = None) -> None:
        self.module = module
        self.andersen = andersen if andersen is not None else run_andersen(module)
        self.model = model if model is not None else ThreadModel(module, self.andersen)

    def run(self) -> EscapeReport:
        report = EscapeReport()
        multi = {t.id for t in self.model.threads if t.multi_forked}

        for instr in self.module.all_instructions():
            if not isinstance(instr, (Load, Store)):
                continue
            ptr = instr.ptr
            if ptr is None or isinstance(ptr, Constant):
                continue
            # The threads that execute the instruction.
            threads = {tid for tid, _sid in self.model.instances_of(instr)}
            for obj in self.andersen.pts(ptr):
                report.objects[obj.id] = obj
                report.accessing_threads.setdefault(obj.id, set()).update(
                    threads)

        for obj_id, obj in report.objects.items():
            threads = report.accessing_threads.get(obj_id, set())
            if not threads:
                report.classes[obj_id] = EscapeClass.UNUSED
            elif len(threads) > 1 or (threads & multi):
                report.classes[obj_id] = EscapeClass.SHARED
            else:
                report.classes[obj_id] = EscapeClass.THREAD_LOCAL
        return report


def classify_escapes(module: Module) -> EscapeReport:
    """Convenience wrapper."""
    return EscapeAnalysis(module).run()
