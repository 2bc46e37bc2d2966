"""A static data race detector on top of FSAM.

A race candidate is a pair of accesses (at least one a store) to a
common abstract object such that (1) the pair may happen in parallel
(FSAM's interleaving analysis), (2) FSAM's flow-sensitive points-to
sets confirm the aliasing, and (3) no common lock protects every
parallel instance of the pair (FSAM's lock-release spans).

Precision of the underlying pointer analysis translates directly into
fewer false positives here — the paper's motivating claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.fsam.analysis import FSAM, FSAMResult
from repro.fsam.config import FSAMConfig
from repro.ir.instructions import Instruction, Load, Store
from repro.ir.module import Module
from repro.ir.values import MemObject
from repro.mt.locks import LockAnalysis


@dataclass
class DataRace:
    """A reported race: two accesses on one abstract object."""

    store: Store
    access: Instruction  # a Load or another Store
    obj: MemObject

    @property
    def is_write_write(self) -> bool:
        return isinstance(self.access, Store)

    def describe(self) -> str:
        kind = "write-write" if self.is_write_write else "write-read"
        loc1 = f"line {self.store.line}" if self.store.line else f"#{self.store.id}"
        loc2 = f"line {self.access.line}" if self.access.line else f"#{self.access.id}"
        return f"{kind} race on '{self.obj.name}': {loc1} vs {loc2}"


class RaceDetector:
    """Runs FSAM, then filters access pairs."""

    def __init__(self, module: Module, config: Optional[FSAMConfig] = None) -> None:
        self.module = module
        self.config = config or FSAMConfig()
        self.result: Optional[FSAMResult] = None

    def run(self) -> List[DataRace]:
        result = FSAM(self.module, self.config).run()
        self.result = result
        mhp = result.mhp
        builder = result.builder
        locks = result.lock_analysis()

        # Sparse (flow-sensitive) aliasing: which objects can each
        # access actually touch, per FSAM rather than the pre-analysis.
        def sparse_objs(instr: Instruction) -> Set[MemObject]:
            if isinstance(instr, Store):
                pre = builder.chis.get(instr.id, set())
            else:
                pre = builder.mus.get(instr.id, set())
            return result.pts(instr.ptr) & pre

        stores_on: Dict[int, List[Store]] = {}
        accesses_on: Dict[int, List[Instruction]] = {}
        objects: Dict[int, MemObject] = {}
        for instr in self.module.all_instructions():
            if isinstance(instr, (Store, Load)):
                for obj in sparse_objs(instr):
                    objects[obj.id] = obj
                    accesses_on.setdefault(obj.id, []).append(instr)
                    if isinstance(instr, Store):
                        stores_on.setdefault(obj.id, []).append(instr)

        races: List[DataRace] = []
        reported: Set[Tuple[int, int, int]] = set()
        for obj_id, stores in stores_on.items():
            obj = objects[obj_id]
            for store in stores:
                for access in accesses_on.get(obj_id, []):
                    if access is store:
                        continue
                    if isinstance(access, Store) and access.id < store.id:
                        continue  # report each write-write pair once
                    key = (min(store.id, access.id), max(store.id, access.id), obj_id)
                    if key in reported:
                        continue
                    if self._races(store, access, obj, mhp, locks):
                        reported.add(key)
                        races.append(DataRace(store, access, obj))
        races.sort(key=lambda r: (r.store.line or 0, r.access.line or 0))
        return races

    def _races(self, store: Store, access: Instruction, obj: MemObject,
               mhp, locks: LockAnalysis) -> bool:
        found_unprotected = False
        for inst1, inst2 in mhp.parallel_instance_pairs(store, access):
            if not locks.commonly_protected(inst1, inst2):
                found_unprotected = True
                break
        return found_unprotected


def detect_races(module: Module, config: Optional[FSAMConfig] = None) -> List[DataRace]:
    """Convenience wrapper."""
    return RaceDetector(module, config).run()
