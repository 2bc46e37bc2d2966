"""Static deadlock detection on top of FSAM (paper future work §6).

Builds the lock-order graph from FSAM's lock-release spans: holding
l1 while acquiring l2 adds the edge l1 -> l2, witnessed by the inner
acquisition site. A cycle whose witness acquisitions may happen in
parallel (per the interleaving analysis) is a potential ABBA
deadlock. Precision of the span and MHP machinery translates
directly into fewer false alarms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.fsam.analysis import FSAM, FSAMResult
from repro.fsam.config import FSAMConfig
from repro.graphs.digraph import DiGraph
from repro.graphs.scc import tarjan_scc
from repro.ir.instructions import Lock
from repro.ir.module import Module
from repro.ir.values import MemObject
from repro.mt.threads import singleton_lock


@dataclass
class DeadlockCandidate:
    """A potential ABBA deadlock: two locks acquired in both orders by
    potentially-parallel code."""

    first: MemObject
    second: MemObject
    site_holding_first: Lock      # acquires `second` while holding `first`
    site_holding_second: Lock     # acquires `first` while holding `second`

    def describe(self) -> str:
        l1 = f"line {self.site_holding_first.line}" if self.site_holding_first.line else "?"
        l2 = f"line {self.site_holding_second.line}" if self.site_holding_second.line else "?"
        return (f"lock-order cycle {self.first.name} -> {self.second.name} "
                f"(at {l1}) vs {self.second.name} -> {self.first.name} (at {l2})")


class DeadlockDetector:
    """Runs FSAM, builds the lock-order graph, reports cycles."""

    def __init__(self, module: Module, config: Optional[FSAMConfig] = None) -> None:
        self.module = module
        self.config = config or FSAMConfig()
        self.result: Optional[FSAMResult] = None
        # (l1.id, l2.id) -> witness Lock instructions acquiring l2
        # while l1 is held.
        self.order_edges: Dict[Tuple[int, int], List[Lock]] = {}
        self.lock_objects: Dict[int, MemObject] = {}

    def run(self) -> List[DeadlockCandidate]:
        result = FSAM(self.module, self.config).run()
        self.result = result
        locks = result.lock_analysis()
        model = result.thread_model

        # Holding l1 (span of l1), acquiring l2: edge l1 -> l2.
        for span in locks.spans:
            l1 = span.lock_obj
            self.lock_objects[l1.id] = l1
            graph = model.state_graphs[span.thread.id]
            for sid in span.members:
                if sid == span.lock_sid:
                    continue
                instr = graph.instr_of(sid)
                if not isinstance(instr, Lock):
                    continue
                l2 = singleton_lock(result.andersen, instr.ptr)
                if l2 is None or l2 is l1:
                    continue
                self.lock_objects[l2.id] = l2
                self.order_edges.setdefault((l1.id, l2.id), [])
                if instr not in self.order_edges[(l1.id, l2.id)]:
                    self.order_edges[(l1.id, l2.id)].append(instr)

        return self._find_cycles(result)

    def _find_cycles(self, result: FSAMResult) -> List[DeadlockCandidate]:
        graph = DiGraph()
        for (a, b) in self.order_edges:
            graph.add_edge(a, b)
        candidates: List[DeadlockCandidate] = []
        reported: Set[Tuple[int, int]] = set()
        for scc in tarjan_scc(graph):
            if len(scc) < 2 and not graph.has_edge(scc[0], scc[0]):
                continue
            members = set(scc)
            for (a, b), sites_ab in self.order_edges.items():
                if a not in members or b not in members or a >= b:
                    continue
                sites_ba = self.order_edges.get((b, a))
                if not sites_ba or (a, b) in reported:
                    continue
                for s_ab in sites_ab:
                    for s_ba in sites_ba:
                        # Both inner acquisitions must be able to
                        # overlap in time for the ABBA interleaving.
                        if result.mhp.may_happen_in_parallel(s_ab, s_ba):
                            reported.add((a, b))
                            candidates.append(DeadlockCandidate(
                                first=self.lock_objects[a],
                                second=self.lock_objects[b],
                                site_holding_first=s_ab,
                                site_holding_second=s_ba))
                            break
                    if (a, b) in reported:
                        break
        candidates.sort(key=lambda c: (c.first.name, c.second.name))
        return candidates


def detect_deadlocks(module: Module, config: Optional[FSAMConfig] = None) -> List[DeadlockCandidate]:
    """Convenience wrapper."""
    return DeadlockDetector(module, config).run()
