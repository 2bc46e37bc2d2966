"""Control-flow graphs: per-function CFGs, the interprocedural CFG
(ICFG) with matched call/return edges, and the call graph."""

from repro.cfg.cfg import CFG
from repro.cfg.callgraph import CallGraph
from repro.cfg.icfg import ICFG, EdgeKind, NodeKind

__all__ = ["CFG", "CallGraph", "EdgeKind", "ICFG", "NodeKind"]
