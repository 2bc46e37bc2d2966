"""Memory SSA and the sparse def-use graph (DUG).

Implements the paper's Section 2.2 machinery: mu/chi annotation of
loads, stores, and callsites from pre-analysis points-to sets; SSA
renaming of address-taken objects; and the resulting def-use graph on
which the sparse flow-sensitive solver runs. The multithreaded
twists of Section 3.2 (thread-oblivious def-use) are built in: fork
sites act as callsites of their start routines with always-weak chi
functions (Steps 1-2), and join sites receive the joined routine's
side effects through exit-to-join def-use edges (Step 3).
"""

from repro.memssa.modref import ModRefAnalysis
from repro.memssa.dug import (
    DUG, DUGNode, StmtNode, MemPhiNode, FormalInNode, FormalOutNode,
    CallChiNode,
)
from repro.memssa.builder import MemorySSABuilder, build_dug

__all__ = [
    "ModRefAnalysis",
    "DUG", "DUGNode", "StmtNode", "MemPhiNode", "FormalInNode",
    "FormalOutNode", "CallChiNode",
    "MemorySSABuilder", "build_dug",
]
