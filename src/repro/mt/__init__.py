"""Thread interference analyses (the heart of FSAM, paper Section 3).

- :mod:`repro.mt.context`  — calling-context stacks.
- :mod:`repro.mt.threads`  — the static thread model: abstract threads
  ([T-FORK]/[T-JOIN]/[T-SIBLING]), multi-forked threads
  (Definition 1), per-thread state graphs (contexts expanded into
  sync-reaching callees, span-keyed copies of sync-free ones) with
  their lock-release spans, must-join analysis, happens-before
  (Definition 2).
- :mod:`repro.mt.mhp`      — the interleaving analysis (Figure 7) and
  MHP pair queries.
- :mod:`repro.mt.locks`    — lock-release spans (from the state
  graphs), span heads/tails, non-interference lock pairs
  (Definitions 3-6).
- :mod:`repro.mt.valueflow`— [THREAD-VF]: thread-aware def-use edges.
- :mod:`repro.mt.symmetry` — the symmetric fork/join loop matcher
  standing in for the paper's SCEV-based correlation (Figure 11).
"""

from repro.mt.context import Context
from repro.mt.threads import AbstractThread, ThreadModel, ThreadStateGraph
from repro.mt.mhp import InterleavingAnalysis, MHPOracle, CoarsePCGMhp
from repro.mt.locks import LockAnalysis, LockSpan
from repro.mt.valueflow import add_thread_aware_edges

__all__ = [
    "Context",
    "AbstractThread", "ThreadModel", "ThreadStateGraph",
    "InterleavingAnalysis", "MHPOracle", "CoarsePCGMhp",
    "LockAnalysis", "LockSpan",
    "add_thread_aware_edges",
]
