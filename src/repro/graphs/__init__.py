"""Generic graph data structures and algorithms.

These are the compiler-infrastructure substrates FSAM is built on:
directed graphs, strongly connected components (one iterative Tarjan),
dominator trees (Cooper-Harvey-Kennedy), dominance frontiers, natural
loops, and dense int graphs with a forward gen/kill data-flow solver.
"""

from repro.graphs.digraph import DiGraph
from repro.graphs.scc import tarjan_scc
from repro.graphs.dominance import DominatorTree, dominance_frontiers
from repro.graphs.loops import Loop, natural_loops
from repro.graphs.dense import DenseGraph, forward_facts

__all__ = [
    "DiGraph",
    "tarjan_scc",
    "DominatorTree",
    "dominance_frontiers",
    "Loop",
    "natural_loops",
    "DenseGraph",
    "forward_facts",
]
