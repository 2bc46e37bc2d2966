"""Generic graph data structures and algorithms.

These are the compiler-infrastructure substrates FSAM is built on:
directed graphs, strongly connected components (one iterative Tarjan),
dominator trees (Cooper-Harvey-Kennedy), dominance frontiers, natural
loops, and a generic worklist data-flow framework.
"""

from repro.graphs.digraph import DiGraph
from repro.graphs.scc import tarjan_scc
from repro.graphs.dominance import DominatorTree, dominance_frontiers
from repro.graphs.loops import Loop, natural_loops
from repro.graphs.dataflow import DataflowProblem, solve_forward

__all__ = [
    "DiGraph",
    "tarjan_scc",
    "DominatorTree",
    "dominance_frontiers",
    "Loop",
    "natural_loops",
    "DataflowProblem",
    "solve_forward",
]
