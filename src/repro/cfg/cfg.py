"""Per-function control-flow graphs over basic blocks."""

from __future__ import annotations

from typing import List

from repro.graphs.digraph import DiGraph
from repro.graphs.dominance import DominatorTree, dominance_frontiers
from repro.graphs.loops import blocks_in_loops
from repro.ir.instructions import Branch, Jump, Ret
from repro.ir.module import BasicBlock
from repro.ir.values import Function


class CFG:
    """The block-level CFG of one function.

    Nodes are :class:`BasicBlock` objects; edges follow terminators.
    Exposes dominator information and loop membership, which SSA
    construction and the thread model both consume.
    """

    def __init__(self, fn: Function) -> None:
        self.function = fn
        self.graph = DiGraph()
        self.entry = fn.entry
        self.exits: List[BasicBlock] = []
        for block in fn.blocks:
            self.graph.add_node(block)
            term = block.terminator
            if isinstance(term, Branch):
                self.graph.add_edge(block, term.then_block)
                self.graph.add_edge(block, term.else_block)
            elif isinstance(term, Jump):
                self.graph.add_edge(block, term.target)
            elif isinstance(term, Ret):
                self.exits.append(block)
        self._domtree = None
        self._frontiers = None
        self._loop_blocks = None

    @property
    def domtree(self) -> DominatorTree:
        if self._domtree is None:
            self._domtree = DominatorTree(self.graph, self.entry)
        return self._domtree

    @property
    def frontiers(self):
        if self._frontiers is None:
            self._frontiers = dominance_frontiers(self.graph, self.domtree)
        return self._frontiers

    @property
    def loop_blocks(self):
        """Blocks inside any natural loop of this function."""
        if self._loop_blocks is None:
            self._loop_blocks = blocks_in_loops(self.graph, self.entry)
        return self._loop_blocks

    def successors(self, block: BasicBlock):
        return self.graph.successors(block)

    def predecessors(self, block: BasicBlock):
        return self.graph.predecessors(block)
