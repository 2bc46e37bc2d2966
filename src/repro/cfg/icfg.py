"""The interprocedural control-flow graph (ICFG).

Statement-level nodes, with every call site split into a *call node*
and a *return-site node* (paper Section 3.1). Three edge kinds:
intra-procedural, interprocedural call (call node -> callee entry),
and interprocedural return (callee exit -> return-site node).

Fork and join sites deliberately have **no** interprocedural edges
("There are no outgoing edges for a fork or join site"): in a thread's
own ICFG, control falls through a fork to the next statement, and the
spawnee's code is reachable only as another thread's ICFG. Function
pointers at indirect calls are resolved by the pre-analysis.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cfg.callgraph import CallGraph
from repro.graphs.digraph import DiGraph
from repro.ir.instructions import Branch, Call, Instruction, Jump, Ret
from repro.ir.module import BasicBlock, Module
from repro.ir.values import Function


class NodeKind(enum.Enum):
    STMT = "stmt"
    CALL = "call"
    RETSITE = "retsite"
    ENTRY = "entry"      # function entry
    EXIT = "exit"        # function exit


class EdgeKind(enum.Enum):
    INTRA = "intra"
    CALL = "call"
    RET = "ret"


@dataclass(frozen=True)
class ICFGNode:
    """One ICFG node. ``instr`` is None for ENTRY/EXIT nodes; the
    RETSITE node shares the Call instruction of its CALL node."""

    kind: NodeKind
    function: Function
    instr: Optional[Instruction] = None
    uid: int = field(default_factory=itertools.count().__next__, compare=False)

    def __repr__(self) -> str:
        if self.kind is NodeKind.ENTRY:
            return f"<entry {self.function.name}>"
        if self.kind is NodeKind.EXIT:
            return f"<exit {self.function.name}>"
        tag = "ret-of " if self.kind is NodeKind.RETSITE else ""
        return f"<{tag}{self.instr!r}>"

    def __hash__(self) -> int:
        return hash((self.kind, id(self.instr), self.function.name))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ICFGNode) and self.kind is other.kind
                and self.instr is other.instr and self.function is other.function)


class ICFG:
    """The whole-program ICFG.

    Construction requires a (possibly still-growing) call graph; call
    ``add_call_edges`` again after the pre-analysis resolves more
    indirect callees — edges accumulate monotonically.
    """

    def __init__(self, module: Module, callgraph: CallGraph) -> None:
        self.module = module
        self.callgraph = callgraph
        self.graph = DiGraph()
        self.entries: Dict[Function, ICFGNode] = {}
        self.exits: Dict[Function, ICFGNode] = {}
        self._stmt_nodes: Dict[int, ICFGNode] = {}     # instr id -> node
        self._retsite_nodes: Dict[int, ICFGNode] = {}  # call instr id -> retsite
        self._edge_kinds: Dict[Tuple[int, int], EdgeKind] = {}
        self._build()

    # -- lookup ---------------------------------------------------------

    def node_of(self, instr: Instruction) -> ICFGNode:
        """The CALL or STMT node for *instr*."""
        return self._stmt_nodes[instr.id]

    def retsite_of(self, call: Call) -> ICFGNode:
        return self._retsite_nodes[call.id]

    def entry_of(self, fn: Function) -> ICFGNode:
        return self.entries[fn]

    def exit_of(self, fn: Function) -> ICFGNode:
        return self.exits[fn]

    def successors(self, node: ICFGNode) -> Set[ICFGNode]:
        return self.graph.successors(node)

    def predecessors(self, node: ICFGNode) -> Set[ICFGNode]:
        return self.graph.predecessors(node)

    def edge_kind(self, src: ICFGNode, dst: ICFGNode) -> EdgeKind:
        return self._edge_kinds.get((src.uid, dst.uid), EdgeKind.INTRA)

    def nodes(self) -> Iterable[ICFGNode]:
        return self.graph.nodes()

    def intra_successors(self, node: ICFGNode) -> List[ICFGNode]:
        """Successors via intra-procedural edges only, plus the
        call->retsite fallthrough is NOT included (callers must choose
        how to treat calls)."""
        return [s for s in self.graph.successors(node)
                if self.edge_kind(node, s) is EdgeKind.INTRA]

    # -- construction ----------------------------------------------------

    def _add_edge(self, src: ICFGNode, dst: ICFGNode, kind: EdgeKind = EdgeKind.INTRA) -> None:
        self.graph.add_edge(src, dst)
        self._edge_kinds[(src.uid, dst.uid)] = kind

    def _build(self) -> None:
        for fn in self.module.functions.values():
            if fn.is_declaration or not fn.blocks:
                continue
            self._build_function(fn)
        self.add_call_edges()

    def _build_function(self, fn: Function) -> None:
        entry = ICFGNode(NodeKind.ENTRY, fn)
        exit_node = ICFGNode(NodeKind.EXIT, fn)
        self.entries[fn] = entry
        self.exits[fn] = exit_node
        self.graph.add_node(entry)
        self.graph.add_node(exit_node)

        first_of: Dict[BasicBlock, ICFGNode] = {}
        last_of: Dict[BasicBlock, ICFGNode] = {}
        for block in fn.blocks:
            prev: Optional[ICFGNode] = None
            for instr in block.instructions:
                if isinstance(instr, Call):
                    node = ICFGNode(NodeKind.CALL, fn, instr)
                    retsite = ICFGNode(NodeKind.RETSITE, fn, instr)
                    self._stmt_nodes[instr.id] = node
                    self._retsite_nodes[instr.id] = retsite
                    self.graph.add_node(node)
                    self.graph.add_node(retsite)
                    if prev is not None:
                        self._add_edge(prev, node)
                    else:
                        first_of[block] = node
                    # Fallthrough for calls with no (known) callee body;
                    # when callees resolve, the call edge is added too —
                    # the call->retsite edge stays as an intra edge so
                    # external calls do not sever the CFG.
                    self._add_edge(node, retsite)
                    prev = retsite
                    continue
                node = ICFGNode(NodeKind.STMT, fn, instr)
                self._stmt_nodes[instr.id] = node
                self.graph.add_node(node)
                if prev is not None:
                    self._add_edge(prev, node)
                else:
                    first_of[block] = node
                prev = node
            if prev is None:
                # Empty block cannot happen (verifier requires terminator).
                raise AssertionError(f"empty block {block.label}")
            last_of[block] = prev

        self._add_edge(entry, first_of[fn.entry])
        for block in fn.blocks:
            term = block.terminator
            last = last_of[block]
            if isinstance(term, Branch):
                self._add_edge(last, first_of[term.then_block])
                self._add_edge(last, first_of[term.else_block])
            elif isinstance(term, Jump):
                self._add_edge(last, first_of[term.target])
            elif isinstance(term, Ret):
                self._add_edge(last, exit_node)

    def add_call_edges(self) -> int:
        """(Re-)add call/ret edges from the current call graph; returns
        the number of new interprocedural edge pairs."""
        added = 0
        for site in list(self.callgraph.call_sites()):
            if not isinstance(site, Call):
                continue  # fork sites get no interprocedural edges
            if site.id not in self._stmt_nodes:
                continue
            call_node = self._stmt_nodes[site.id]
            retsite = self._retsite_nodes[site.id]
            for callee in self.callgraph.callees(site):
                if callee not in self.entries:
                    continue  # declaration-only callee
                if not self.graph.has_edge(call_node, self.entries[callee]):
                    self._add_edge(call_node, self.entries[callee], EdgeKind.CALL)
                    self._add_edge(self.exits[callee], retsite, EdgeKind.RET)
                    added += 1
        return added
