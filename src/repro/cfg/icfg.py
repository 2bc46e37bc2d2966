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

Nodes are dense ints, numbered at construction: functions in module
order, and within a function its entry, its exit, then each block's
instructions in order, a call's return site right after its call
node. A node's kind, instruction and function live in per-node
tables (``kind``, ``instr``, ``function``); a return-site node shares
its call's instruction. The edges are a
:class:`~repro.graphs.dense.DenseGraph`, each edge's kind beside it,
so nothing on this path hashes a node object.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Set, Tuple

from repro.cfg.callgraph import CallGraph
from repro.graphs.dense import DenseGraph
from repro.ir.instructions import Branch, Call, Instruction, Jump, Ret
from repro.ir.module import Module
from repro.ir.values import Function


class NodeKind:
    """The kind of an ICFG node, as stored in ``ICFG.kind``."""

    STMT, CALL, RETSITE, ENTRY, EXIT = range(5)
    NAMES = ("stmt", "call", "retsite", "entry", "exit")


class EdgeKind:
    """The kind of an ICFG edge, as stored beside it."""

    INTRA, CALL, RET = range(3)
    NAMES = ("intra", "call", "ret")


class ICFG:
    """The whole-program ICFG.

    Construction requires a (possibly still-growing) call graph; call
    ``add_call_edges`` again after the pre-analysis resolves more
    indirect callees — edges accumulate monotonically.
    """

    def __init__(self, module: Module, callgraph: CallGraph) -> None:
        self.module = module
        self.callgraph = callgraph
        self.kind = bytearray()
        self.instr: List[Optional[Instruction]] = []
        self.function: List[Function] = []
        self._node_of: Dict[int, int] = {}   # instr id -> CALL/STMT node
        self._entry: Dict[str, int] = {}     # function name -> ENTRY node
        # Every edge, in insertion order, and the CALL edges by
        # (call node, entry node) so none is added twice.
        self._src = array("i")
        self._dst = array("i")
        self._edge_kind = array("b")
        self._call_edges: Set[Tuple[int, int]] = set()
        self._build()

    # -- lookup ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kind)

    def nodes(self) -> range:
        return range(len(self.kind))

    def node_of(self, instr: Instruction) -> int:
        """The CALL or STMT node for *instr*."""
        return self._node_of[instr.id]

    def retsite_of(self, call: Call) -> int:
        return self._node_of[call.id] + 1

    def entry_of(self, fn: Function) -> int:
        return self._entry[fn.name]

    def exit_of(self, fn: Function) -> int:
        return self._entry[fn.name] + 1

    def has_body(self, fn: Function) -> bool:
        """Whether *fn* has nodes here (declarations have none)."""
        return fn.name in self._entry

    def successors(self, node: int) -> array:
        return self.graph.successors(node)

    def predecessors(self, node: int) -> array:
        return self.graph.predecessors(node)

    def edge_kind(self, src: int, dst: int) -> int:
        graph = self.graph
        for index in range(graph.succ_off[src], graph.succ_off[src + 1]):
            if graph.succ[index] == dst:
                return graph.succ_kind[index]
        raise KeyError((src, dst))

    def call_targets(self, node: int) -> List[int]:
        """The callee ENTRY nodes a CALL node's call edges reach, in
        node order."""
        graph = self.graph
        succ, kinds = graph.succ, graph.succ_kind
        return [succ[index]
                for index in range(graph.succ_off[node], graph.succ_off[node + 1])
                if kinds[index] == EdgeKind.CALL]

    def describe(self, node: int) -> str:
        kind = self.kind[node]
        if kind == NodeKind.ENTRY:
            return f"<entry {self.function[node].name}>"
        if kind == NodeKind.EXIT:
            return f"<exit {self.function[node].name}>"
        tag = "ret-of " if kind == NodeKind.RETSITE else ""
        return f"<{tag}{self.instr[node]!r}>"

    # -- construction ----------------------------------------------------

    def _add_edge(self, src: int, dst: int,
                  kind: int = EdgeKind.INTRA) -> None:
        self._src.append(src)
        self._dst.append(dst)
        self._edge_kind.append(kind)

    def _build(self) -> None:
        for fn in self.module.functions.values():
            if fn.is_declaration or not fn.blocks:
                continue
            self._build_function(fn)
        self._add_call_edges()
        self._freeze()

    def _build_function(self, fn: Function) -> None:
        kinds, functions, instrs = self.kind, self.function, self.instr
        entry = len(kinds)
        kinds += bytes((NodeKind.ENTRY, NodeKind.EXIT))
        functions += (fn, fn)
        instrs += (None, None)
        self._entry[fn.name] = entry

        # A block's nodes are consecutive, each with an intra edge to
        # the next; a call's fallthrough to its return site is one of
        # them, so external calls do not sever the CFG.
        bounds: Dict[str, Tuple[int, int]] = {}
        for block in fn.blocks:
            first = len(kinds)
            for instr in block.instructions:
                self._node_of[instr.id] = len(kinds)
                if isinstance(instr, Call):
                    kinds += bytes((NodeKind.CALL, NodeKind.RETSITE))
                    functions += (fn, fn)
                    instrs += (instr, instr)
                else:
                    kinds.append(NodeKind.STMT)
                    functions.append(fn)
                    instrs.append(instr)
            last = len(kinds) - 1
            if last < first:
                # Empty block cannot happen (verifier requires terminator).
                raise AssertionError(f"empty block {block.label}")
            bounds[block.label] = (first, last)
            self._src.extend(range(first, last))
            self._dst.extend(range(first + 1, last + 1))
            self._edge_kind.extend(bytes(last - first))

        self._add_edge(entry, bounds[fn.entry.label][0])
        for block in fn.blocks:
            term = block.terminator
            last = bounds[block.label][1]
            if isinstance(term, Branch):
                self._add_edge(last, bounds[term.then_block.label][0])
                if term.else_block is not term.then_block:
                    self._add_edge(last, bounds[term.else_block.label][0])
            elif isinstance(term, Jump):
                self._add_edge(last, bounds[term.target.label][0])
            elif isinstance(term, Ret):
                self._add_edge(last, entry + 1)

    def _add_call_edges(self) -> int:
        added = 0
        sites = []
        for site in self.callgraph.call_sites():
            # Fork sites get no interprocedural edges.
            if isinstance(site, Call) and site.id in self._node_of:
                sites.append((self._node_of[site.id], site))
        for call_node, site in sorted(sites, key=lambda pair: pair[0]):
            entries = sorted(self._entry[callee.name]
                             for callee in self.callgraph.callees(site)
                             if callee.name in self._entry)
            for entry in entries:
                if (call_node, entry) in self._call_edges:
                    continue
                self._call_edges.add((call_node, entry))
                self._add_edge(call_node, entry, EdgeKind.CALL)
                self._add_edge(entry + 1, call_node + 1, EdgeKind.RET)
                added += 1
        return added

    def _freeze(self) -> None:
        self.graph = DenseGraph(len(self.kind), self._src, self._dst,
                                self._edge_kind)

    def add_call_edges(self) -> int:
        """(Re-)add call/ret edges from the current call graph; returns
        the number of new interprocedural edge pairs."""
        added = self._add_call_edges()
        if added:
            self._freeze()
        return added
