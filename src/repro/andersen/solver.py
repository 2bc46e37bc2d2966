"""The Andersen constraint solver.

Constraint forms over the node universe (temps + object content nodes):

==========  =====================  ==========================
statement   constraint             handled as
==========  =====================  ==========================
p = &o      {o} <= pts(p)          initial points-to
p = q       pts(q) <= pts(p)       copy edge
p = phi(..) per-incoming copy      copy edges
p = *q      pts(o) <= pts(p),      complex (load) on q
            for o in pts(q)
*p = q      pts(q) <= pts(o),      complex (store) on p
            for o in pts(p)
p = gep q f {o.f | o in pts(q)}    complex (field) on q
call/fork   param/ret copies       on-the-fly call graph
==========  =====================  ==========================

Solved by wave propagation (Pereira & Berlin, the paper's [23]):
repeatedly (1) collapse SCCs of the copy graph into representative
nodes, (2) propagate points-to sets in topological order in one wave,
(3) evaluate complex constraints, which may add new copy edges and
points-to facts; stop when nothing changes.

Points-to sets hold :class:`MemObject` identities (not node indices),
so collapsing a cycle that runs through an object's *content node*
never destroys the object's identity as a points-to target. They are
interned bitmask :class:`~repro.pts.PTSet`s over a per-run
:class:`~repro.pts.PTUniverse`, which the whole downstream pipeline
(memory SSA, FSAM, clients) shares via :attr:`AndersenResult.universe`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cfg.callgraph import CallGraph
from repro.graphs.digraph import DiGraph
from repro.graphs.scc import tarjan_scc
from repro.ir.instructions import (
    AddrOf, Call, Copy, Fork, Gep, Instruction, Load, Phi, Ret, Store,
)
from repro.ir.module import Module
from repro.ir.types import ArrayType, StructType, ThreadType
from repro.ir.values import Constant, Function, MemObject, ObjectKind, Temp, Value
from repro.obs import NULL_OBS, Observer
from repro.pts import PTSet, PTUniverse

# Field chains longer than this collapse onto the base object: the
# positive-weight-cycle defence (a gep feeding itself would otherwise
# derive o.f, o.f.f, ... forever). Mirrors the PWC collapsing of
# Pearce et al. cited in the paper's Section 4.2.
MAX_FIELD_DEPTH = 8


class AndersenResult:
    """Read-only view of the solved constraint system."""

    def __init__(self, solver: "AndersenSolver") -> None:
        self._solver = solver
        self.callgraph = solver.callgraph
        self.module = solver.module
        self.universe = solver.universe
        self.thread_objects = dict(solver.thread_objects)

    def pts(self, value: Value) -> PTSet:
        """The points-to set of a temp, or the *content* points-to set
        of a memory object."""
        return self._solver.pts_of(value)

    def may_alias(self, p: Value, q: Value) -> bool:
        """Do the dereferences *p and *q possibly touch a common object?"""
        return bool(self.pts(p) & self.pts(q))

    def alias_set(self, p: Value, q: Value) -> PTSet:
        """AS(*p, *q): the common pointed-to objects (paper 3.3.2)."""
        return self.pts(p) & self.pts(q)

class AndersenSolver:
    """Whole-module Andersen analysis with on-the-fly call graph."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.callgraph = CallGraph(module)
        self.universe = PTUniverse()
        # Keyed by the Value itself (identity hash). Keying by id()
        # would let synthetic temps (e.g. tid.src) be collected and a
        # later value reuse their address, silently merging nodes.
        self._index: Dict[Value, int] = {}
        self._rep: List[int] = []               # union-find parents
        self._pts: List[PTSet] = []
        self._succ: List[Set[int]] = []         # copy edges
        self._loads: List[List[int]] = []       # q -> dst nodes  (p = *q)
        self._stores: List[List[int]] = []      # p -> src nodes  (*p = q)
        self._geps: List[List[Tuple[Optional[int], int]]] = []
        self._call_watch: List[List[Instruction]] = []
        self.objects: List[MemObject] = []
        self._seen_objects: Set[int] = set()
        self.thread_objects: Dict[int, MemObject] = {}  # fork.id -> tid object
        self._linked_calls: Set[Tuple[int, int]] = set()
        self._ret_values: Dict[Function, List[Value]] = {}
        self._changed = True
        # Observability tallies, flushed into an Observer by
        # flush_obs(); plain ints to keep the solving loops cheap.
        self.waves = 0
        self.constraint_evals = 0
        self.pts_insertions = 0
        self.copy_edges_added = 0
        self.scc_collapsed_nodes = 0
        self.field_collapses = 0

    # -- node management --------------------------------------------------

    def _node(self, value: Value) -> int:
        node = self._index.get(value)
        if node is None:
            node = len(self._rep)
            self._index[value] = node
            self._rep.append(node)
            self._pts.append(self.universe.empty)
            self._succ.append(set())
            self._loads.append([])
            self._stores.append([])
            self._geps.append([])
            self._call_watch.append([])
            if isinstance(value, MemObject):
                self._register_object(value)
        return self._find(node)

    def _register_object(self, obj: MemObject) -> None:
        if id(obj) not in self._seen_objects:
            self._seen_objects.add(id(obj))
            self.objects.append(obj)
            self.universe.index(obj)

    def _find(self, node: int) -> int:
        root = node
        while self._rep[root] != root:
            root = self._rep[root]
        while self._rep[node] != root:
            self._rep[node], node = root, self._rep[node]
        return root

    def _union(self, a: int, b: int) -> int:
        if a == b:
            return a
        self._rep[b] = a
        self._pts[a] = self._pts[a] | self._pts[b]
        self._succ[a] |= self._succ[b]
        self._loads[a].extend(self._loads[b])
        self._stores[a].extend(self._stores[b])
        self._geps[a].extend(self._geps[b])
        self._call_watch[a].extend(self._call_watch[b])
        self._pts[b] = self.universe.empty
        self._succ[b] = set()
        self._loads[b] = []
        self._stores[b] = []
        self._geps[b] = []
        self._call_watch[b] = []
        return a

    def _add_pts(self, node: int, obj: MemObject) -> bool:
        node = self._find(node)
        self._register_object(obj)
        merged = self._pts[node] | self.universe.singleton(obj)
        if merged is not self._pts[node]:
            self._pts[node] = merged
            self._changed = True
            self.pts_insertions += 1
            return True
        return False

    def _add_copy(self, src: int, dst: int) -> bool:
        src, dst = self._find(src), self._find(dst)
        if src == dst or dst in self._succ[src]:
            return False
        self._succ[src].add(dst)
        self._changed = True
        self.copy_edges_added += 1
        return True

    # -- constraint generation --------------------------------------------

    def generate(self) -> None:
        """Collect constraints from every instruction in the module."""
        for obj in self.module.objects:
            self._register_object(obj)
        for fn in self.module.functions.values():
            self._ret_values[fn] = []
            for instr in fn.instructions():
                if isinstance(instr, Ret) and instr.value is not None:
                    self._ret_values[fn].append(instr.value)
        for fn in self.module.functions.values():
            for instr in fn.instructions():
                self._gen_instr(instr)

    def _value_node(self, value: Value) -> Optional[int]:
        """Node for a used value; None for constants (null points at
        nothing)."""
        if isinstance(value, Constant) or value is None:
            return None
        if isinstance(value, Function):
            # A function used as a value: a pseudo-node whose points-to
            # set is the function object (enables function pointers).
            node = self._node(value)
            self._add_pts(node, value.mem_object)
            return node
        return self._node(value)

    def _gen_instr(self, instr: Instruction) -> None:
        if isinstance(instr, AddrOf):
            self._add_pts(self._node(instr.dst), instr.obj)
        elif isinstance(instr, Copy):
            src = self._value_node(instr.src)
            if src is not None:
                self._add_copy(src, self._node(instr.dst))
        elif isinstance(instr, Phi):
            dst = self._node(instr.dst)
            for value, _ in instr.incomings:
                src = self._value_node(value)
                if src is not None:
                    self._add_copy(src, dst)
        elif isinstance(instr, Load):
            ptr = self._value_node(instr.ptr)
            if ptr is not None:
                self._loads[ptr].append(self._node(instr.dst))
                self._changed = True
        elif isinstance(instr, Store):
            ptr = self._value_node(instr.ptr)
            val = self._value_node(instr.value)
            if ptr is not None and val is not None:
                self._stores[ptr].append(val)
                self._changed = True
        elif isinstance(instr, Gep):
            base = self._value_node(instr.base)
            if base is not None:
                self._geps[base].append((instr.field_index, self._node(instr.dst)))
                self._changed = True
        elif isinstance(instr, Call):
            self._gen_call(instr)
        elif isinstance(instr, Fork):
            self._gen_fork(instr)
        # Join / Lock / Unlock / Branch / Jump / BinOp / Ret add no
        # points-to constraints (Ret values are linked per callsite).

    def _gen_call(self, call: Call) -> None:
        if isinstance(call.callee, Function):
            self._link_call(call, call.callee)
        else:
            node = self._value_node(call.callee)
            if node is not None:
                self._call_watch[node].append(call)
                self._changed = True

    def _gen_fork(self, fork: Fork) -> None:
        # The fork writes an abstract thread-id object into *handle_ptr,
        # which is what lets pthread_join correlate with its create
        # (the paper uses SCEV for loop symmetry; id flow is via memory).
        # Named by source line, not fork.id: instruction ids come from
        # a process-global counter, and the artifact cache serializes
        # object names, which must be identical across processes.
        tid = MemObject(f"tid.fork.l{fork.line}", ThreadType(),
                        ObjectKind.DUMMY)
        tid.fork_site = fork  # type: ignore[attr-defined]
        self.module.register_object(tid)
        self._register_object(tid)
        self.thread_objects[fork.id] = tid
        if fork.handle_ptr is not None:
            ptr = self._value_node(fork.handle_ptr)
            if ptr is not None:
                tid_src = Temp(f"tid.src{fork.id}", ThreadType())
                src_node = self._node(tid_src)
                self._add_pts(src_node, tid)
                self._stores[ptr].append(src_node)
                self._changed = True
        if isinstance(fork.routine, Function):
            self._link_call(fork, fork.routine)
        else:
            node = self._value_node(fork.routine)
            if node is not None:
                self._call_watch[node].append(fork)
                self._changed = True

    def _link_call(self, site, callee: Function) -> bool:
        """Wire parameter/return copies for one (site, callee) pair."""
        key = (site.id, id(callee))
        if key in self._linked_calls:
            return False
        self._linked_calls.add(key)
        self.callgraph.add_edge(site, callee)
        if callee.is_declaration or not callee.blocks:
            return True
        if isinstance(site, Fork):
            args: List[Value] = [site.arg] if site.arg is not None else []
        else:
            args = list(site.args)
        for param, arg in zip(callee.params, args):
            arg_node = self._value_node(arg)
            if arg_node is not None:
                self._add_copy(arg_node, self._node(param))
        if isinstance(site, Call) and site.dst is not None:
            dst = self._node(site.dst)
            for rv in self._ret_values.get(callee, []):
                rv_node = self._value_node(rv)
                if rv_node is not None:
                    self._add_copy(rv_node, dst)
        return True

    # -- solving ------------------------------------------------------------

    def solve(self) -> None:
        """Run wave propagation to a fixpoint."""
        while self._changed:
            self._changed = False
            self.waves += 1
            self._collapse_cycles()
            self._propagate_wave()
            self._evaluate_complex()

    def _live_nodes(self) -> List[int]:
        return [n for n in range(len(self._rep)) if self._rep[n] == n]

    def _collapse_cycles(self) -> None:
        graph = DiGraph()
        for node in self._live_nodes():
            graph.add_node(node)
            for succ in self._succ[node]:
                target = self._find(succ)
                if target != node:
                    graph.add_edge(node, target)
        for scc in tarjan_scc(graph):
            if len(scc) > 1:
                self.scc_collapsed_nodes += len(scc) - 1
                root = self._find(scc[0])
                for other in scc[1:]:
                    root = self._union(root, self._find(other))

    def _propagate_wave(self) -> None:
        graph = DiGraph()
        for node in self._live_nodes():
            graph.add_node(node)
            for succ in self._succ[node]:
                target = self._find(succ)
                if target != node:
                    graph.add_edge(node, target)
        # Tarjan emits SCCs in reverse topological order; after cycle
        # collapse each SCC is a singleton, so reversing yields a
        # sources-first order for one complete propagation wave.
        order = [scc[0] for scc in tarjan_scc(graph)]
        order.reverse()
        for node in order:
            pts = self._pts[node]
            if not pts:
                continue
            for succ in graph.successors(node):
                succ = self._find(succ)
                if succ == node:
                    continue
                merged = self._pts[succ] | pts
                if merged is not self._pts[succ]:
                    self._pts[succ] = merged
                    self._changed = True

    def _evaluate_complex(self) -> None:
        # PTSets are immutable, so iterating one while _add_pts rebinds
        # self._pts entries is safe without snapshotting.
        evals = 0
        for node in self._live_nodes():
            pts = self._pts[node]
            if not pts:
                continue
            evals += (len(self._loads[node]) + len(self._stores[node])
                      + len(self._geps[node]) + len(self._call_watch[node]))
            for dst in self._loads[node]:
                for obj in pts:
                    self._add_copy(self._node(obj), dst)
            for src in self._stores[node]:
                for obj in pts:
                    self._add_copy(src, self._node(obj))
            for field_index, dst in self._geps[node]:
                for obj in pts:
                    derived = self._derive_field(obj, field_index)
                    if derived is not None:
                        self._add_pts(dst, derived)
            for site in self._call_watch[node]:
                for obj in pts:
                    if obj.kind is ObjectKind.FUNCTION and obj.function is not None:
                        if self._link_call(site, obj.function):
                            self._changed = True
        self.constraint_evals += evals

    def _derive_field(self, obj: MemObject, field_index: Optional[int]) -> Optional[MemObject]:
        """The object denoted by ``gep obj, field_index``."""
        from repro.andersen.fields import derive_field
        field_obj = derive_field(obj, field_index)
        if field_obj is obj and field_index is not None:
            # Collapsed derivation: monolithic array, ill-typed gep, or
            # the MAX_FIELD_DEPTH positive-weight-cycle defence.
            self.field_collapses += 1
        self._register_object(field_obj)
        return field_obj

    # -- observability -------------------------------------------------------

    def flush_obs(self, obs: Observer) -> None:
        """Flush the solving tallies into *obs* (``andersen.*``)."""
        obs.count("andersen.waves", self.waves)
        obs.count("andersen.constraint_evals", self.constraint_evals)
        obs.count("andersen.pts_insertions", self.pts_insertions)
        obs.count("andersen.copy_edges_added", self.copy_edges_added)
        obs.count("andersen.scc_collapsed_nodes", self.scc_collapsed_nodes)
        obs.count("andersen.pwc_field_collapses", self.field_collapses)
        obs.gauge("andersen.nodes", len(self._rep))
        obs.gauge("andersen.objects", len(self.objects))

    # -- results ------------------------------------------------------------

    def pts_of(self, value: Value) -> PTSet:
        node = self._index.get(value)
        if node is None:
            return self.universe.empty
        return self._pts[self._find(node)]


def run_andersen(module: Module, obs: Observer = NULL_OBS) -> AndersenResult:
    """Run the pre-analysis over *module*; solving statistics land in
    *obs* under ``andersen.*``."""
    solver = AndersenSolver(module)
    solver.generate()
    solver.solve()
    solver.flush_obs(obs)
    return AndersenResult(solver)
