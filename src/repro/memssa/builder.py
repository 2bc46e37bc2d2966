"""Memory-SSA construction of the sparse def-use graph.

Follows the paper's Figure 4 pipeline: (a) annotate loads/stores/
callsites with mu/chi from pre-analysis points-to sets, (b) put each
address-taken object in SSA form per function (memory phis at
iterated dominance frontiers, renaming along the dominator tree),
(c) emit labelled def-use edges, (d) link callsites to callee
formal-in/formal-out nodes interprocedurally.

The graph is sparse in two ways. A callsite's mu is not a node: it
would only copy the def reaching the call, so that def links straight
to each callee's formal-in. And a function has a formal-out only for
the objects in its MOD set, the only ones a call or join chi reads.

Thread-oblivious def-use chains (Section 3.2) fall out of three
choices: forks are treated as callsites of their start routines
(Step 1) whose chi functions are weak, so value flows can bypass the
routine (Step 2); and join sites carry chi functions fed by the
joined routines' formal-outs (Step 3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.andersen import AndersenResult
from repro.cfg.cfg import CFG
from repro.graphs.dominance import iterated_dominance_frontier
from repro.ir.instructions import (
    AddrOf, Call, Copy, Fork, Gep, Join, Load, Phi, Ret, Store,
)
from repro.ir.module import BasicBlock, Module
from repro.ir.values import Constant, Function, MemObject, Temp, Value
from repro.memssa.dug import (
    DUG, CallChiNode, DUGNode, FormalInNode, FormalOutNode, MemPhiNode,
    StmtNode,
)
from repro.memssa.modref import ModRefAnalysis
from repro.obs import NULL_OBS, Observer
from repro.pts import PTSet


def pointer_carrying_objects(module: Module, andersen: AndersenResult) -> Set[MemObject]:
    """Objects whose contents may hold pointers (non-empty content
    points-to set under the pre-analysis). Only these need memory
    SSA: loads from the rest can never yield points-to facts."""
    relevant: Set[MemObject] = set()
    for obj in module.objects:
        if andersen.pts(obj):
            relevant.add(obj)
        for field_obj in obj.fields().values():
            if andersen.pts(field_obj):
                relevant.add(field_obj)
    return relevant


class MemorySSABuilder:
    """Builds the DUG for a module."""

    def __init__(self, module: Module, andersen: AndersenResult,
                 relevant: Optional[Set[MemObject]] = None) -> None:
        self.module = module
        self.andersen = andersen
        self.universe = andersen.universe
        self.relevant = relevant if relevant is not None else pointer_carrying_objects(module, andersen)
        self._relevant_pts: PTSet = self.universe.make(self.relevant)
        self.modref = ModRefAnalysis(module, andersen, relevant=self.relevant)
        self.dug = DUG()
        self.formal_in: Dict[Tuple[str, int], FormalInNode] = {}
        self.formal_out: Dict[Tuple[str, int], FormalOutNode] = {}
        self.site_chis: Dict[Tuple[int, int], CallChiNode] = {}
        # Per-instruction mu/chi sets (exposed for tests/debugging);
        # interned PTSets, so identical annotations share one instance.
        self.mus: Dict[int, PTSet] = {}
        self.chis: Dict[int, PTSet] = {}
        # The def of obj reaching each call/fork/join site, recorded
        # during renaming for its mu and chi objects: feeds callee
        # formal-ins, weak-chi fallbacks and fork bypass edges.
        self.site_old_def: Dict[Tuple[int, int], DUGNode] = {}
        # Site-level fork/join correlation for bypass-region limits;
        # the thread model reuses it (see ThreadModel).
        from repro.mt.symmetry import find_symmetric_pairs
        self.symmetric_pairs = find_symmetric_pairs(module, andersen)
        # Observability tallies (flushed into an Observer by build()).
        self.functions_renamed = 0
        self.memphi_nodes = 0
        self.bypass_edges = 0

    # -- entry point --------------------------------------------------------

    def build(self, obs: Observer = NULL_OBS) -> DUG:
        for fn in self.module.functions.values():
            if fn.is_declaration or not fn.blocks:
                continue
            self._build_function(fn)
        self._link_interprocedural()
        self._add_fork_bypass_edges()
        self._link_top_level()
        self.flush_obs(obs)
        return self.dug

    def flush_obs(self, obs: Observer) -> None:
        """Flush construction tallies into *obs* (``memssa.*``)."""
        obs.count("memssa.mu_annotations",
                  sum(len(s) for s in self.mus.values()))
        obs.count("memssa.chi_annotations",
                  sum(len(s) for s in self.chis.values()))
        obs.count("memssa.memphi_nodes", self.memphi_nodes)
        obs.count("memssa.functions_renamed", self.functions_renamed)
        obs.count("memssa.fork_bypass_edges", self.bypass_edges)
        obs.gauge("memssa.dug_nodes", len(self.dug.nodes))
        obs.gauge("memssa.dug_mem_edges", self.dug.num_mem_edges())
        obs.gauge("memssa.relevant_objects", len(self.relevant))

    # -- per-function memory SSA ---------------------------------------------

    def _annotate(self, fn: Function) -> None:
        """Compute mu/chi sets for every instruction of *fn*."""
        for instr in fn.instructions():
            if isinstance(instr, Load):
                self.mus[instr.id] = self._pts(instr.ptr) & self._relevant_pts
            elif isinstance(instr, Store):
                self.chis[instr.id] = self._pts(instr.ptr) & self._relevant_pts
            elif isinstance(instr, (Call, Fork)):
                self.mus[instr.id] = self.modref.callsite_ref(instr)
                chi = self.modref.callsite_mod(instr)
                if isinstance(instr, Fork) and instr.handle_ptr is not None:
                    # The fork writes the abstract thread id into the
                    # handle slot.
                    chi = chi | (self._pts(instr.handle_ptr) & self._relevant_pts)
                self.chis[instr.id] = chi
            elif isinstance(instr, Join):
                self.chis[instr.id] = self.modref.callsite_mod(instr)

    def _pts(self, value: Value) -> PTSet:
        if value is None or isinstance(value, Constant):
            return self.universe.empty
        return self.andersen.pts(value)

    def _build_function(self, fn: Function) -> None:
        self._annotate(fn)
        cfg = CFG(fn)
        mod = self.modref.mod.get(fn, set())
        ref = self.modref.ref.get(fn, set())
        # Objects whose chi functions appear locally (joins/forks can
        # define objects beyond MOD(fn)'s store-derived part — they are
        # included in MOD by modref, but the handle-slot chi at forks
        # may not be; collect from annotations to be safe).
        local_defs: Dict[MemObject, Set[BasicBlock]] = {}
        tracked: Set[MemObject] = set(mod) | set(ref)
        for block in fn.blocks:
            for instr in block.instructions:
                for obj in self.chis.get(instr.id, ()):
                    tracked.add(obj)
                    local_defs.setdefault(obj, set()).add(block)
                for obj in self.mus.get(instr.id, ()):
                    tracked.add(obj)
        if not tracked:
            self._create_stmt_nodes(fn)
            return

        # Formal-in/out nodes. ``tracked`` is a set of MemObjects
        # (address-hashed), so iterate it in id order: ids are
        # allocated in deterministic creation order, which keeps DUG
        # node numbering identical across runs and processes. Only
        # MOD objects get a formal-out: callers and joins read no
        # other.
        ordered = sorted(tracked, key=lambda o: o.id)
        for obj in ordered:
            node = FormalInNode(fn, obj)
            self.formal_in[(fn.name, obj.id)] = node
            self.dug.add_node(node)
        for obj in ordered:
            if obj not in mod:
                continue
            node = FormalOutNode(fn, obj)
            self.formal_out[(fn.name, obj.id)] = node
            self.dug.add_node(node)

        # Memory phis at iterated dominance frontiers. The IDF comes
        # back as a set of (address-hashed) blocks — order it by block
        # id for the same cross-process determinism as above.
        memphis: Dict[BasicBlock, List[MemPhiNode]] = {}
        for obj, blocks in local_defs.items():
            for block in sorted(
                    iterated_dominance_frontier(cfg.frontiers, blocks),
                    key=lambda b: b.id):
                phi = MemPhiNode(block, obj)
                self.dug.add_node(phi)
                memphis.setdefault(block, []).append(phi)
                self.memphi_nodes += 1

        self._create_stmt_nodes(fn)
        self._rename(fn, cfg, tracked, memphis)
        self.functions_renamed += 1

    def _create_stmt_nodes(self, fn: Function) -> None:
        for instr in fn.instructions():
            if isinstance(instr, (AddrOf, Copy, Phi, Load, Store, Gep, Call, Fork, Join)):
                self.dug.add_node(StmtNode(instr))

    def _rename(self, fn: Function, cfg: CFG, tracked: Set[MemObject],
                memphis: Dict[BasicBlock, List[MemPhiNode]]) -> None:
        stacks: Dict[int, List[DUGNode]] = {}
        for obj in tracked:
            stacks[obj.id] = [self.formal_in[(fn.name, obj.id)]]

        def current(obj: MemObject) -> DUGNode:
            return stacks[obj.id][-1]

        def process(block: BasicBlock) -> List[int]:
            pushed: List[int] = []
            for phi in memphis.get(block, ()):
                stacks[phi.obj.id].append(phi)
                pushed.append(phi.obj.id)
            for instr in block.instructions:
                if isinstance(instr, Load):
                    node = self.dug.stmt_node(instr)
                    for obj in self.mus.get(instr.id, ()):
                        self.dug.add_mem_edge(current(obj), obj, node)
                elif isinstance(instr, Store):
                    node = self.dug.stmt_node(instr)
                    for obj in self.chis.get(instr.id, ()):
                        self.dug.add_mem_edge(current(obj), obj, node)
                        stacks[obj.id].append(node)
                        pushed.append(obj.id)
                elif isinstance(instr, (Call, Fork, Join)):
                    for obj in self.mus.get(instr.id, ()):
                        self.site_old_def[(instr.id, obj.id)] = current(obj)
                    fork_slots: Set[MemObject] = set()
                    if isinstance(instr, Fork) and instr.handle_ptr is not None:
                        fork_slots = self._pts(instr.handle_ptr)
                    for obj in self.chis.get(instr.id, ()):
                        chi = CallChiNode(instr, obj)
                        self.dug.add_node(chi)
                        self.site_chis[(instr.id, obj.id)] = chi
                        self.site_old_def[(instr.id, obj.id)] = current(obj)
                        # Call and fork chis take the callee's exit
                        # state only: the pre-call state flows through
                        # the callee's formal-in/out chain, so a strong
                        # update inside the callee correctly kills it
                        # (paper Figure 1(c)). The old state flows in
                        # directly (weak) only where the callee chain
                        # cannot carry it: join chis (the spawner's own
                        # in-flight defs survive the join) and fork
                        # thread-handle slots (one array cell among
                        # many is written).
                        if isinstance(instr, Join) or obj in fork_slots:
                            self.dug.add_mem_edge(current(obj), obj, chi)
                        if obj in fork_slots and isinstance(instr.handle_ptr, Temp):
                            # The chi's thread-id write is guarded by
                            # pt(handle_ptr) at solve time: register it
                            # as a top-level user so the solver revisits
                            # it when the handle pointer gains targets
                            # (the statement node itself is a no-op).
                            self.dug.add_top_user(instr.handle_ptr, chi)
                        stacks[obj.id].append(chi)
                        pushed.append(obj.id)
                elif isinstance(instr, Ret):
                    for obj in tracked:
                        out = self.formal_out.get((fn.name, obj.id))
                        if out is not None:
                            self.dug.add_mem_edge(current(obj), obj, out)
            for succ in cfg.successors(block):
                for phi in memphis.get(succ, ()):
                    self.dug.add_mem_edge(current(phi.obj), phi.obj, phi)
            return pushed

        # Iterative dominator-tree preorder walk with scoped stacks.
        work: List[Tuple[BasicBlock, Optional[List[int]], int]] = [(cfg.entry, None, 0)]
        while work:
            block, pushed, child_idx = work.pop()
            if pushed is None:
                pushed = process(block)
            children = cfg.domtree.children(block)
            if child_idx < len(children):
                work.append((block, pushed, child_idx + 1))
                work.append((children[child_idx], None, 0))
            else:
                for obj_id in reversed(pushed):
                    stacks[obj_id].pop()

    # -- interprocedural linking ----------------------------------------------

    def _link_interprocedural(self) -> None:
        callgraph = self.andersen.callgraph
        for fn in self.module.functions.values():
            for instr in fn.instructions():
                if isinstance(instr, (Call, Fork)):
                    callees = [c for c in callgraph.callees(instr)
                               if not c.is_declaration and c.blocks]
                    for callee in callees:
                        callee_mod = self.modref.mod.get(callee, set())
                        for obj in self.mus.get(instr.id, ()):
                            old = self.site_old_def.get((instr.id, obj.id))
                            fin = self._callee_formal_in(callee, obj)
                            if old is not None and fin is not None:
                                self.dug.add_mem_edge(old, obj, fin)
                        for obj in callee_mod:
                            fout = self.formal_out.get((callee.name, obj.id))
                            chi = self.site_chis.get((instr.id, obj.id))
                            if fout is not None and chi is not None:
                                self.dug.add_mem_edge(fout, obj, chi)
                    # A chi object not covered by *every* callee's MOD
                    # cannot rely on the callee chain to carry the old
                    # state: give it the weak in-edge directly.
                    for obj in self.chis.get(instr.id, ()):
                        covered = callees and all(
                            obj in self.modref.mod.get(c, set()) for c in callees)
                        if not covered:
                            chi = self.site_chis.get((instr.id, obj.id))
                            old = self.site_old_def.get((instr.id, obj.id))
                            if chi is not None and old is not None:
                                self.dug.add_mem_edge(old, obj, chi)
                elif isinstance(instr, Join):
                    # Join-related def-use (Step 3): the joined
                    # routine's exit state becomes visible here.
                    for routine in self.modref.joined_routines.get(instr.id, ()):
                        for obj in self.modref.mod.get(routine, set()):
                            fout = self.formal_out.get((routine.name, obj.id))
                            chi = self.site_chis.get((instr.id, obj.id))
                            if fout is not None and chi is not None:
                                self.dug.add_mem_edge(fout, obj, chi)

    def _callee_formal_in(self, callee: Function,
                          obj: MemObject) -> Optional[FormalInNode]:
        """The formal-in of *obj* in *callee* that a callsite's def of
        *obj* feeds: only objects in the callee's MOD or REF."""
        if obj in self.modref.mod.get(callee, ()) or \
                obj in self.modref.ref.get(callee, ()):
            return self.formal_in.get((callee.name, obj.id))
        return None

    # -- fork bypass edges (Section 3.2 Step 2) ---------------------------------

    def _add_fork_bypass_edges(self) -> None:
        """The start routine may execute nondeterministically later, so
        any value reaching a fork can also bypass the routine: it flows
        directly to the uses in the spawner's fork-join parallel
        region. Past a join that definitely joins the thread, the
        routine has run, and only the Pseq chain (through the routine,
        with its strong updates) applies — which is what makes
        Figure 1(c)'s pt(c) = {y} possible."""
        from repro.cfg.cfg import CFG as _CFG
        callgraph = self.andersen.callgraph
        for fn in self.module.functions.values():
            if fn.is_declaration or not fn.blocks:
                continue
            forks = [i for i in fn.instructions() if isinstance(i, Fork)]
            if not forks:
                continue
            cfg = _CFG(fn)
            succs = _instruction_successors(fn)
            for fork in forks:
                mod_objs = self.modref.callsite_mod(fork) & \
                    self.chis.get(fork.id, ())
                if not mod_objs:
                    continue
                tid = self.andersen.thread_objects.get(fork.id)
                multi_site = (fork.block in cfg.loop_blocks
                              or callgraph.in_cycle(fn))

                def stops(join: Join) -> bool:
                    if tid is None:
                        return False
                    if (fork.id, join.id) in self.symmetric_pairs:
                        return True
                    return (not multi_site) and \
                        self.andersen.pts(join.handle) == {tid}

                for obj in mod_objs:
                    old = self.site_old_def.get((fork.id, obj.id))
                    if old is None:
                        continue
                    self._deliver_bypass(fn, fork, obj, old, succs, stops)

    def _deliver_bypass(self, fn: Function, fork: Fork, obj: MemObject,
                        old: DUGNode, succs, stops) -> None:
        seen: Set[int] = {fork.id}
        work = list(succs.get(fork.id, ()))
        while work:
            instr = work.pop()
            if instr.id in seen:
                continue
            seen.add(instr.id)
            if isinstance(instr, Join) and stops(instr):
                continue  # the thread has been joined: region ends
            if isinstance(instr, Load) and obj in self.mus.get(instr.id, ()):
                if self.dug.add_mem_edge(old, obj, self.dug.stmt_node(instr)):
                    self.bypass_edges += 1
            elif isinstance(instr, Store) and obj in self.chis.get(instr.id, ()):
                if self.dug.add_mem_edge(old, obj, self.dug.stmt_node(instr)):
                    self.bypass_edges += 1
            elif isinstance(instr, (Call, Fork)):
                for callee in self.andersen.callgraph.callees(instr):
                    fin = self._callee_formal_in(callee, obj)
                    if fin is not None and self.dug.add_mem_edge(old, obj, fin):
                        self.bypass_edges += 1
            elif isinstance(instr, Join):
                chi = self.site_chis.get((instr.id, obj.id))
                if chi is not None and self.dug.add_mem_edge(old, obj, chi):
                    self.bypass_edges += 1
            elif isinstance(instr, Ret):
                out = self.formal_out.get((fn.name, obj.id))
                if out is not None and self.dug.add_mem_edge(old, obj, out):
                    self.bypass_edges += 1
            work.extend(succs.get(instr.id, ()))

    # -- top-level def-use -----------------------------------------------------

    def _link_top_level(self) -> None:
        callgraph = self.andersen.callgraph
        for fn in self.module.functions.values():
            for instr in fn.instructions():
                if self.dug.has_stmt(instr):
                    node = self.dug.stmt_node(instr)
                    for op in instr.operands():
                        if isinstance(op, Temp):
                            self.dug.add_top_user(op, node)
                if isinstance(instr, (Call, Fork)):
                    for callee in callgraph.callees(instr):
                        if callee.is_declaration or not callee.blocks:
                            continue
                        if isinstance(instr, Fork):
                            args: List[Value] = [instr.arg] if instr.arg is not None else []
                        else:
                            args = list(instr.args)
                        for param, arg in zip(callee.params, args):
                            self.dug.add_top_copy(arg, param)
                        if isinstance(instr, Call) and instr.dst is not None:
                            for rv_instr in callee.instructions():
                                if isinstance(rv_instr, Ret) and rv_instr.value is not None:
                                    self.dug.add_top_copy(rv_instr.value, instr.dst)


def _instruction_successors(fn: Function) -> Dict[int, List]:
    """Instruction-level CFG successors within one function."""
    from repro.ir.instructions import Branch, Jump
    succs: Dict[int, List] = {}
    for block in fn.blocks:
        for i, instr in enumerate(block.instructions):
            if i + 1 < len(block.instructions):
                succs[instr.id] = [block.instructions[i + 1]]
            else:
                targets = []
                if isinstance(instr, Branch):
                    targets = [instr.then_block.instructions[0],
                               instr.else_block.instructions[0]]
                elif isinstance(instr, Jump):
                    targets = [instr.target.instructions[0]]
                succs[instr.id] = targets
    return succs


def build_dug(module: Module, andersen: AndersenResult,
              relevant: Optional[Set[MemObject]] = None,
              obs: Observer = NULL_OBS) -> Tuple[DUG, MemorySSABuilder]:
    """Build the thread-oblivious DUG; returns (dug, builder).
    Construction statistics land in *obs* under ``memssa.*``."""
    builder = MemorySSABuilder(module, andersen, relevant=relevant)
    dug = builder.build(obs)
    return dug, builder
