"""The static thread model (paper Section 3.1).

Abstract threads are context-sensitive fork sites; the main thread
roots the spawn tree. Each thread owns a *state graph*: its ICFG with
calling contexts expanded into the callees that can reach a
synchronisation operation (callsites in call-graph cycles are not
pushed), and one context-free copy of every other callee per set of
lock spans open at its call sites (see :class:`ThreadStateGraph`). On
top of these the model computes:

- the spawn relation (direct and transitive, [T-FORK]),
- multi-forked threads (Definition 1),
- definite joins at join sites ([T-JOIN], including the symmetric
  fork/join loop correlation of Figure 11),
- a forward *must-join* data-flow per thread, from which full joins
  and the happens-before relation for siblings (Definition 2) derive.

Lock-release spans (Definition 3) are traced here too, while each
graph is built, because they key the copies; :mod:`repro.mt.locks`
derives span heads and tails from them.

Everything here runs over int tables. ICFG nodes are ints (see
:mod:`repro.cfg.icfg`); a state is interned over (key id, node) into a
dense sid, and a built graph's edges are a
:class:`~repro.graphs.dense.DenseGraph` over sids. Must-join runs
:func:`~repro.graphs.dense.forward_facts` over it, and its facts are a
list indexed by sid in which unchanged facts share one frozenset.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.andersen import AndersenResult
from repro.cfg.callgraph import CallGraph
from repro.cfg.cfg import CFG
from repro.cfg.icfg import ICFG, NodeKind
from repro.graphs.dense import DenseGraph, forward_facts
from repro.ir.instructions import (
    BarrierWait, Fork, Instruction, Join, Lock, Signal, Unlock, Wait,
)
from repro.ir.module import Module
from repro.ir.values import Function, MemObject, Temp, Value
from repro.mt.context import Context
from repro.mt.symmetry import SymmetricPair, find_symmetric_pairs

#: A state's key: its calling context, or, for a state in a copy of a
#: sync-free callee, the ids of the lock spans open at its call sites.
StateKey = Union[Context, FrozenSet[int]]


def singleton_lock(andersen: AndersenResult, ptr: Value) -> Optional[MemObject]:
    """The singleton lock object *ptr* must point to, or None.
    Must-alias is required: l == l' only when both resolve to the
    same unique runtime lock (paper: "point to the same singleton
    lock object")."""
    if not isinstance(ptr, Temp):
        return None
    pts = andersen.pts(ptr)
    if len(pts) != 1:
        return None
    obj = next(iter(pts))
    return obj if obj.is_singleton else None


class AbstractThread:
    """A context-sensitive fork site (or the main thread)."""

    def __init__(self, tid: int, parent: Optional["AbstractThread"],
                 fork_site: Optional[Fork], spawn_ctx: Context,
                 routine: Function, multi_forked: bool) -> None:
        self.id = tid
        self.parent = parent
        self.fork_site = fork_site
        self.spawn_ctx = spawn_ctx
        self.routine = routine
        self.multi_forked = multi_forked
        self.children: List["AbstractThread"] = []

    @property
    def is_main(self) -> bool:
        return self.parent is None

    def ancestors(self) -> List["AbstractThread"]:
        result = []
        node = self.parent
        while node is not None:
            result.append(node)
            node = node.parent
        return result

    def descendants(self) -> List["AbstractThread"]:
        result: List[AbstractThread] = []
        work = list(self.children)
        while work:
            t = work.pop()
            result.append(t)
            work.extend(t.children)
        return result

    def __repr__(self) -> str:
        if self.is_main:
            return "<thread t0 (main)>"
        star = "*" if self.multi_forked else ""
        return f"<thread t{self.id}{star} {self.routine.name} @ ctx{self.spawn_ctx!r}>"


#: Instructions that change a thread's facts (fork, join) or open and
#: close lock spans (lock, unlock, condition wait), plus the remaining
#: synchronisation operations. A function that reaches none of them
#: over call edges is *sync-free*.
SYNC_INSTRUCTIONS = (Fork, Join, Lock, Unlock, Wait, Signal, BarrierWait)


def sync_reaching_functions(module: Module, callgraph: CallGraph) -> Set[Function]:
    """The functions that transitively, over the call graph, contain
    a synchronisation instruction: the callers-closure of the
    functions that contain one."""
    reaching = {fn for fn in module.functions.values()
                if any(isinstance(instr, SYNC_INSTRUCTIONS)
                       for instr in fn.instructions())}
    work = list(reaching)
    while work:
        fn = work.pop()
        for site in callgraph.callsites_of(fn):
            caller = site.function
            if caller is not None and caller not in reaching:
                reaching.add(caller)
                work.append(caller)
    return reaching


def returning_functions(icfg: ICFG, callgraph: CallGraph,
                        functions: List[Function]) -> Set[int]:
    """The ENTRY nodes of the functions among *functions* (a set
    closed under calls) whose exit is reachable from their entry,
    where a call steps to its return site only if some callee returns
    or none resolves: the least fixpoint, taken callees first."""
    returning: Set[int] = set()
    ordered = [icfg.entry_of(fn) for fn in sorted(functions, key=callgraph.scc_id)]
    changed = True
    while changed:
        changed = False
        for entry in ordered:
            if entry not in returning and \
                    _exit_reachable(icfg, entry, returning):
                returning.add(entry)
                changed = True
    return returning


def _exit_reachable(icfg: ICFG, entry: int, returning: Set[int]) -> bool:
    exit_node = entry + 1
    kinds = icfg.kind
    seen = {entry}
    work = [entry]
    while work:
        node = work.pop()
        if node == exit_node:
            return True
        if kinds[node] == NodeKind.CALL:
            callees = icfg.call_targets(node)
            if callees and not any(c in returning for c in callees):
                continue
            succs = (node + 1,)
        else:
            # Only CALL and EXIT nodes have interprocedural out-edges.
            succs = icfg.successors(node)
        for succ in succs:
            if succ not in seen:
                seen.add(succ)
                work.append(succ)
    return False


class ThreadStateGraph:
    """A thread's ICFG, with calling contexts expanded only where
    synchronisation happens.

    States are (key, ICFG node) pairs, interned and numbered densely
    in the order the walk finds them. The graph has two parts:

    - **Expanded states**, keyed by a :class:`Context`. They start at
      the thread's routine and descend into *sync-reaching* callees
      (see :func:`sync_reaching_functions`), pushing the callsite
      unless it is cycle-collapsed; function exits return to the
      matching return site.
    - **Copies** of sync-free callees, keyed by the frozenset of lock
      span ids (lock state sids) open at the call. A call to a
      sync-free callee steps to its return site in the caller's
      context, when the callee can return, and also enters the
      callee's copy for its open span set. Every call site with that
      span set, including calls from other copies, enters the same
      copy, whose states belong to every span in its key. A copy ends
      at its exit.

    Sync-free code cannot fork, join, acquire or release, so each of
    its instances carries its call site's must-join fact, I-set and
    span set. A copy holds the union of the I-sets of the instances it
    stands for, and exactly their span set; DESIGN.md ("Thread state
    graphs") explains why no answer changes.

    Keys are interned too: ``keys[state_key[sid]]`` is a state's key
    and ``state_node[sid]`` its ICFG node. Once built, the edges are a
    :class:`~repro.graphs.dense.DenseGraph` over sids (``graph``).

    ``spans`` maps each lock span's acquiring state (a lock, or a
    condition wait that re-acquires its mutex) to its singleton lock
    object and member states (Definition 3). Spans are traced on the
    expanded states before the copies are attached, since the copies
    are keyed by them.
    """

    def __init__(self, thread: AbstractThread, icfg: ICFG,
                 andersen: AndersenResult, sync_reaching: Set[int],
                 returning: Set[int]) -> None:
        self.thread = thread
        self.icfg = icfg
        self.andersen = andersen
        self.callgraph = andersen.callgraph
        self.sync_reaching = sync_reaching   # ENTRY nodes
        self.returning = returning           # ENTRY nodes
        self.keys: List[StateKey] = []
        self.state_key = array("i")
        self.state_node = array("i")
        self.graph: Optional[DenseGraph] = None
        self.entry_sid: int = -1
        self.exit_sids: List[int] = []
        self.spans: Dict[int, Tuple[MemObject, Set[int]]] = {}
        # instr.id -> the states at its CALL or STMT node.
        self.instr_states: Dict[int, Tuple[int, ...]] = {}
        self._routine_exit = icfg.exit_of(thread.routine)
        self._key_ids: Dict[StateKey, int] = {}
        self._index: Dict[int, int] = {}   # key id * |ICFG| + node -> sid
        self._forks: List[Tuple[int, Fork]] = []
        self._joins: List[Tuple[int, Join]] = []
        # Construction only: the edges in insertion order, and the
        # return edges among them as ``src << 32 | dst`` (the only
        # ones that can be offered twice); (exit node, callee key id)
        # -> [(caller key id, retsite node)]; callee exit states; the
        # calls into sync-free callees waiting for their copies.
        self._src = array("i")
        self._dst = array("i")
        self._ret_edges: Set[int] = set()
        self._ret_map: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._exit_states: Dict[Tuple[int, int], int] = {}
        self._sync_free_calls: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self.state_node)

    def sid_of(self, ctx: Context, node: int) -> Optional[int]:
        key_id = self._key_ids.get(ctx)
        if key_id is None:
            return None
        return self._index.get(key_id * len(self.icfg) + node)

    def state(self, sid: int) -> Tuple[StateKey, int]:
        return self.keys[self.state_key[sid]], self.state_node[sid]

    def instr_of(self, sid: int) -> Optional[Instruction]:
        """The state's instruction: a return site's is its call's,
        an entry's or exit's is None."""
        return self.icfg.instr[self.state_node[sid]]

    def states_of_instr(self, instr: Instruction) -> Tuple[int, ...]:
        return self.instr_states.get(instr.id, ())

    def fork_states(self) -> List[Tuple[int, Fork]]:
        return self._forks

    def join_states(self) -> List[Tuple[int, Join]]:
        return self._joins

    # -- construction ----------------------------------------------------

    def _key_id(self, key: StateKey) -> int:
        key_id = self._key_ids.get(key)
        if key_id is None:
            key_id = len(self.keys)
            self._key_ids[key] = key_id
            self.keys.append(key)
        return key_id

    def _intern(self, key_id: int, node: int) -> Tuple[int, bool]:
        sid = self._index.get(key_id * len(self.icfg) + node)
        if sid is not None:
            return sid, False
        return self._new_state(key_id, node), True

    def _new_state(self, key_id: int, node: int) -> int:
        sid = len(self.state_node)
        self._index[key_id * len(self.icfg) + node] = sid
        self.state_key.append(key_id)
        self.state_node.append(node)
        key = self.keys[key_id]
        if isinstance(key, frozenset):
            for lock_sid in key:
                self.spans[lock_sid][1].add(sid)
        elif self.icfg.kind[node] == NodeKind.EXIT:
            self._exit_states[(node, key_id)] = sid
            if node == self._routine_exit and not key:
                self.exit_sids.append(sid)
        return sid

    def build(self) -> None:
        self.entry_sid, _ = self._intern(
            self._key_id(Context.EMPTY), self.icfg.entry_of(self.thread.routine))
        self._walk([self.entry_sid])
        self._trace_spans()
        self._attach_copies()
        self._freeze()

    def _freeze(self) -> None:
        self.graph = DenseGraph(len(self), self._src, self._dst)
        kinds, instrs = self.icfg.kind, self.icfg.instr
        # Tuples of ints, which the GC stops tracking once it has
        # seen them; most instructions have one state.
        by_instr = self.instr_states
        for sid, node in enumerate(self.state_node):
            kind = kinds[node]
            if kind != NodeKind.STMT and kind != NodeKind.CALL:
                continue
            instr = instrs[node]
            sids = by_instr.get(instr.id)
            by_instr[instr.id] = (sid,) if sids is None else sids + (sid,)
            if kind == NodeKind.STMT:
                if isinstance(instr, Fork):
                    self._forks.append((sid, instr))
                elif isinstance(instr, Join):
                    self._joins.append((sid, instr))
        self._src, self._dst = array("i"), array("i")
        self._ret_edges = set()
        self._ret_map = {}
        self._exit_states = {}

    def _walk(self, work: List[int]) -> None:
        icfg = self.icfg
        kinds, width = icfg.kind, len(icfg)
        succ_off, succ = icfg.graph.succ_off, icfg.graph.succ
        state_key, state_node = self.state_key, self.state_node
        index, src, dst = self._index, self._src, self._dst
        while work:
            sid = work.pop()
            key_id = state_key[sid]
            node = state_node[sid]
            kind = kinds[node]
            if kind == NodeKind.EXIT:
                for caller_key, retsite in self._ret_map.get((node, key_id), ()):
                    self._return_to(sid, caller_key, retsite, work)
            elif kind == NodeKind.CALL:
                for succ_key, succ_node in self._call_successors(
                        sid, key_id, node, work):
                    succ_sid, fresh = self._intern(succ_key, succ_node)
                    src.append(sid)
                    dst.append(succ_sid)
                    if fresh:
                        work.append(succ_sid)
            else:
                # STMT / RETSITE / ENTRY nodes have intra edges only
                # (fork and join sites too, by construction of the
                # ICFG), and stay in their key.
                base = key_id * width
                for succ_node in succ[succ_off[node]:succ_off[node + 1]]:
                    succ_sid = index.get(base + succ_node)
                    if succ_sid is None:
                        succ_sid = self._new_state(key_id, succ_node)
                        work.append(succ_sid)
                    src.append(sid)
                    dst.append(succ_sid)

    def _return_to(self, exit_sid: int, caller_key: int, retsite: int,
                   work: List[int]) -> None:
        ret_sid, fresh = self._intern(caller_key, retsite)
        edge = exit_sid << 32 | ret_sid
        if edge not in self._ret_edges:
            self._ret_edges.add(edge)
            self._src.append(exit_sid)
            self._dst.append(ret_sid)
        if fresh:
            work.append(ret_sid)

    def _call_successors(self, sid: int, key_id: int, node: int,
                         work: List[int]) -> List[Tuple[int, int]]:
        key = self.keys[key_id]
        call = self.icfg.instr[node]
        retsite = node + 1
        result: List[Tuple[int, int]] = []
        callees = self.icfg.call_targets(node)
        # External/unresolved calls fall through.
        falls_through = not callees
        for entry in callees:
            if entry not in self.sync_reaching:
                if isinstance(key, frozenset):
                    result.append((key_id, entry))
                else:
                    self._sync_free_calls.append((sid, entry))
                falls_through = falls_through or entry in self.returning
                continue
            # Only expanded states reach a sync-reaching callee: the
            # callees of sync-free code are sync-free.
            if self.callgraph.site_in_cycle(call):
                callee_key = key_id
            else:
                callee_key = self._key_id(key.push(call.id))
            self._register_return(entry + 1, callee_key, key_id, retsite, work)
            result.append((callee_key, entry))
        if falls_through:
            result.append((key_id, retsite))
        return result

    def _register_return(self, callee_exit: int, callee_key: int,
                         caller_key: int, retsite: int,
                         work: List[int]) -> None:
        targets = self._ret_map.setdefault((callee_exit, callee_key), [])
        if (caller_key, retsite) in targets:
            return
        targets.append((caller_key, retsite))
        # If the callee's exit state already exists (cycle-collapsed
        # contexts revisited), wire the new return edge immediately.
        exit_sid = self._exit_states.get((callee_exit, callee_key))
        if exit_sid is not None:
            self._return_to(exit_sid, caller_key, retsite, work)

    def _trace_spans(self) -> None:
        """Lock-release spans (Definition 3) over the expanded states:
        forward reachability from each acquisition of a singleton
        lock, up to and including the releases of that lock. Calls
        and returns are already matched by the graph."""
        kinds, instrs = self.icfg.kind, self.icfg.instr
        expanded: Optional[DenseGraph] = None
        for sid, node in enumerate(self.state_node):
            if kinds[node] != NodeKind.STMT:
                continue
            # A span begins at a lock acquisition — or at a condition
            # wait, which re-acquires the mutex on return.
            instr = instrs[node]
            if isinstance(instr, Lock):
                lock_obj = singleton_lock(self.andersen, instr.ptr)
            elif isinstance(instr, Wait):
                lock_obj = singleton_lock(self.andersen, instr.mutex_ptr)
            else:
                continue
            if lock_obj is not None:
                if expanded is None:
                    expanded = DenseGraph(len(self), self._src, self._dst)
                self.spans[sid] = (lock_obj,
                                   self._span_members(expanded, sid, lock_obj))

    def _span_members(self, expanded: DenseGraph, lock_sid: int,
                      lock_obj: MemObject) -> Set[int]:
        kinds, instrs = self.icfg.kind, self.icfg.instr
        members: Set[int] = {lock_sid}
        work = [lock_sid]
        while work:
            sid = work.pop()
            node = self.state_node[sid]
            if sid != lock_sid and kinds[node] == NodeKind.STMT:
                instr = instrs[node]
                released = None
                if isinstance(instr, Unlock):
                    released = singleton_lock(self.andersen, instr.ptr)
                elif isinstance(instr, Wait):
                    # cond_wait releases the mutex: the span ends here
                    # (a fresh span is seeded at the wait itself).
                    released = singleton_lock(self.andersen,
                                              instr.mutex_ptr)
                # MemObjects are compared by allocation-site id, not
                # Python identity: distinct MemObject instances can
                # denote the same abstract object (e.g. after field
                # derivation or re-materialisation).
                if released is not None and released.id == lock_obj.id:
                    continue  # the span ends here (release included)
            for succ in expanded.successors(sid):
                if succ not in members:
                    members.add(succ)
                    work.append(succ)
        return members

    def _attach_copies(self) -> None:
        calls = {sid for sid, _entry in self._sync_free_calls}
        open_at: Dict[int, List[int]] = {}
        for lock_sid, (_obj, members) in self.spans.items():
            for sid in calls & members:
                open_at.setdefault(sid, []).append(lock_sid)
        for call_sid, entry in self._sync_free_calls:
            key_id = self._key_id(frozenset(open_at.get(call_sid, ())))
            entry_sid, fresh = self._intern(key_id, entry)
            self._src.append(call_sid)
            self._dst.append(entry_sid)
            if fresh:
                self._walk([entry_sid])
        self._sync_free_calls = []


class ThreadModel:
    """Thread enumeration plus the relations FSAM's interference
    analyses consume."""

    def __init__(self, module: Module, andersen: AndersenResult,
                 icfg: Optional[ICFG] = None,
                 symmetric_pairs: Optional[
                     Dict[Tuple[int, int], SymmetricPair]] = None) -> None:
        self.module = module
        self.andersen = andersen
        self.callgraph = andersen.callgraph
        self.icfg = icfg if icfg is not None else ICFG(module, self.callgraph)
        self.threads: List[AbstractThread] = []
        self.state_graphs: Dict[int, ThreadStateGraph] = {}
        self.threads_by_fork: Dict[int, List[AbstractThread]] = {}
        # The pipeline passes the pairs its memory SSA builder already
        # found, so they are computed once per run.
        self.symmetric_pairs = symmetric_pairs \
            if symmetric_pairs is not None \
            else find_symmetric_pairs(module, andersen)
        # Per thread: sid -> set of thread ids certainly dead past it.
        self.kills_at: Dict[int, Dict[int, FrozenSet[int]]] = {}
        # Per thread, indexed by sid: the must-joined thread-id set.
        self.must_join: Dict[int, List[Optional[FrozenSet[int]]]] = {}
        # thread id -> ids of descendants it certainly joins by exit.
        self.fully_joined: Dict[int, FrozenSet[int]] = {}
        self.by_id: Dict[int, AbstractThread] = {}
        self._loop_cache: Dict[str, Set] = {}
        self._instr_by_id: Dict[int, Instruction] = {}
        for instr in module.all_instructions():
            self._instr_by_id[instr.id] = instr
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        icfg = self.icfg
        sync_reaching = sync_reaching_functions(self.module, self.callgraph)
        sync_free = [fn for fn in self.module.functions.values()
                     if icfg.has_body(fn) and fn not in sync_reaching]
        returning = returning_functions(icfg, self.callgraph, sync_free)
        sync_entries = {icfg.entry_of(fn) for fn in sync_reaching
                        if icfg.has_body(fn)}
        counter = itertools.count()
        main = AbstractThread(next(counter), None, None, Context.EMPTY,
                              self.module.main, False)
        self.threads.append(main)
        self.by_id[main.id] = main
        seen: Set[Tuple[int, Context, int, str]] = set()
        queue = [main]
        while queue:
            thread = queue.pop(0)
            graph = ThreadStateGraph(thread, icfg, self.andersen,
                                     sync_entries, returning)
            graph.build()
            self.state_graphs[thread.id] = graph
            for sid, fork in graph.fork_states():
                ctx, _node = graph.state(sid)
                # In node order, so that thread ids do not follow the
                # hash order of a function-pointer fork's routines.
                routines = sorted((routine for routine
                                   in self.callgraph.callees(fork)
                                   if icfg.has_body(routine)),
                                  key=icfg.entry_of)
                for routine in routines:
                    key = (thread.id, ctx, fork.id, routine.name)
                    if key in seen:
                        continue
                    seen.add(key)
                    multi = self._is_multi_forked(thread, ctx, fork)
                    child = AbstractThread(next(counter), thread, fork, ctx,
                                           routine, multi)
                    thread.children.append(child)
                    self.threads.append(child)
                    self.by_id[child.id] = child
                    self.threads_by_fork.setdefault(fork.id, []).append(child)
                    queue.append(child)
        # Children first: must-join of a child feeds the transitive
        # join closure of its parent.
        for thread in reversed(self.threads):
            self._compute_kills(thread)
            self._compute_must_join(thread)

    def _loop_blocks(self, fn: Function) -> Set:
        blocks = self._loop_cache.get(fn.name)
        if blocks is None:
            blocks = CFG(fn).loop_blocks
            self._loop_cache[fn.name] = blocks
        return blocks

    def _is_multi_forked(self, spawner: AbstractThread, ctx: Context, fork: Fork) -> bool:
        """Definition 1: fork in a loop or recursion, or spawner in M."""
        if spawner.multi_forked:
            return True
        fn = fork.function
        if fn is None:
            return True
        if self.callgraph.in_cycle(fn):
            return True
        if fork.block in self._loop_blocks(fn):
            return True
        for site_id in ctx:
            site = self._instr_by_id.get(site_id)
            if site is None or site.function is None:
                return True
            if self.callgraph.in_cycle(site.function):
                return True
            if site.block in self._loop_blocks(site.function):
                return True
        return False

    # -- joins ----------------------------------------------------------------

    def definite_joins(self, thread: AbstractThread, join: Join) -> Set[AbstractThread]:
        """Child threads certainly joined when *thread* executes *join*
        ([T-JOIN]): the handle must name exactly one abstract thread,
        spawned by *thread*, that denotes a unique runtime thread
        (not multi-forked) — or a multi-forked thread matched by the
        symmetric-loop correlation (handled separately via kill
        blocks, so it is excluded here)."""
        tids = self.andersen.pts(join.handle)
        if len(tids) != 1:
            return set()
        tid = next(iter(tids))
        fork = getattr(tid, "fork_site", None)
        if fork is None:
            return set()
        candidates = [t for t in self.threads_by_fork.get(fork.id, [])
                      if t.parent is thread]
        if len(candidates) != 1:
            return set()
        child = candidates[0]
        if child.multi_forked:
            return set()
        return {child}

    def symmetric_join_of(self, thread: AbstractThread, join: Join) -> Optional[Tuple[AbstractThread, SymmetricPair]]:
        """The multi-forked child joined by a symmetric join loop.
        The structural matcher (not points-to purity) identifies the
        fork, so reused tid arrays still correlate."""
        for tid in self.andersen.pts(join.handle):
            fork = getattr(tid, "fork_site", None)
            if fork is None:
                continue
            pair = self.symmetric_pairs.get((fork.id, join.id))
            if pair is None:
                continue
            candidates = [t for t in self.threads_by_fork.get(fork.id, [])
                          if t.parent is thread]
            if len(candidates) == 1:
                return candidates[0], pair
        return None

    def _join_closure(self, child: AbstractThread) -> FrozenSet[int]:
        """{child} plus descendants the child fully joins, transitively
        ([T-JOIN] transitivity through full joins)."""
        return frozenset({child.id}) | self.fully_joined.get(child.id, frozenset())

    def _compute_kills(self, thread: AbstractThread) -> None:
        graph = self.state_graphs[thread.id]
        kills: Dict[int, Set[int]] = {}
        for sid, join in graph.join_states():
            ctx, node = graph.state(sid)
            for child in self.definite_joins(thread, join):
                kills.setdefault(sid, set()).update(self._join_closure(child))
            symmetric = self.symmetric_join_of(thread, join)
            if symmetric is not None:
                child, pair = symmetric
                closure = self._join_closure(child)
                # The kill lands at the join loop's exits, where every
                # runtime instance has been joined.
                for block in pair.kill_blocks:
                    first = block.instructions[0]
                    kill_node = self.icfg.node_of(first)
                    kill_sid = graph.sid_of(ctx, kill_node)
                    if kill_sid is not None:
                        kills.setdefault(kill_sid, set()).update(closure)
        self.kills_at[thread.id] = {sid: frozenset(s) for sid, s in kills.items()}

    def _compute_must_join(self, thread: AbstractThread) -> None:
        """Forward must data-flow: which threads has *thread* certainly
        joined when reaching each state. A join state adds what it
        kills; paths meet by intersection."""
        graph = self.state_graphs[thread.id]
        out, _iterations = forward_facts(
            graph.graph, {graph.entry_sid: frozenset()},
            gen=self.kills_at[thread.id], kill={}, union=False)
        self.must_join[thread.id] = out
        joined: FrozenSet[int] = frozenset()
        for index, sid in enumerate(graph.exit_sids):
            fact = out[sid] or frozenset()
            joined = fact if index == 0 else joined & fact
        self.fully_joined[thread.id] = joined

    def state_count(self) -> int:
        """States over all thread graphs, copies included."""
        return sum(len(graph) for graph in self.state_graphs.values())

    # -- relations --------------------------------------------------------------

    def is_ancestor(self, a: AbstractThread, b: AbstractThread) -> bool:
        node = b.parent
        while node is not None:
            if node is a:
                return True
            node = node.parent
        return False

    def siblings(self, a: AbstractThread, b: AbstractThread) -> bool:
        """[T-SIBLING]: neither transitively spawns the other."""
        return a is not b and not self.is_ancestor(a, b) and not self.is_ancestor(b, a)

    def _lca_children(self, a: AbstractThread, b: AbstractThread):
        """(A, B): the children of the lowest common ancestor on the
        paths to a and b. Returns None unless a, b are siblings."""
        a_chain = [a] + a.ancestors()
        b_chain = [b] + b.ancestors()
        a_set = {t.id: i for i, t in enumerate(a_chain)}
        for j, anc in enumerate(b_chain):
            if anc.id in a_set:
                i = a_set[anc.id]
                if i == 0 or j == 0:
                    return None  # ancestor relation, not siblings
                return a_chain[i - 1], b_chain[j - 1]
        return None

    def happens_before(self, a: AbstractThread, b: AbstractThread) -> bool:
        """Definition 2 (generalised through the spawn tree): a > b if,
        in their lowest common ancestor L, the fork of b's ancestor
        chain is preceded on every path by joins that certainly
        include a."""
        pair = self._lca_children(a, b)
        if pair is None:
            return False
        child_a, child_b = pair
        lca = child_b.parent
        graph = self.state_graphs.get(lca.id)
        if graph is None or child_b.fork_site is None:
            return False
        fork_node = self.icfg.node_of(child_b.fork_site)
        sid = graph.sid_of(child_b.spawn_ctx, fork_node)
        if sid is None:
            return False
        must = self.must_join[lca.id][sid] or frozenset()
        if a.id in must:
            return True
        # a may be joined transitively: child_a fully joined and a
        # fully joined within its own chain down from child_a.
        if child_a.id in must:
            joined = self.fully_joined.get(child_a.id, frozenset())
            return a.id in joined or a is child_a
        return False

    def spawned_at(self, thread: AbstractThread, ctx: Context, fork: Fork) -> List[AbstractThread]:
        return [t for t in self.threads_by_fork.get(fork.id, [])
                if t.parent is thread and t.spawn_ctx == ctx]
