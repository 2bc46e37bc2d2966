"""The sparse flow-sensitive points-to solver (paper Figure 10).

Propagates points-to facts only along the DUG's pre-computed def-use
edges:

- top-level SSA variables get one global points-to set each — SSA
  form makes this flow-sensitive by construction;
- address-taken objects get one points-to set per defining DUG node
  (stores, chi/phi/formal pseudo-statements), connected by the
  o-labelled edges.

Rule correspondence:

- [P-ADDR]/[P-COPY]/[P-PHI] — direct top-level updates.
- [P-LOAD]   — a load reads the o-states reaching it for each o in
  the (sparse) points-to set of its pointer.
- [P-STORE]  — a store writes its value's points-to set into each o
  it may target.
- [P-SU/WU]  — a strong update (incoming state killed) happens when
  the pointer resolves to exactly one singleton object; otherwise the
  old state merges in (weak). Objects the store cannot target pass
  through unchanged; a store through a null/empty pointer kills
  everything (kill = A).

Engine
------

The engine is *delta-propagating* with *SCC-condensed topological
scheduling* (the same wave-propagation discipline as the Andersen
pre-analysis):

- **Delta propagation.** When ``_set_mem`` grows a node's o-state,
  only the **new bits** travel: they are folded into a pending-delta
  mask on each outgoing o-edge and the successor is enqueued. A
  re-evaluated merge node (memory phi, formal-in/out, weak store,
  load) folds its pending deltas instead of re-unioning every
  predecessor state from scratch; ``_in_mask`` rescans the reaching
  definitions only on first reads (a load discovering a new
  pointed-to container, a store reclassifying after its pointer
  grew). Dropping a delta is always safe where the rules kill it
  (strong updates, empty-pointer stores, loads whose pointer does not
  reach the object): predecessor states are monotone and persistent,
  so a later classification change re-reads the full state.
- **Topological worklist.** ``DUG.compute_topo_ranks`` condenses the
  value-flow graph (o-edges + top-level def-use + copy chains, after
  ``[THREAD-VF]`` insertion) into its SCC DAG once; the worklist is an
  indexed priority queue on the resulting ranks, so facts flow
  downstream before any node is revisited. Only nodes with initial
  facts are seeded (AddrOf statements, function-valued copies/phis,
  fork-handle chis); everything else is reached by propagation.

Both changes preserve the exact fixpoint: transfer functions are
union-monotone, so visit order and per-visit cost change but the
least fixpoint does not (differentially pinned against
:class:`~repro.fsam.reference.ReferenceSolver`).

When constructed with an enabled :class:`~repro.trace.Tracer`, the
solver additionally records **derivation provenance**: for every
``(variable, object)`` and ``(memory state, object)`` fact, the rule,
node, and trigger fact that *first* introduced it. With the default
:data:`~repro.trace.NULL_TRACER` the hot paths pay only a
``provenance is None`` check per state change.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, NamedTuple, Optional, Set, Tuple, Union

from repro.andersen import AndersenResult
from repro.andersen.fields import derive_field
from repro.fsam.config import Deadline, FSAMConfig
from repro.ir.instructions import AddrOf, Copy, Fork, Gep, Load, Phi, Store
from repro.ir.module import Module
from repro.ir.values import Function, MemObject, Temp, Value
from repro.memssa.builder import MemorySSABuilder
from repro.memssa.dug import (
    CallChiNode, DUG, DUGNode, FormalInNode, FormalOutNode, MemPhiNode,
    StmtNode,
)
from repro.obs import NULL_OBS, Observer
from repro.pts import PTSet, PTUniverse
from repro.trace import Derivation, NULL_TRACER, Tracer, mem_fact, top_fact

# Store classifications (per store x chi-annotated object); see
# _eval_store. "kill" = empty pointer (nothing propagates), "pass" =
# object not targeted (state flows through), "strong"/"weak" = paper
# [P-SU]/[P-WU].
KILL, PASS, STRONG, WEAK = "kill", "pass", "strong", "weak"

# _eval dispatch tags, precomputed once per node in the schedule
# bundle: the hot loop dispatches on small-int compares instead of
# re-running isinstance chains on every visit. Tags >= TAG_ADDR are
# the top-level statement kinds (evaluated only when top-dirty).
(TAG_MERGE, TAG_LOAD, TAG_STORE, TAG_CHI,
 TAG_ADDR, TAG_COPY, TAG_PHI, TAG_GEP, TAG_TOP_OTHER) = range(9)


class IncrementalReuse:
    """A previous fixpoint's reusable share, for
    :meth:`SparseSolver.solve_incremental`.

    ``frozen_uids`` must be *predecessor-closed* in the combined
    value-flow graph (every in-edge of a frozen node comes from a
    frozen node, every operand temp of a frozen node is a frozen
    temp): the incremental layer guarantees this by freezing exactly
    the complement of :meth:`repro.memssa.dug.DUG.downstream_closure`
    of the changed region. ``top_masks`` holds the frozen temps'
    fixpoint masks (keyed by ``Temp.id`` of *this* run), ``mem_masks``
    the frozen nodes' per-object states (keyed by ``(uid, obj.id)`` of
    this run) — both already translated into this run's universe.
    """

    __slots__ = ("frozen_uids", "top_masks", "mem_masks")

    def __init__(self, frozen_uids: Set[int],
                 top_masks: Dict[int, int],
                 mem_masks: Dict[Tuple[int, int], int]) -> None:
        self.frozen_uids = frozen_uids
        self.top_masks = top_masks
        self.mem_masks = mem_masks


_TOP_TAGS = {AddrOf: TAG_ADDR, Copy: TAG_COPY, Phi: TAG_PHI, Gep: TAG_GEP}


def _node_tag(node: DUGNode) -> int:
    if isinstance(node, StmtNode):
        instr = node.instr
        if isinstance(instr, Load):
            return TAG_LOAD
        if isinstance(instr, Store):
            return TAG_STORE
        return _TOP_TAGS.get(type(instr), TAG_TOP_OTHER)
    if isinstance(node, CallChiNode):
        return TAG_CHI
    return TAG_MERGE


def _is_seed(node: DUGNode) -> bool:
    """Nodes that can produce facts from nothing: AddrOf statements,
    copies/phis of function values, and fork-handle chis (their
    thread-id write needs no incoming state once the handle pointer
    resolves)."""
    if isinstance(node, StmtNode):
        instr = node.instr
        return (isinstance(instr, AddrOf)
                or (isinstance(instr, Copy)
                    and isinstance(instr.src, Function))
                or (isinstance(instr, Phi)
                    and any(isinstance(v, Function)
                            for v, _b in instr.incomings)))
    return (isinstance(node, CallChiNode)
            and isinstance(node.site, Fork)
            and node.site.handle_ptr is not None)


def _graph_index(dug: DUG) -> Tuple[bytes, bytes, List[DUGNode],
                                    Dict[Tuple[int, int], List[DUGNode]]]:
    """Whole-graph structures every schedule reads: the dispatch tag
    and the seed flag of each node (indexed by uid), the seed list,
    and the thread-aware edges into loads as a ``(src uid, obj id) ->
    loads`` map (they take the unconditional delta channel; a subset
    of ``dug._uses``). Pure functions of the frozen DUG, memoized in
    ``dug.schedule_cache``, so a slice schedule pays only
    slice-proportional filtering on top."""
    cached = dug.schedule_cache.get("solver_graph_index")
    if cached is None:
        nodes = dug.nodes
        tags = bytes([_node_tag(node) for node in nodes])
        seeded = bytes([_is_seed(node) for node in nodes])
        seeds = [node for node in nodes if seeded[node.uid]]
        to_load: Dict[Tuple[int, int], List[DUGNode]] = {}
        for src, obj, dst in dug.thread_edges:
            if isinstance(dst, StmtNode) and isinstance(dst.instr, Load):
                to_load.setdefault((src.uid, obj.id), []).append(dst)
        cached = (tags, seeded, seeds, to_load)
        dug.schedule_cache["solver_graph_index"] = cached
    return cached


class SchedulePlan(NamedTuple):
    """A solver's static schedule (see :func:`build_plan`). Nothing in
    it is mutated during a solve, so one plan can serve many solvers.
    Nodes are named by uid, their position in ``dug.nodes``."""

    tags: bytes                # dispatch tag per uid (whole graph)
    seeds: List[DUGNode]
    # (src uid, obj id) -> users: the DUG's own map, or a slice's part
    uses: Dict[Tuple[int, int], List[DUGNode]]
    # the thread-aware edges into loads among ``uses``
    to_load: Dict[Tuple[int, int], List[DUGNode]]
    # uid -> topological rank: a list, or a dict over a slice's uids
    rank: Union[List[int], Dict[int, int]]
    top_users: Dict[int, List[DUGNode]]
    copies_by_src: Dict[int, List[Tuple[object, Temp]]]
    top_copies: List[Tuple[object, Temp]]


def build_plan(dug: DUG, rank: Union[List[int], Dict[int, int]],
               node_uids: Optional[Set[int]] = None,
               temp_ids: Optional[Set[int]] = None) -> SchedulePlan:
    """Build the solver's schedule over *dug* from the topological
    *rank* of each node.

    Without a slice the schedule is the DUG's own maps. With an
    upstream-closure slice (*node_uids*/*temp_ids* from
    :meth:`repro.memssa.dug.DUG.upstream_closure`) every map —
    crucially the top-level def-use and copy maps too — covers slice
    members only: swapping the filtered maps under the hot paths
    (``_set_mem``, ``_apply_top``, the copy-chain walk, the up-front
    ``top_copies`` sweep) is what stops propagation at the slice
    boundary without touching the engine itself. Filtering walks the
    slice's own nodes and keys, never the whole graph.
    """
    tags, seeded, all_seeds, to_load = _graph_index(dug)
    if node_uids is None:
        return SchedulePlan(tags, all_seeds, dug._uses, to_load, rank,
                            dug._top_users, dug._copies_by_src,
                            dug.top_copies)
    nodes = dug.nodes
    # Ascending uid is creation order, so this reproduces the
    # whole-program seed order while touching only the slice.
    uids = sorted(node_uids)
    seeds = [nodes[uid] for uid in uids if seeded[uid]]
    full_uses = dug._uses
    uses: Dict[Tuple[int, int], List[DUGNode]] = {}
    for uid in uids:
        for obj in dug.mem_labels(nodes[uid]):
            key = (uid, obj.id)
            dsts = full_uses.get(key)
            if dsts:
                kept = [dst for dst in dsts if dst.uid in node_uids]
                if kept:
                    uses[key] = kept
    full_users = dug._top_users
    full_copies = dug._copies_by_src
    top_users: Dict[int, List[DUGNode]] = {}
    copies_by_src: Dict[int, List[Tuple[object, Temp]]] = {}
    top_copies: List[Tuple[object, Temp]] = []
    for tid in temp_ids:
        users = full_users.get(tid)
        if users:
            kept_users = [u for u in users if u.uid in node_uids]
            if kept_users:
                top_users[tid] = kept_users
        pairs = full_copies.get(tid)
        if pairs:
            kept_pairs = [p for p in pairs if p[1].id in temp_ids]
            if kept_pairs:
                copies_by_src[tid] = kept_pairs
        top_copies.extend(dug._copies_by_dst.get(tid, ()))
    return SchedulePlan(tags, seeds, uses, to_load, rank, top_users,
                        copies_by_src, top_copies)


class SparseSolver:
    """Delta-propagating worklist solver over the DUG.

    All per-variable (``pts_top``) and per-definition (``mem``) state
    is held as interned :class:`~repro.pts.PTSet` bitmasks over the
    pre-analysis universe, so the delta checks in ``_set_top`` /
    ``_set_mem`` are O(1) subset tests on masks, unchanged unions
    return the existing instance, and the per-edge deltas are plain
    int masks (``merged & ~current``).
    """

    def __init__(self, module: Module, dug: DUG, builder: MemorySSABuilder,
                 andersen: AndersenResult, config: Optional[FSAMConfig] = None,
                 deadline: Optional[Deadline] = None,
                 tracer: Tracer = NULL_TRACER,
                 obs: Observer = NULL_OBS) -> None:
        self.module = module
        self.dug = dug
        # Direct handles on the DUG's adjacency dicts — the per-update
        # hot paths skip the getter-method indirection. A demand-driven
        # solve (solve_demand) swaps these for slice-filtered copies,
        # which is what confines propagation to the slice.
        self._top_users_map = dug._top_users
        self._copies_by_src = dug._copies_by_src
        self._top_copies = dug.top_copies
        self.builder = builder
        self.andersen = andersen
        self.universe: PTUniverse = andersen.universe
        self.config = config or FSAMConfig()
        self.deadline = deadline
        self.tracer = tracer
        # Times the whole-program schedule build (solve() only: demand
        # slices are solved per query and would grow the phase tree).
        self.obs = obs
        # Fact key -> Derivation; None when tracing is off so the hot
        # path's guard is a single identity test.
        self.provenance: Optional[Dict[Tuple, Derivation]] = \
            {} if tracer.enabled else None
        # Public fixpoint views (interned PTSets), filled from the raw
        # mask state once at the end of solve(): the solve itself runs
        # entirely on plain int masks and touches the interning table
        # only for distinct final states.
        self.pts_top: Dict[int, PTSet] = {}
        self.mem: Dict[Tuple[int, int], PTSet] = {}
        self._top_masks: Dict[int, int] = {}
        self._mem_masks: Dict[Tuple[int, int], int] = {}
        # Priority worklist: a single int min-heap of packed
        # ``(rank << 32) | uid`` keys (ranks are mostly unique per
        # node, so per-rank buckets would churn). ``_queued`` keeps
        # pushes idempotent — at most one live heap entry per uid.
        self._heap: List[int] = []
        self._rank: Union[List[int], Dict[int, int]] = []
        self._queued: Set[int] = set()
        # Dispatch tag per uid; see the TAG_* constants.
        self._tags = b""
        # Nodes whose top-level operands changed since their last
        # visit (pushed via top_users); deltas alone leave this unset.
        self._top_dirty: Set[int] = set()
        # Pending o-state deltas per destination node:
        # uid -> obj.id -> [MemObject, delta mask]. ``_pending_thread``
        # is the separate channel for thread-aware edges into loads,
        # which fold unconditionally ([THREAD-VF] is not filtered by
        # the load's pointer).
        self._pending: Dict[int, Dict[int, List]] = {}
        self._pending_thread: Dict[int, Dict[int, List]] = {}
        # The users of each (uid, obj.id) memory state, read in place
        # from the DUG (or a slice's part of it), so ``_set_mem``
        # touches only the edges that carry the grown object;
        # ``_to_load`` names the users among them that are
        # thread-aware edges into loads.
        self._uses: Dict[Tuple[int, int], List[DUGNode]] = {}
        self._to_load: Dict[Tuple[int, int], List[DUGNode]] = {}
        # Loads: object ids whose full incoming state was already
        # merged (subsequent growth arrives as deltas).
        self._load_seen: Dict[int, Set[int]] = {}
        # Geps: [last base mask, derived mask] per node, so a re-eval
        # only derives fields for base objects that are new since the
        # previous visit (pt(base) is monotone).
        self._gep_cache: Dict[int, List[int]] = {}
        self._seeds: List[DUGNode] = []
        # Stores: current classification per chi object, refreshed on
        # every pointer/value change (top-dirty visit).
        self._store_class: Dict[int, Dict[int, str]] = {}
        self._visited: Set[int] = set()
        self.iterations = 0
        self.strong_updates = 0
        self.weak_updates = 0
        self.delta_propagations = 0
        self.seeded_nodes = 0
        self.scc_count = 0

    # -- state access ----------------------------------------------------

    def top(self, temp: Temp) -> PTSet:
        return self.universe.from_mask(self._top_masks.get(temp.id, 0))

    def value_pts(self, value: Optional[Value]) -> PTSet:
        """Points-to set of any value operand."""
        return self.universe.from_mask(self._value_mask(value))

    def _value_mask(self, value: Optional[Value]) -> int:
        """Raw-mask twin of :meth:`value_pts` — the solve-time hot
        path, no interning-table touch."""
        if type(value) is Temp:  # by far the hottest case
            return self._top_masks.get(value.id, 0)
        if isinstance(value, Function):
            return self.universe.singleton(value.mem_object).mask
        return 0

    def mem_state(self, node: DUGNode, obj: MemObject) -> PTSet:
        """The o-state defined at *node*."""
        return self.mem.get((node.uid, obj.id), self.universe.empty)

    def _in_mask(self, node: DUGNode, obj: MemObject) -> int:
        """Recompute the full incoming o-state as a raw mask — first
        reads and classification changes only; steady-state
        propagation uses deltas."""
        mask = 0
        mem_masks = self._mem_masks
        obj_id = obj.id
        for src in self.dug.mem_defs_of(node, obj):
            state = mem_masks.get((src.uid, obj_id))
            if state is not None:
                mask |= state
        return mask

    # -- worklist ---------------------------------------------------------

    def _push(self, node: DUGNode) -> None:
        uid = node.uid
        queued = self._queued
        if uid not in queued:
            queued.add(uid)
            heappush(self._heap, (self._rank[uid] << 32) | uid)

    def _push_top(self, node: DUGNode) -> None:
        self._top_dirty.add(node.uid)
        self._push(node)

    # -- state updates ------------------------------------------------------

    def _set_top(self, temp: Temp, vals_mask: int, prov=None) -> None:
        tracing = self.provenance is not None
        if not self._apply_top(temp, vals_mask, prov, tracing):
            return
        copies = self._copies_by_src.get(temp.id)
        if not copies:
            return  # hot exit: most temps feed no interprocedural copy
        # Interprocedural copy-chain expansion with a deduped pending
        # set: on diamond-shaped copy graphs the same destination is
        # visited once per round (recomputing its merge over *all* its
        # sources) instead of once per path.
        pending: List[Temp] = []
        pending_ids: Set[int] = set()
        for _src, dst in copies:
            if dst.id not in pending_ids:
                pending_ids.add(dst.id)
                pending.append(dst)
        masks = self._top_masks
        while pending:
            dst = pending.pop()
            pending_ids.discard(dst.id)
            current = masks.get(dst.id, 0)
            merged = current
            for src, _dst in self.dug.copies_into(dst):
                sv = self._value_mask(src)
                nm = merged | sv
                if nm != merged:
                    if tracing:
                        self._record_top(dst, merged, sv, ("copy-chain", src))
                    merged = nm
            if merged == current:
                continue
            masks[dst.id] = merged
            for user in self._top_users_map.get(dst.id, ()):
                self._push_top(user)
            for _src, nxt in self._copies_by_src.get(dst.id, ()):
                if nxt.id not in pending_ids:
                    pending_ids.add(nxt.id)
                    pending.append(nxt)

    def _apply_top(self, target: Temp, vals_mask: int, prov,
                   tracing: bool) -> bool:
        masks = self._top_masks
        tid = target.id
        current = masks.get(tid, 0)
        merged = current | vals_mask
        if merged == current:  # vals ⊆ current
            return False
        if tracing:
            self._record_top(target, current, vals_mask, prov)
        masks[tid] = merged
        users = self._top_users_map.get(tid)
        if users:
            # _push_top inlined: this is the single hottest push site.
            top_dirty = self._top_dirty
            queued = self._queued
            rank = self._rank
            heap = self._heap
            for user in users:
                uid = user.uid
                top_dirty.add(uid)
                if uid not in queued:
                    queued.add(uid)
                    heappush(heap, (rank[uid] << 32) | uid)
        return True

    def _set_mem(self, node: DUGNode, obj: MemObject, vals_mask: int,
                 prov=None) -> None:
        key = (node.uid, obj.id)
        masks = self._mem_masks
        current = masks.get(key, 0)
        merged = current | vals_mask
        if merged == current:
            return
        if self.provenance is not None:
            self._record_mem(node, obj, current, vals_mask, prov)
        masks[key] = merged
        uses = self._uses.get(key)
        if uses is not None:
            self._deliver(key, obj, merged & ~current, uses)

    def _deliver(self, key: Tuple[int, int], obj: MemObject, delta: int,
                 uses: List[DUGNode]) -> None:
        """Fold *delta* into the pending book of each user of the
        *key* state and enqueue it."""
        self.delta_propagations += len(uses)
        obj_id = key[1]
        to_load = self._to_load.get(key) if self._to_load else None
        for dst in uses:
            if to_load is not None and dst in to_load:
                book = self._pending_thread
            else:
                book = self._pending
            slot = book.setdefault(dst.uid, {})
            entry = slot.get(obj_id)
            if entry is None:
                slot[obj_id] = [obj, delta]
            else:
                entry[1] |= delta
            self._push(dst)

    # -- solving ---------------------------------------------------------------

    def _prepare(self, node_uids: Optional[Set[int]] = None,
                 temp_ids: Optional[Set[int]] = None) -> None:
        """SCC-condense the value-flow graph into topological ranks —
        the whole graph, or the slice *node_uids*/*temp_ids* — and
        install the matching :func:`build_plan` schedule. The
        whole-program schedule is a pure function of the frozen DUG,
        so it is memoized in ``dug.schedule_cache`` and shared by every
        solver constructed on the graph."""
        dug = self.dug
        if node_uids is None:
            rank, self.scc_count = dug.compute_topo_ranks()
            plan = dug.schedule_cache.get("solver_schedule")
            if plan is None:
                plan = dug.schedule_cache["solver_schedule"] = \
                    build_plan(dug, rank)
        else:
            rank, self.scc_count = dug.compute_topo_ranks_slice(
                node_uids, temp_ids)
            plan = build_plan(dug, rank, node_uids, temp_ids)
        self._tags = plan.tags
        self._seeds = plan.seeds
        self._uses = plan.uses
        self._to_load = plan.to_load
        self._rank = plan.rank
        self._top_users_map = plan.top_users
        self._copies_by_src = plan.copies_by_src
        self._top_copies = plan.top_copies
        self._heap = []

    def solve(self) -> None:
        with self.obs.phase("schedule"):
            self._prepare()
        self._solve_prepared()

    def solve_demand(self, node_uids: Set[int], temp_ids: Set[int]) -> None:
        """Solve only the sub-DUG induced by an upstream-closure
        slice.

        *node_uids* / *temp_ids* must come from
        :meth:`repro.memssa.dug.DUG.upstream_closure` and are
        therefore predecessor-closed: every value a slice member's
        transfer function reads is itself in the slice, so on slice
        members the computed fixpoint is bit-identical to
        :meth:`solve`'s whole-program one (pinned by
        ``tests/fsam/test_query.py``). States of temps and nodes
        outside the slice are *not* computed — callers must read
        results only inside the slice (the query engine enforces
        this).
        """
        self._prepare(node_uids, temp_ids)
        self._solve_prepared()

    def _seed(self) -> int:
        """Activate the fact sources. Top-level-only seeds (AddrOf,
        function-value copies/phis) read no solver state, so they are
        evaluated on the spot rather than paying a queue round-trip
        each; everything else (fork-handle chis) is enqueued. Returns
        the number of direct evaluations (they count as iterations)."""
        tags = self._tags
        visited = self._visited
        direct = 0
        for node in self._seeds:
            self.seeded_nodes += 1
            tag = tags[node.uid]
            if tag >= TAG_ADDR:
                visited.add(node.uid)
                direct += 1
                self._eval_top_stmt(node, node.instr, tag)
            else:
                self._push_top(node)
        return direct

    def _solve_prepared(self) -> None:
        """Shared by :meth:`solve` (whole-program schedule) and
        :meth:`solve_demand` (slice schedule): evaluate the
        interprocedural copies, seed, and drain the worklist."""
        tracing = self.provenance is not None
        # Interprocedural top-level copies whose sources are constants
        # or function values never re-trigger; evaluate them up front.
        for src, dst in self._top_copies:
            self._set_top(dst, self._value_mask(src),
                          ("copy-chain", src) if tracing else None)
        self._run_worklist(self._seed())

    def _run_worklist(self, iterations: int) -> None:
        """Drain the worklist and finalize — the one loop behind
        :meth:`solve`, :meth:`solve_demand` and
        :meth:`solve_incremental`. *iterations* counts work already
        done (direct seed evals)."""
        queued = self._queued
        nodes = self.dug.nodes
        tags = self._tags
        visited = self._visited
        deadline = self.deadline
        heap = self._heap
        top_dirty = self._top_dirty
        while queued:
            if deadline is not None and iterations % 256 == 0:
                deadline.check()
            iterations += 1
            uid = heappop(heap) & 0xFFFFFFFF
            queued.discard(uid)
            visited.add(uid)
            node = nodes[uid]
            tag = tags[uid]
            if tag >= TAG_ADDR:
                # Top-level-only statements (the bulk of visits):
                # no memory in-edges, so no pending book to pop.
                if uid in top_dirty:
                    top_dirty.remove(uid)
                    self._eval_top_stmt(node, node.instr, tag)
                continue
            self._eval(node, tag)
        self.iterations = iterations
        self._finalize_states()

    def solve_incremental(self, reuse: IncrementalReuse) -> None:
        """Re-solve after an edit, reusing a previous fixpoint's
        frozen region.

        The frozen node/temp sets are predecessor-closed (see
        :class:`IncrementalReuse`), so the preloaded states *are* the
        new fixpoint over that region: the subsystem they solve is
        isomorphic between runs by construction of the per-function
        context signatures. The downstream complement is recomputed
        from scratch, with complete input delivery:

        - **wake rule** — every non-frozen top-level user of a frozen
          temp with a nonzero mask is pushed dirty, so downstream
          loads/stores/geps/fork-chis whose operands never change
          during this solve still classify against them;
        - **boundary delivery** — every frozen node's per-object state
          is delivered once as a pending delta along its out-edges
          into non-frozen successors (the same channel a live
          ``_set_mem`` would have used);
        - **seeding** — fact sources (AddrOf, function-valued
          copies/phis, fork-handle chis) are seeded only outside the
          frozen region; inside it their effects are already in the
          preloaded states.

        Frozen nodes are never enqueued: their in-edges all come from
        frozen nodes (whose states never grow — they are complete) and
        the wake rule filters them out explicitly. The result is
        bit-identical to :meth:`solve` on the same graph.
        """
        self._prepare()
        frozen = reuse.frozen_uids
        tracing = self.provenance is not None
        # Preload the frozen share of the previous fixpoint.
        self._top_masks.update(reuse.top_masks)
        self._mem_masks.update(reuse.mem_masks)
        # Wake rule.
        for temp_id, mask in reuse.top_masks.items():
            if not mask:
                continue
            for user in self._top_users_map.get(temp_id, ()):
                if user.uid not in frozen:
                    self._push_top(user)
        # Boundary delivery.
        universe = self.universe
        for key, mask in reuse.mem_masks.items():
            if not mask:
                continue
            uses = self._uses.get(key)
            if uses is None:
                continue
            live = [dst for dst in uses if dst.uid not in frozen]
            if live:
                obj = universe.object_at(universe.index_of_id(key[1]))
                self._deliver(key, obj, mask, live)
        # Constant/function-valued interprocedural copies, as in
        # solve(): a frozen destination already holds a superset of
        # every source (its copy sources are frozen too), so these
        # no-op there and only feed the downstream region.
        for src, dst in self.dug.top_copies:
            self._set_top(dst, self._value_mask(src),
                          ("copy-chain", src) if tracing else None)
        # Seed the downstream region only.
        tags = self._tags
        visited = self._visited
        direct = 0
        for node in self._seeds:
            if node.uid in frozen:
                continue
            tag = tags[node.uid]
            if tag >= TAG_ADDR:
                visited.add(node.uid)
                direct += 1
                self._eval_top_stmt(node, node.instr, tag)
            else:
                self._push_top(node)
        self.seeded_nodes = direct + len(self._queued)
        self._run_worklist(direct)

    def _finalize_states(self) -> None:
        """Intern the raw-mask fixpoint into the public PTSet views
        (``pts_top``/``mem``). The solve itself never touches the
        interning table for state updates — only distinct final masks
        are interned, here, once. The raw memory-state table is then
        released: nothing reads it after the solve, and on large
        programs it is the solver's biggest structure. The raw
        top-level table stays (``value_pts`` reads it)."""
        from_mask = self.universe.from_mask
        memo: Dict[int, PTSet] = {}
        memo_get = memo.get
        pts_top = self.pts_top
        for tid, m in self._top_masks.items():
            s = memo_get(m)
            if s is None:
                s = memo[m] = from_mask(m)
            pts_top[tid] = s
        mem = self.mem
        for key, m in self._mem_masks.items():
            s = memo_get(m)
            if s is None:
                s = memo[m] = from_mask(m)
            mem[key] = s
        self._mem_masks = {}

    _MERGE_RULES = {
        MemPhiNode: "mem-phi",
        FormalInNode: "formal-in",
        FormalOutNode: "formal-out",
    }

    def _eval(self, node: DUGNode, tag: int) -> None:
        uid = node.uid
        top_dirty = self._top_dirty
        if uid in top_dirty:
            top_dirty.remove(uid)
            dirty = True
        else:
            dirty = False
        if tag >= TAG_ADDR:
            # Top-level-only statements: no memory in-edges, so the
            # pending book can never hold a delta for them.
            if dirty:
                self._eval_top_stmt(node, node.instr, tag)
            return
        pend = self._pending.pop(uid, None)
        if tag == TAG_LOAD:
            self._eval_load(node, node.instr, dirty, pend)
        elif tag == TAG_STORE:
            self._eval_store(node, node.instr, dirty, pend)
        elif tag == TAG_CHI:
            self._eval_call_chi(node, dirty, pend)
        elif pend:
            # Merge pseudo-statements (memory phi, formal-in/out): the
            # state is the union of everything that ever arrived, so
            # folding the pending delta is the whole transfer — no
            # _in_mask rescan.
            obj = node.obj
            entry = pend.get(obj.id)
            if entry is not None and entry[1]:
                prov = None
                if self.provenance is not None:
                    prov = (self._MERGE_RULES[type(node)], node)
                self._set_mem(node, obj, entry[1], prov)

    def _eval_call_chi(self, node: CallChiNode, dirty: bool,
                       pend: Optional[Dict[int, List]]) -> None:
        obj = node.obj
        mask = 0
        if pend is not None:
            entry = pend.get(obj.id)
            if entry is not None:
                mask = entry[1]
        if dirty:
            site = node.site
            if isinstance(site, Fork) and site.handle_ptr is not None:
                # The fork's write of the abstract thread id into the
                # handle slot happens at this chi; the chi is a
                # top-level user of the handle pointer, so it re-runs
                # whenever pt(handle) grows.
                if self.universe.mask_contains(
                        self._value_mask(site.handle_ptr), obj):
                    tid = self.andersen.thread_objects.get(site.id)
                    if tid is not None:
                        mask |= self.universe.singleton(tid).mask
        if mask:
            prov = ("call-chi", node) if self.provenance is not None else None
            self._set_mem(node, obj, mask, prov)

    def _eval_top_stmt(self, node: StmtNode, instr, tag: int) -> None:
        tracing = self.provenance is not None
        if tag == TAG_COPY:
            self._set_top(instr.dst, self._value_mask(instr.src),
                          ("copy", node) if tracing else None)
        elif tag == TAG_ADDR:
            self._set_top(instr.dst, self.universe.singleton(instr.obj).mask,
                          ("addr", node) if tracing else None)
        elif tag == TAG_PHI:
            mask = 0
            for value, _block in instr.incomings:
                mask |= self._value_mask(value)
            self._set_top(instr.dst, mask,
                          ("phi", node) if tracing else None)
        elif tag == TAG_GEP:
            # Incremental: pt(base) is monotone, so only derive fields
            # for base objects new since the last visit — revisits of
            # a hot gep stop re-walking the whole base set.
            cache = self._gep_cache.get(node.uid)
            if cache is None:
                cache = self._gep_cache[node.uid] = [0, 0]
            base_mask = self._value_mask(instr.base)
            new_bits = base_mask & ~cache[0]
            if new_bits:
                cache[0] = base_mask
                universe = self.universe
                index = universe.index
                field_index = instr.field_index
                derived = 0
                for obj in universe.iter_mask(new_bits):
                    derived |= 1 << index(derive_field(obj, field_index))
                cache[1] |= derived
            self._set_top(instr.dst, cache[1],
                          ("gep", node) if tracing else None)
        # Call / Fork / Join: top-level linking flows through
        # dug.top_copies; memory effects flow through formal-in and
        # chi nodes.

    def _eval_load(self, node: StmtNode, instr: Load, dirty: bool,
                   pend: Optional[Dict[int, List]]) -> None:
        uid = node.uid
        tpend = self._pending_thread.pop(uid, None)
        mask = 0
        seen = self._load_seen.get(uid)
        if dirty:
            # The pointer (or mus) view changed: fully read any
            # newly-reachable container once; afterwards its growth
            # arrives as deltas.
            mus = self.builder.mus.get(instr.id)
            container_mask = self._value_mask(instr.ptr) & mus.mask \
                if mus is not None else 0
            if container_mask:
                if seen is None:
                    seen = self._load_seen[uid] = set()
                for obj in self.universe.iter_mask(container_mask):
                    if obj.id in seen:
                        continue
                    seen.add(obj.id)
                    mask |= self._in_mask(node, obj)
        if pend and seen:
            for obj_id, entry in pend.items():
                if obj_id in seen:
                    mask |= entry[1]
        if tpend:
            # [THREAD-VF] edges are followed unconditionally, as the
            # paper's sparse analysis does: a spurious edge (e.g. with
            # the AS(*p,*q) premise disregarded in the No-Value-Flow
            # ablation) both costs propagation work and pollutes pt()
            # — exactly the Figure 1(e) effect.
            for entry in tpend.values():
                mask |= entry[1]
        if mask:
            tracing = self.provenance is not None
            self._set_top(instr.dst, mask,
                          ("load", node) if tracing else None)

    def _eval_store(self, node: StmtNode, instr: Store, dirty: bool,
                    pend: Optional[Dict[int, List]]) -> None:
        uid = node.uid
        tracing = self.provenance is not None
        if dirty:
            # Pointer or stored value changed: reclassify every chi
            # object against the new pt(ptr). The full _in_mask
            # reads below subsume any pending deltas (predecessor
            # states are updated before deltas are enqueued), and
            # deltas into strong/kill-classified objects are dropped
            # by the rules themselves.
            universe = self.universe
            targets_mask = self._value_mask(instr.ptr)
            stored_mask = self._value_mask(instr.value)
            # Exactly one target <=> nonzero mask with one bit set.
            one_target = targets_mask != 0 and \
                targets_mask & (targets_mask - 1) == 0
            classes = self._store_class.get(uid)
            if classes is None:
                classes = self._store_class[uid] = {}
            for obj in self.builder.chis.get(instr.id, self.universe.empty):
                if not targets_mask:
                    # kill(s, p) = A for an empty pointer: the store
                    # goes nowhere known; nothing propagates (paper
                    # Figure 10).
                    classes[obj.id] = KILL
                    continue
                if not universe.mask_contains(targets_mask, obj):
                    # Pass-through: the store cannot touch obj.
                    classes[obj.id] = PASS
                    self._set_mem(node, obj, self._in_mask(node, obj),
                                  ("store-through", node) if tracing else None)
                    continue
                if one_target and obj.is_singleton:
                    classes[obj.id] = STRONG
                    self.strong_updates += 1
                    self._set_mem(node, obj, stored_mask,
                                  ("store-strong", node) if tracing else None)
                else:
                    classes[obj.id] = WEAK
                    self.weak_updates += 1
                    self._set_mem(node, obj,
                                  stored_mask | self._in_mask(node, obj),
                                  ("store-weak", node) if tracing else None)
            return
        if not pend:
            return
        classes = self._store_class.get(uid)
        if classes is None:
            # Never visited top-dirty: pt(ptr) is still empty, so
            # every object is killed (nothing propagates).
            return
        for obj_id, entry in pend.items():
            cls = classes.get(obj_id)
            if cls is PASS:
                self._set_mem(node, entry[0], entry[1],
                              ("store-through", node) if tracing else None)
            elif cls is WEAK:
                self.weak_updates += 1
                self._set_mem(node, entry[0], entry[1],
                              ("store-weak", node) if tracing else None)
            # STRONG / KILL: the incoming delta is killed by the rule.

    # -- derivation provenance ----------------------------------------------
    #
    # Only reached when tracing is on. For every object newly added to
    # a points-to state, record the Derivation that first introduced
    # the fact ("first-introduction semantics": later re-derivations
    # of the same fact are not recorded, so walking trigger links
    # always terminates at roots). Triggers are found by re-scanning
    # the solver state, which already holds the facts the transfer
    # read: predecessor states are updated before their deltas are
    # delivered.

    def _record_top(self, target: Temp, current_mask: int, vals_mask: int,
                    prov: Optional[Tuple]) -> None:
        rule, origin = prov if prov is not None else ("seed", None)
        assert self.provenance is not None
        for obj in self.universe.from_mask(vals_mask & ~current_mask):
            key = top_fact(target.id, obj.id)
            if key in self.provenance:
                continue
            derivation = self._derive_top(rule, origin, obj)
            self.provenance[key] = derivation
            self._emit_derive(key, derivation, f"pt(%{target.name})", obj)

    def _derive_top(self, rule: str, origin, obj: MemObject) -> Derivation:
        if rule == "addr":
            return Derivation("addr", origin, None)
        if rule == "copy-chain":
            # origin is the *source value* of an interprocedural copy.
            if isinstance(origin, Temp) and obj in self.value_pts(origin):
                return Derivation("copy", origin, top_fact(origin.id, obj.id))
            return Derivation("copy", origin, None)  # function/constant root
        if rule == "copy":
            src = origin.instr.src
            if isinstance(src, Temp) and obj in self.value_pts(src):
                return Derivation("copy", origin, top_fact(src.id, obj.id))
            return Derivation("copy", origin, None)
        if rule == "phi":
            for value, _block in origin.instr.incomings:
                if isinstance(value, Temp) and obj in self.value_pts(value):
                    return Derivation("phi", origin,
                                      top_fact(value.id, obj.id))
            return Derivation("phi", origin, None)
        if rule == "gep":
            base = origin.instr.base
            if isinstance(base, Temp):
                for base_obj in self.value_pts(base):
                    derived = derive_field(base_obj, origin.instr.field_index)
                    if derived.id == obj.id:
                        return Derivation("gep", origin,
                                          top_fact(base.id, base_obj.id))
            return Derivation("gep", origin, None)
        if rule == "load":
            return self._derive_load(origin, obj)
        return Derivation(rule, origin, None)

    def _derive_load(self, node: StmtNode, obj: MemObject) -> Derivation:
        """Which incoming memory state handed *obj* to this load —
        checking the sparse (sequential) in-edges first, then the
        [THREAD-VF] edges, so a fact only explicable through thread
        interference is attributed to its thread-aware edge."""
        universe = self.universe
        mem_masks = self._mem_masks
        instr = node.instr
        containers = self.value_pts(instr.ptr) & \
            self.builder.mus.get(instr.id, universe.empty)
        for container in containers:
            for src in self.dug.mem_defs_of(node, container):
                # Thread-aware edges are among the defs too; defer them
                # to the second pass so they carry their annotation.
                if self.dug.is_thread_edge(src, container, node):
                    continue
                if universe.mask_contains(
                        mem_masks.get((src.uid, container.id), 0), obj):
                    return Derivation(
                        "load", node,
                        mem_fact(src.uid, container.id, obj.id))
        for container, src in self.dug.thread_in_edges(node):
            if universe.mask_contains(
                    mem_masks.get((src.uid, container.id), 0), obj):
                return Derivation(
                    "load", node,
                    mem_fact(src.uid, container.id, obj.id),
                    thread_edge=True,
                    edge=(src.uid, container.id, node.uid))
        return Derivation("load", node, None)

    def _record_mem(self, node: DUGNode, container: MemObject,
                    current_mask: int, vals_mask: int,
                    prov: Optional[Tuple]) -> None:
        rule, origin = prov if prov is not None else ("seed", node)
        assert self.provenance is not None
        for obj in self.universe.from_mask(vals_mask & ~current_mask):
            key = mem_fact(node.uid, container.id, obj.id)
            if key in self.provenance:
                continue
            derivation = self._derive_mem(rule, node, container, obj)
            self.provenance[key] = derivation
            self._emit_derive(key, derivation,
                              f"state({container.name})", obj)

    def _derive_mem(self, rule: str, node: DUGNode, container: MemObject,
                    obj: MemObject) -> Derivation:
        if rule in ("store-strong", "store-weak"):
            value = node.instr.value
            if isinstance(value, (Temp, Function)) and \
                    obj in self.value_pts(value):
                trigger = top_fact(value.id, obj.id) \
                    if isinstance(value, Temp) else None
                return Derivation(rule, node, trigger)
            # Weak update: the object survived from the incoming state.
        incoming = self._find_mem_trigger(node, container, obj)
        if incoming is not None:
            return Derivation(rule, node, incoming)
        if rule == "call-chi" and isinstance(node, CallChiNode) \
                and isinstance(node.site, Fork):
            # The abstract thread id written into the fork handle has
            # no def-use predecessor: it is a provenance root.
            return Derivation("fork-handle", node, None)
        return Derivation(rule, node, None)

    def _find_mem_trigger(self, node: DUGNode, container: MemObject,
                          obj: MemObject) -> Optional[Tuple]:
        universe = self.universe
        mem_masks = self._mem_masks
        for src in self.dug.mem_defs_of(node, container):
            if universe.mask_contains(
                    mem_masks.get((src.uid, container.id), 0), obj):
                return mem_fact(src.uid, container.id, obj.id)
        return None

    def _emit_derive(self, key: Tuple, derivation: Derivation,
                     subject: str, obj: MemObject) -> None:
        origin = derivation.origin
        line = None
        if isinstance(origin, StmtNode) and origin.instr.line:
            line = origin.instr.line
        self.tracer.emit(
            "derive", kind=key[0], fact=list(key), subject=subject,
            obj=obj.name, obj_id=obj.id, rule=derivation.rule,
            origin=repr(origin) if origin is not None else None,
            line=line,
            trigger=list(derivation.trigger) if derivation.trigger else None,
            thread_edge=derivation.thread_edge)

    # -- metrics ------------------------------------------------------------

    def points_to_entries(self) -> int:
        """A memory-consumption proxy: the total number of (program
        point, variable) -> target facts the solver materialised.

        Counted as bitmask popcounts over the interned sets, so the
        number matches the pre-interning ``Set[MemObject]`` counting
        and Table 2 stays comparable (the *storage* is shared, the
        *fact count* is not deduplicated).
        """
        total = sum(len(s) for s in self.pts_top.values())
        total += sum(len(s) for s in self.mem.values())
        return total

    def flush_obs(self, obs: Observer) -> None:
        obs.count("solver.iterations", self.iterations)
        # Strong/weak tallies count store *evaluations* (full
        # reclassifications plus weak delta folds), so re-visits of
        # the same store under new facts count again — a measure of
        # work done, not of distinct update sites.
        obs.count("solver.strong_updates", self.strong_updates)
        obs.count("solver.weak_updates", self.weak_updates)
        obs.count("solver.node_revisits",
                  max(0, self.iterations - len(self._visited)))
        obs.count("solver.delta_propagations", self.delta_propagations)
        obs.count("solver.seeded_nodes", self.seeded_nodes)
        obs.gauge("solver.sccs", self.scc_count)
        obs.gauge("solver.dug_nodes", len(self.dug.nodes))
        obs.gauge("solver.points_to_entries", self.points_to_entries())
        if self.provenance is not None:
            obs.gauge("trace.provenance_facts", len(self.provenance))
        self.universe.flush_obs(obs)


def store_update_classes(solver) -> Dict[Tuple[int, int], str]:
    """Final strong/weak classification per (store instruction id,
    object id), derived from the solver's fixpoint state.

    Works for any engine exposing ``module``/``value_pts``/``builder``
    (the production :class:`SparseSolver` and the
    :class:`~repro.fsam.reference.ReferenceSolver`), so differential
    tests can assert the engines agree on every [P-SU]/[P-WU]
    decision, not just on the points-to sets.
    """
    classes: Dict[Tuple[int, int], str] = {}
    builder = solver.builder
    for fn in solver.module.functions.values():
        for instr in fn.instructions():
            if not isinstance(instr, Store):
                continue
            targets = solver.value_pts(instr.ptr)
            for obj in builder.chis.get(instr.id, ()):
                if not targets:
                    cls = KILL
                elif obj not in targets:
                    cls = PASS
                elif len(targets) == 1 and obj.is_singleton:
                    cls = STRONG
                else:
                    cls = WEAK
                classes[(instr.id, obj.id)] = cls
    return classes
