"""The sparse def-use graph (DUG).

Nodes are program statements plus the memory-SSA pseudo-statements
(memory phis, formal-in/out, callsite chi). A callsite mu is no node:
the def reaching the call links straight to the callees' formal-ins.
Edges are labelled by the value that flows: a Temp for top-level
def-use, or a MemObject for address-taken def-use. The sparse
flow-sensitive solver propagates points-to facts only along these
edges, exactly as in the paper's Figure 4(c).

Node uids are positions in :attr:`DUG.nodes`, local to one graph, and
memory edges are stored once, keyed by ``(node uid, obj.id)``; see
:class:`DUG`.
"""

from __future__ import annotations

from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.ir.instructions import Instruction
from repro.ir.module import BasicBlock
from repro.ir.values import Function, MemObject, Temp

Label = Union[Temp, MemObject]


class DUGNode:
    """Base class for DUG nodes.

    ``uid`` is the node's position in its graph's :attr:`DUG.nodes`,
    assigned by :meth:`DUG.add_node` (-1 until then). Ids are dense and
    local to one graph, so every per-node table can be a list indexed
    by uid, and the same program analysed twice numbers its nodes the
    same way. Nodes compare by identity (object's default, which keeps
    the edge lists' membership scans in C) and hash by uid."""

    __slots__ = ("uid",)

    def __init__(self) -> None:
        self.uid = -1

    def __hash__(self) -> int:
        return self.uid


class StmtNode(DUGNode):
    """A real program statement."""

    __slots__ = ("instr",)

    def __init__(self, instr: Instruction) -> None:
        super().__init__()
        self.instr = instr

    def __repr__(self) -> str:
        return f"[{self.instr!r}]"


class MemPhiNode(DUGNode):
    """phi(o) at a CFG confluence for an address-taken object."""

    __slots__ = ("block", "obj")

    def __init__(self, block: BasicBlock, obj: MemObject) -> None:
        super().__init__()
        self.block = block
        self.obj = obj

    def __repr__(self) -> str:
        return f"[memphi {self.obj.name} @ {self.block.label}]"


class FormalInNode(DUGNode):
    """The incoming memory state of *obj* at a function entry."""

    __slots__ = ("fn", "obj")

    def __init__(self, fn: Function, obj: MemObject) -> None:
        super().__init__()
        self.fn = fn
        self.obj = obj

    def __repr__(self) -> str:
        return f"[formal-in {self.obj.name} @ {self.fn.name}]"


class FormalOutNode(DUGNode):
    """The outgoing memory state of *obj* at a function exit."""

    __slots__ = ("fn", "obj")

    def __init__(self, fn: Function, obj: MemObject) -> None:
        super().__init__()
        self.fn = fn
        self.obj = obj

    def __repr__(self) -> str:
        return f"[formal-out {self.obj.name} @ {self.fn.name}]"


class CallChiNode(DUGNode):
    """chi(o) at a call/fork/join site: the merge of the old memory
    state with callee (or joined-thread) side effects."""

    __slots__ = ("site", "obj")

    def __init__(self, site: Instruction, obj: MemObject) -> None:
        super().__init__()
        self.site = site
        self.obj = obj

    def __repr__(self) -> str:
        return f"[chi {self.obj.name} @ {self.site!r}]"


def node_function(node: DUGNode) -> Function:
    """The function a DUG node belongs to. Every node kind anchors to
    one: statements via their block, memory phis via theirs, formal
    in/out nodes directly, callsite chi nodes via the call site's
    block. Incremental analysis partitions the graph by this."""
    instr = getattr(node, "instr", None)
    if instr is not None:
        return instr.block.function
    block = getattr(node, "block", None)
    if block is not None:
        return block.function
    fn = getattr(node, "fn", None)
    if fn is not None:
        return fn
    site = getattr(node, "site", None)
    if site is not None:
        return site.block.function
    raise TypeError(f"DUG node {node!r} has no owning function")


#: What the edge and label accessors return on a miss: shared and
#: immutable, so a miss allocates nothing.
_EMPTY: Tuple = ()


class DUG:
    """The def-use graph: nodes plus labelled edges, with the indexes
    the sparse solver needs (the defs and the users of each (node,
    object) memory state, per-temp top-level users).

    Memory edges are stored once, keyed by ``(node uid, obj.id)`` —
    the key the solvers' memory states use too: ``_defs[(dst, o)]``
    lists the sources of dst's o-edges, ``_uses[(src, o)]`` the
    destinations of src's o-edges, each in insertion order. Every
    consumer reads these two maps in place."""

    def __init__(self) -> None:
        self.nodes: List[DUGNode] = []
        self._stmt_nodes: Dict[int, StmtNode] = {}
        # Memory (address-taken) edges, [THREAD-VF] ones included.
        self._defs: Dict[Tuple[int, int], List[DUGNode]] = {}
        self._uses: Dict[Tuple[int, int], List[DUGNode]] = {}
        self._num_mem_edges = 0
        # The objects labelling a statement's memory edges, in first-
        # seen order. A pseudo-statement (phi, formal-in/out, chi)
        # is about one object, its ``obj``, and that is its only label.
        self._stmt_labels: Dict[int, List[MemObject]] = {}
        # Thread-aware edges added by the value-flow phase are tracked
        # separately so ablations and statistics can distinguish them.
        self.thread_edges: List[Tuple[DUGNode, MemObject, DUGNode]] = []
        self._thread_edge_keys: Set[Tuple[int, int, int]] = set()
        # Admission verdicts for thread-aware edges, recorded by the
        # value-flow phase when tracing is on: edge key -> a JSON-able
        # dict naming the MHP witness threads and the lock status that
        # let the edge through. `repro explain` surfaces these on
        # derivation chains that travel a [THREAD-VF] edge.
        self.thread_edge_info: Dict[Tuple[int, int, int], Dict[str, object]] = {}
        # Thread-aware in-edges per node, for the engines' blind
        # propagation along [THREAD-VF] edges into loads.
        self._thread_in: Dict[int, List[Tuple[MemObject, DUGNode]]] = {}
        # Top-level def-use: users of each temp.
        self._top_users: Dict[int, List[DUGNode]] = {}
        # Copy constraints from interprocedural top-level linking:
        # (source value, destination temp).
        self.top_copies: List[Tuple[object, Temp]] = []
        self._copies_by_src: Dict[int, List[Tuple[object, Temp]]] = {}
        self._copies_by_dst: Dict[int, List[Tuple[object, Temp]]] = {}
        # Scheduling-metadata memo. The graph is frozen once the
        # value-flow phase finishes, but solvers are constructed on it
        # repeatedly (differential runs, ablation sweeps, benchmark
        # samples), and the derived structures they need — topological
        # ranks, the solver's schedule, the query indexes — are pure
        # functions of the edge set. They live here under string keys
        # and are dropped wholesale on any graph mutation.
        self.schedule_cache: Dict[str, object] = {}

    # -- nodes --------------------------------------------------------------

    def add_node(self, node: DUGNode) -> DUGNode:
        """Append *node* and give it the next dense uid."""
        if node.uid != -1:
            raise ValueError(f"DUG node {node!r} already belongs to a graph")
        if self.schedule_cache:
            self.schedule_cache.clear()
        node.uid = len(self.nodes)
        self.nodes.append(node)
        if isinstance(node, StmtNode):
            self._stmt_nodes[node.instr.id] = node
        return node

    def stmt_node(self, instr: Instruction) -> StmtNode:
        return self._stmt_nodes[instr.id]

    def has_stmt(self, instr: Instruction) -> bool:
        return instr.id in self._stmt_nodes

    # -- memory edges --------------------------------------------------------

    def add_mem_edge(self, src: DUGNode, obj: MemObject, dst: DUGNode,
                     thread_aware: bool = False) -> bool:
        """Add src --obj--> dst; returns False if already present.

        Keys use ``obj.id`` (stable allocation-site id), not ``id(obj)``:
        CPython reuses object addresses after GC, which made
        id()-based keys nondeterministic."""
        obj_id = obj.id
        dst_key = (dst.uid, obj_id)
        src_key = (src.uid, obj_id)
        defs = self._defs.get(dst_key)
        if defs is not None and src in defs:
            return False
        uses = self._uses.get(src_key)
        # Both ends' labels are checked before anything is inserted.
        if defs is None:
            self._note_label(dst, obj)
        if uses is None:
            self._note_label(src, obj)
        if defs is None:
            self._defs[dst_key] = [src]
        else:
            defs.append(src)
        if uses is None:
            self._uses[src_key] = [dst]
        else:
            uses.append(dst)
        if self.schedule_cache:
            self.schedule_cache.clear()
        self._num_mem_edges += 1
        if thread_aware:
            self.thread_edges.append((src, obj, dst))
            self._thread_edge_keys.add((src.uid, obj_id, dst.uid))
            self._thread_in.setdefault(dst.uid, []).append((obj, src))
        return True

    def _note_label(self, node: DUGNode, obj: MemObject) -> None:
        own = getattr(node, "obj", None)
        if own is None:
            labels = self._stmt_labels.get(node.uid)
            if labels is None:
                self._stmt_labels[node.uid] = [obj]
            elif obj not in labels:
                labels.append(obj)
        elif own is not obj:
            raise ValueError(f"{node!r} carries only {own.name} edges, "
                             f"not {obj.name}")

    def mem_labels(self, node: DUGNode) -> Sequence[MemObject]:
        """The objects labelling *node*'s memory edges."""
        own = getattr(node, "obj", None)
        if own is not None:
            return (own,)
        return self._stmt_labels.get(node.uid, _EMPTY)

    def mem_out(self, node: DUGNode) -> Iterator[Tuple[MemObject, DUGNode]]:
        """The (obj, dst) out-edges of *node*, grouped by object."""
        uid = node.uid
        uses = self._uses
        for obj in self.mem_labels(node):
            for dst in uses.get((uid, obj.id), _EMPTY):
                yield obj, dst

    def mem_in(self, node: DUGNode) -> Dict[MemObject, List[DUGNode]]:
        """The in-edges of *node*: each label's reaching definitions."""
        uid = node.uid
        found: Dict[MemObject, List[DUGNode]] = {}
        for obj in self.mem_labels(node):
            defs = self._defs.get((uid, obj.id))
            if defs is not None:
                found[obj] = defs
        return found

    def mem_defs_of(self, node: DUGNode, obj: MemObject) -> Sequence[DUGNode]:
        """Definitions of *obj* reaching *node*."""
        return self._defs.get((node.uid, obj.id), _EMPTY)

    def mem_uses_of(self, node: DUGNode, obj: MemObject) -> Sequence[DUGNode]:
        """The nodes the *obj* state defined at *node* flows to."""
        return self._uses.get((node.uid, obj.id), _EMPTY)

    def num_mem_edges(self) -> int:
        return self._num_mem_edges

    def thread_in_edges(self, node: DUGNode) -> List[Tuple[MemObject, DUGNode]]:
        """Thread-aware (obj, src) in-edges of *node*."""
        return self._thread_in.get(node.uid, [])

    def is_thread_edge(self, src: DUGNode, obj: MemObject, dst: DUGNode) -> bool:
        return (src.uid, obj.id, dst.uid) in self._thread_edge_keys

    def set_thread_edge_info(self, src: DUGNode, obj: MemObject, dst: DUGNode,
                             info: Dict[str, object]) -> None:
        self.thread_edge_info[(src.uid, obj.id, dst.uid)] = info

    def thread_edge_verdict(self, src_uid: int, obj_id: int,
                            dst_uid: int) -> Optional[Dict[str, object]]:
        """The recorded admission verdict for a thread-aware edge, or
        None when value flow ran untraced."""
        return self.thread_edge_info.get((src_uid, obj_id, dst_uid))

    # -- top-level def-use ----------------------------------------------------

    def add_top_user(self, temp: Temp, node: DUGNode) -> None:
        if self.schedule_cache:
            self.schedule_cache.clear()
        self._top_users.setdefault(temp.id, []).append(node)

    def top_users(self, temp: Temp) -> List[DUGNode]:
        return self._top_users.get(temp.id, [])

    def add_top_copy(self, src, dst: Temp) -> None:
        """Record an interprocedural copy (call argument -> parameter,
        return value -> call result)."""
        if self.schedule_cache:
            self.schedule_cache.clear()
        pair = (src, dst)
        self.top_copies.append(pair)
        if isinstance(src, Temp):
            self._copies_by_src.setdefault(src.id, []).append(pair)
        self._copies_by_dst.setdefault(dst.id, []).append(pair)

    def copies_from(self, temp: Temp) -> List[Tuple[object, Temp]]:
        return self._copies_by_src.get(temp.id, [])

    def copies_into(self, temp: Temp) -> List[Tuple[object, Temp]]:
        """All interprocedural copies whose destination is *temp* —
        the solver's copy-chain worklist recomputes a destination's
        merge from these, so one pass per visit covers every source."""
        return self._copies_by_dst.get(temp.id, [])

    # -- scheduling metadata ---------------------------------------------------

    def compute_topo_ranks(self) -> Tuple[List[int], int]:
        """SCC-condensed topological priorities for the sparse solver.

        Builds the combined value-flow graph the solver propagates
        over — memory (o-labelled) edges including [THREAD-VF] ones,
        top-level def->use edges, and the interprocedural copy
        graph — condenses its SCCs, and returns ``(rank, scc_count)``:
        ``rank[uid]`` is the topological rank of node uid's SCC
        (sources first). Temps appear as intermediate vertices so
        multi-def temps and copy chains order correctly; they carry no
        rank of their own.

        Ranks are pure scheduling metadata: any order reaches the same
        fixpoint (transfer functions are union-monotone), ascending
        ranks just minimise revisits by draining upstream SCCs first.

        Memoized in :attr:`schedule_cache` (the dominant cost is the
        full-graph Tarjan pass): repeat solves on the same frozen
        graph pay it once.
        """
        cached = self.schedule_cache.get("topo_ranks")
        if cached is not None:
            return cached

        from repro.graphs.scc import topo_ranks

        succ, _temp_slot = self._dense_value_flow_graph()
        rank, scc_count = topo_ranks(succ)
        del rank[len(self.nodes):]  # the temps' ranks
        result = (rank, scc_count)
        self.schedule_cache["topo_ranks"] = result
        return result

    def _dense_value_flow_graph(self) -> Tuple[List[List[int]], Dict[int, int]]:
        """The combined value-flow graph in dense integer form:
        ``(succ, temp_slot)``.

        Node uids are the slots 0..n-1; temps get slots appended on
        first sight. Rank computation runs on every analysis, so this
        stays allocation-lean — flat int adjacency instead of a dict
        keyed by nodes and marker tuples. Memoized in
        :attr:`schedule_cache`: both the whole-program rank pass and
        every demand-driven slice ranking reuse one copy.
        """
        cached = self.schedule_cache.get("dense_vfg")
        if cached is not None:
            return cached

        nodes = self.nodes
        succ: List[List[int]] = [[] for _ in range(len(nodes))]
        temp_slot: Dict[int, int] = {}

        def tslot(temp_id: int) -> int:
            s = temp_slot.get(temp_id)
            if s is None:
                s = temp_slot[temp_id] = len(succ)
                succ.append([])
            return s

        for (uid, _obj_id), dsts in self._uses.items():
            succ[uid].extend([dst.uid for dst in dsts])
        for uid, node in enumerate(nodes):
            instr = getattr(node, "instr", None)
            if instr is not None:
                defined = instr.defined_temp()
                if isinstance(defined, Temp):
                    succ[uid].append(tslot(defined.id))
        for temp_id, users in self._top_users.items():
            succ[tslot(temp_id)].extend([user.uid for user in users])
        for src, dst in self.top_copies:
            if isinstance(src, Temp):
                succ[tslot(src.id)].append(tslot(dst.id))
            else:
                tslot(dst.id)
        result = (succ, temp_slot)
        self.schedule_cache["dense_vfg"] = result
        return result

    def compute_topo_ranks_slice(self, node_uids: Set[int],
                                 temp_ids: Set[int]
                                 ) -> Tuple[Dict[int, int], int]:
        """:meth:`compute_topo_ranks` restricted to a slice.

        Ranks only the subgraph induced by *node_uids* / *temp_ids*
        (a predecessor-closed :meth:`upstream_closure` slice); edges
        leaving the slice are ignored. Returns ``(rank_of_uid,
        scc_count)`` covering exactly the slice's nodes. The dense
        value-flow graph is shared with the whole-program pass; the
        slice is renumbered into a local dense graph, so a query pays
        only slice-proportional work on top of one memoized
        densification.
        """
        from repro.graphs.scc import topo_ranks

        succ, temp_slot = self._dense_value_flow_graph()
        slots = list(node_uids)
        for temp_id in temp_ids:
            slot = temp_slot.get(temp_id)
            if slot is not None:
                slots.append(slot)
        # Local numbering follows ascending slot order, the order a
        # whole-range scan would try roots in, and each successor list
        # keeps its order: ranks stay deterministic regardless of set
        # iteration order.
        slots.sort()
        local = dict(zip(slots, range(len(slots))))
        sub = [[local[s] for s in succ[slot] if s in local] for slot in slots]
        rank, scc_count = topo_ranks(sub)
        # Node uids are the slots below every temp slot, so they lead.
        return dict(zip(slots[:len(node_uids)], rank)), scc_count

    # -- incremental partitioning ----------------------------------------------

    def nodes_by_function(self) -> Dict[str, List[DUGNode]]:
        """Nodes grouped by owning function name, each group in
        creation (``nodes`` list) order. Memoized in
        :attr:`schedule_cache` like the other derived structures."""
        cached = self.schedule_cache.get("nodes_by_function")
        if cached is None:
            cached = {}
            for node in self.nodes:
                cached.setdefault(node_function(node).name, []).append(node)
            self.schedule_cache["nodes_by_function"] = cached
        return cached

    def downstream_closure(self, root_nodes: Iterable[DUGNode],
                           root_temp_ids: Iterable[int]
                           ) -> Tuple[Set[int], Set[int]]:
        """Everything the roots can influence in the combined
        value-flow graph: node uids and temp ids reachable from
        *root_nodes* / *root_temp_ids* over memory out-edges
        (including [THREAD-VF] ones), statement-to-defined-temp,
        temp-to-top-user, and the interprocedural copy graph.

        One closure rule beyond plain reachability: a reached temp
        pulls in **all** statement nodes defining it. Partial SSA
        leaves multi-def temps (phi operands, loop-carried loads), and
        an incremental re-solve that recomputes a temp from scratch
        must also re-run its other defs — a def left frozen would
        never fire and its contribution to the temp would be lost.

        Returns ``(downstream node uids, downstream temp ids)``; the
        complements are the frozen sets an incremental solve may
        preload from a previous fixpoint.
        """
        defs_of_temp = self._defs_of_temp()
        down_nodes: Set[int] = set()
        down_temps: Set[int] = set()
        node_work: List[DUGNode] = []
        temp_work: List[int] = []

        def touch_node(node: DUGNode) -> None:
            if node.uid not in down_nodes:
                down_nodes.add(node.uid)
                node_work.append(node)

        def touch_temp(temp_id: int) -> None:
            if temp_id not in down_temps:
                down_temps.add(temp_id)
                temp_work.append(temp_id)

        for node in root_nodes:
            touch_node(node)
        for temp_id in root_temp_ids:
            touch_temp(temp_id)

        while node_work or temp_work:
            while node_work:
                node = node_work.pop()
                for _obj, dst in self.mem_out(node):
                    touch_node(dst)
                instr = getattr(node, "instr", None)
                if instr is not None:
                    defined = instr.defined_temp()
                    if isinstance(defined, Temp):
                        touch_temp(defined.id)
            while temp_work:
                temp_id = temp_work.pop()
                for user in self._top_users.get(temp_id, ()):
                    touch_node(user)
                for _src, dst in self._copies_by_src.get(temp_id, ()):
                    touch_temp(dst.id)
                for def_node in defs_of_temp.get(temp_id, ()):
                    touch_node(def_node)
        return down_nodes, down_temps

    def _defs_of_temp(self) -> Dict[int, List[DUGNode]]:
        """Statement nodes grouped by the temp they define (partial
        SSA leaves multi-def temps). Memoized in
        :attr:`schedule_cache` alongside the other derived indexes."""
        cached = self.schedule_cache.get("defs_of_temp")
        if cached is None:
            cached = {}
            for node in self.nodes:
                instr = getattr(node, "instr", None)
                if instr is not None:
                    defined = instr.defined_temp()
                    if defined is not None:
                        cached.setdefault(defined.id, []).append(node)
            self.schedule_cache["defs_of_temp"] = cached
        return cached

    def _used_temps_of(self) -> Dict[int, List[int]]:
        """The inverse of :attr:`_top_users`: node uid -> the temp ids
        whose top-level value the node reads. Memoized; this is the
        backward edge set :meth:`upstream_closure` walks."""
        cached = self.schedule_cache.get("used_temps_of")
        if cached is None:
            cached = {}
            for temp_id, users in self._top_users.items():
                for user in users:
                    cached.setdefault(user.uid, []).append(temp_id)
            self.schedule_cache["used_temps_of"] = cached
        return cached

    def upstream_closure(self, root_nodes: Iterable[DUGNode],
                         root_temp_ids: Iterable[int]
                         ) -> Tuple[Set[int], Set[int]]:
        """Everything that can influence the roots: the transpose of
        :meth:`downstream_closure`, walked backwards over the same
        combined value-flow graph — memory in-edges (including
        [THREAD-VF] ones), top-user-to-temp, defined-temp-to-defining-
        statement, and the interprocedural copy graph against the
        flow direction.

        The result is predecessor-closed by construction: every value
        a slice member's transfer function reads (reaching memory
        defs of any object, used temps, all defs of a reached temp,
        Temp sources of copies into a reached temp) is itself in the
        slice. Running the fixpoint engine over the slice alone
        therefore reproduces the whole-program fixpoint bit-for-bit
        on slice members — the demand-driven solver's contract.

        Returns ``(upstream node uids, upstream temp ids)``.
        """
        defs_of_temp = self._defs_of_temp()
        used_temps_of = self._used_temps_of()

        up_nodes: Set[int] = set()
        up_temps: Set[int] = set()
        node_work: List[DUGNode] = []
        temp_work: List[int] = []

        def touch_node(node: DUGNode) -> None:
            if node.uid not in up_nodes:
                up_nodes.add(node.uid)
                node_work.append(node)

        def touch_temp(temp_id: int) -> None:
            if temp_id not in up_temps:
                up_temps.add(temp_id)
                temp_work.append(temp_id)

        for node in root_nodes:
            touch_node(node)
        for temp_id in root_temp_ids:
            touch_temp(temp_id)

        defs = self._defs
        while node_work or temp_work:
            while node_work:
                node = node_work.pop()
                uid = node.uid
                for obj in self.mem_labels(node):
                    for src in defs.get((uid, obj.id), _EMPTY):
                        touch_node(src)
                for temp_id in used_temps_of.get(node.uid, ()):
                    touch_temp(temp_id)
            while temp_work:
                temp_id = temp_work.pop()
                for def_node in defs_of_temp.get(temp_id, ()):
                    touch_node(def_node)
                for src, _dst in self._copies_by_dst.get(temp_id, ()):
                    if isinstance(src, Temp):
                        touch_temp(src.id)
        return up_nodes, up_temps
