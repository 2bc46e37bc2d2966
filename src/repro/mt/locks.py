"""Lock analysis (paper Section 3.3.3, Definitions 3-6).

Takes the lock-release spans each thread's state graph traced while it
was built (flow- and context-sensitively, with the copies of sync-free
callees attached to every span open at their call sites), derives
per-object span heads and tails from the def-use graph, and decides
which MHP aliased pairs are non-interference lock pairs — those
[THREAD-VF] edges are spurious and get filtered (Figure 9's
s2 -o-> s4).

A head or tail is computed when it is first asked for, and the
value-flow phase asks while it inserts [THREAD-VF] edges. So it reads
the thread-oblivious edges plus the thread edges admitted before that
first query, and depends on the order in which value flow admits
pairs. Computing every head and tail on the thread-oblivious graph
alone changes some answers; ROADMAP.md keeps that as an open item.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.andersen import AndersenResult
from repro.ir.instructions import Instruction, Load, Store
from repro.ir.values import MemObject
from repro.memssa.builder import MemorySSABuilder
from repro.memssa.dug import DUG, StmtNode
from repro.mt.mhp import MHPOracle
from repro.mt.threads import AbstractThread, ThreadModel
from repro.obs import Observer
from repro.trace import NULL_TRACER, Tracer


class LockSpan:
    """A lock-release span: the context-sensitive statements between a
    lock acquisition and its matching releases (Definition 3)."""

    def __init__(self, thread: AbstractThread, lock_obj: MemObject,
                 lock_sid: int, members: Set[int],
                 member_instrs: Set[int]) -> None:
        self.thread = thread
        self.lock_obj = lock_obj
        self.lock_sid = lock_sid
        self.members = members              # state ids in the thread graph
        self.member_instrs = member_instrs  # instruction ids
        self._heads: Dict[int, Set[int]] = {}  # obj.id -> instr ids
        self._tails: Dict[int, Set[int]] = {}

    def __repr__(self) -> str:
        return (f"<span lock={self.lock_obj.name} thread=t{self.thread.id} "
                f"|members|={len(self.members)}>")


class LockAnalysis:
    """Builds all spans and answers non-interference queries."""

    def __init__(self, model: ThreadModel, andersen: AndersenResult,
                 dug: DUG, builder: MemorySSABuilder,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.model = model
        self.andersen = andersen
        self.dug = dug
        self.builder = builder
        self.tracer = tracer
        self.spans: List[LockSpan] = []
        # (thread id, sid) -> span indices covering that state.
        self._spans_by_state: Dict[Tuple[int, int], List[int]] = {}
        # Tallies flushed to the observer at end of run (repro.obs).
        self.head_cache_hits = 0
        self.head_computed = 0
        self.tail_cache_hits = 0
        self.tail_computed = 0
        self.filter_queries = 0
        self._build()

    # -- span construction ------------------------------------------------

    def _build(self) -> None:
        for thread in self.model.threads:
            graph = self.model.state_graphs[thread.id]
            for lock_sid, (lock_obj, members) in graph.spans.items():
                instrs = set()
                for sid in members:
                    instr = graph.instr_of(sid)
                    if instr is not None:
                        instrs.add(instr.id)
                span = LockSpan(thread, lock_obj, lock_sid, members, instrs)
                index = len(self.spans)
                self.spans.append(span)
                for member in members:
                    self._spans_by_state.setdefault((thread.id, member), []).append(index)
                if self.tracer.enabled:
                    self.tracer.emit(
                        "lock.span", lock=lock_obj.name, thread=thread.id,
                        acquire_line=graph.instr_of(lock_sid).line,
                        states=len(members), instrs=len(instrs))

    # -- span heads and tails ------------------------------------------------

    def _accesses_on(self, span: LockSpan, obj: MemObject) -> Tuple[Set[int], Set[int]]:
        """(all accesses, stores) on *obj* among the span's statements."""
        accesses: Set[int] = set()
        stores: Set[int] = set()
        for instr_id in span.member_instrs:
            if obj in self.builder.chis.get(instr_id, ()):  # store-like
                instr = self.model._instr_by_id.get(instr_id)
                if isinstance(instr, Store):
                    accesses.add(instr_id)
                    stores.add(instr_id)
            if obj in self.builder.mus.get(instr_id, ()):
                instr = self.model._instr_by_id.get(instr_id)
                if isinstance(instr, Load):
                    accesses.add(instr_id)
        return accesses, stores

    def span_head(self, span: LockSpan, obj: MemObject) -> Set[int]:
        """HD(span, o) — Definition 4: accesses of o with no def-use
        predecessor on o inside the span."""
        cached = span._heads.get(obj.id)
        if cached is not None:
            self.head_cache_hits += 1
            return cached
        self.head_computed += 1
        accesses, _stores = self._accesses_on(span, obj)
        head: Set[int] = set()
        for instr_id in accesses:
            instr = self.model._instr_by_id[instr_id]
            node = self.dug.stmt_node(instr)
            preceded = False
            for src in self.dug.mem_defs_of(node, obj):
                if isinstance(src, StmtNode) and src.instr.id in span.member_instrs \
                        and src.instr.id != instr_id:
                    preceded = True
                    break
            if not preceded:
                head.add(instr_id)
        span._heads[obj.id] = head
        if self.tracer.enabled:
            self.tracer.emit("lock.head", lock=span.lock_obj.name,
                             thread=span.thread.id, obj=obj.name,
                             lines=self._lines_of(head))
        return head

    def span_tail(self, span: LockSpan, obj: MemObject) -> Set[int]:
        """TL(span, o) — Definition 5: stores of o with no store
        successor on o inside the span."""
        cached = span._tails.get(obj.id)
        if cached is not None:
            self.tail_cache_hits += 1
            return cached
        self.tail_computed += 1
        _accesses, stores = self._accesses_on(span, obj)
        tail: Set[int] = set()
        for instr_id in stores:
            instr = self.model._instr_by_id[instr_id]
            node = self.dug.stmt_node(instr)
            overwritten = False
            for dst in self.dug.mem_uses_of(node, obj):
                if isinstance(dst, StmtNode) and isinstance(dst.instr, Store) \
                        and dst.instr.id in span.member_instrs and dst.instr.id != instr_id:
                    overwritten = True
                    break
            if not overwritten:
                tail.add(instr_id)
        span._tails[obj.id] = tail
        if self.tracer.enabled:
            self.tracer.emit("lock.tail", lock=span.lock_obj.name,
                             thread=span.thread.id, obj=obj.name,
                             lines=self._lines_of(tail))
        return tail

    def _lines_of(self, instr_ids: Set[int]) -> List[int]:
        lines = []
        for instr_id in instr_ids:
            instr = self.model._instr_by_id.get(instr_id)
            if instr is not None and instr.line:
                lines.append(instr.line)
        return sorted(lines)

    # -- non-interference filtering ---------------------------------------------

    def _spans_of(self, tid: int, sid: int) -> List[LockSpan]:
        return [self.spans[i] for i in self._spans_by_state.get((tid, sid), [])]

    def _instance_non_interfering(self, inst1, inst2, store: Store,
                                  target: Instruction, obj: MemObject) -> bool:
        """Definition 6 for one MHP instance pair: both protected by a
        common lock and the store is not a span tail or the target not
        a span head."""
        t1, sid1 = inst1
        t2, sid2 = inst2
        spans1 = self._spans_of(t1, sid1)
        spans2 = self._spans_of(t2, sid2)
        protected = False
        for sp1 in spans1:
            for sp2 in spans2:
                if sp1.lock_obj.id != sp2.lock_obj.id:
                    continue
                protected = True
                tail = self.span_tail(sp1, obj)
                head = self.span_head(sp2, obj)
                if store.id in tail and target.id in head:
                    return False  # this value flow is real
        return protected

    def commonly_protected(self, inst1, inst2) -> bool:
        """True when both context-sensitive statement instances sit in
        spans of one common lock (used by race-detection clients)."""
        t1, sid1 = inst1
        t2, sid2 = inst2
        for sp1 in self._spans_of(t1, sid1):
            for sp2 in self._spans_of(t2, sid2):
                if sp1.lock_obj.id == sp2.lock_obj.id:
                    return True
        return False

    def filters(self, store: Store, target: Instruction, obj: MemObject,
                mhp: MHPOracle) -> bool:
        """True when the would-be [THREAD-VF] edge store -obj-> target
        is spurious under lock protection for *every* MHP instance."""
        self.filter_queries += 1
        any_pair = False
        for inst1, inst2 in mhp.parallel_instance_pairs(store, target):
            any_pair = True
            if not self._instance_non_interfering(inst1, inst2, store, target, obj):
                return False
        return any_pair

    def filter_witness(self, store: Store, target: Instruction,
                       obj: MemObject, mhp: MHPOracle) -> Optional[MemObject]:
        """The lock object whose spans protect the pair — the witness
        cited by ``vf.pair`` lock-filtered trace events. Only
        meaningful right after :meth:`filters` returned True (every
        instance is then known non-interfering, so the first common
        lock found is a genuine protector)."""
        for inst1, inst2 in mhp.parallel_instance_pairs(store, target):
            for sp1 in self._spans_of(*inst1):
                for sp2 in self._spans_of(*inst2):
                    if sp1.lock_obj.id == sp2.lock_obj.id:
                        return sp1.lock_obj
        return None

    # -- observability ---------------------------------------------------------

    def flush_obs(self, obs: Observer) -> None:
        obs.count("locks.spans_built", len(self.spans))
        obs.count("locks.head_cache_hits", self.head_cache_hits)
        obs.count("locks.head_computed", self.head_computed)
        obs.count("locks.tail_cache_hits", self.tail_cache_hits)
        obs.count("locks.tail_computed", self.tail_computed)
        obs.count("locks.filter_queries", self.filter_queries)
