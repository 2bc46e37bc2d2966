"""The interleaving (may-happen-in-parallel) analysis — paper 3.3.1.

A forward data-flow problem per thread over its state graph,
computing I(t, c, s): the set of threads that may run concurrently
when thread t executes statement s under context c. It runs
:func:`~repro.graphs.dense.forward_facts` over the graph's int tables;
each thread's I-sets are a list indexed by sid, where every state whose
fact its predecessor's transfer left unchanged holds that same
frozenset, so a thread keeps a handful of distinct I-set objects.

A statement in a sync-free callee has one state per copy of that
callee (see :class:`~repro.mt.threads.ThreadStateGraph`), whose I-set
is the union of the I-sets of the calling-context instances it stands
for; MHP verdicts are existential over instances, so the union answers
them exactly.

Rule correspondence (Figure 7):

- [I-DESCENDANT] — the transfer at a fork state adds the spawned
  thread and all of its (transitive) descendants; the spawnee's entry
  seed contains all of its ancestors.
- [I-SIBLING]    — the entry seed of each thread also contains every
  sibling not ordered by happens-before (either way).
- [I-JOIN]       — the transfer at a join state (or at a symmetric
  join loop's exits) removes the certainly-joined closure.
- [I-INTRA]/[I-CALL]/[I-RET] — the state graph's edges already match
  calls and returns context-sensitively (a call to a sync-free callee
  steps straight to its return site, since the callee cannot change
  the fact), so plain forward propagation over it realises all three.

Two statements are MHP when each one's I-set contains the other's
thread — or when they belong to the same multi-forked thread. Both
oracles answer every query with that one rule, over the thread
model's (thread id, sid) instances of each statement
(:meth:`~repro.mt.threads.ThreadModel.instances_of`); they differ only
in how they fill the I-set table. The No-Interleaving fallback
(:class:`CoarsePCGMhp`) gives every state of a thread the set of every
other thread.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.graphs.dense import forward_facts
from repro.ir.instructions import Instruction
from repro.mt.threads import AbstractThread, ThreadModel
from repro.obs import Observer
from repro.trace import NULL_TRACER, Tracer

_EMPTY: FrozenSet[int] = frozenset()

#: An instance of a statement: (thread id, sid).
Instance = Tuple[int, int]


class MHPOracle:
    """The query interface the value-flow and lock phases consume,
    answered from a table of I-sets per (thread id, sid) that a
    subclass fills: ``interleaving[tid][sid]`` is the frozenset of
    thread ids that may run concurrently with that state."""

    def __init__(self, model: ThreadModel) -> None:
        self.model = model
        self.interleaving: Dict[int, List[Optional[FrozenSet[int]]]] = {}
        self._multi_forked = {t.id: t.multi_forked for t in model.threads}
        # Tallies flushed to the observer at end of run (repro.obs).
        self.pair_queries = 0
        self.pair_cache_hits = 0
        # (s1.id, s2.id) -> first MHP instance pair or None, stored
        # both ways round: it answers may_happen_in_parallel and gives
        # the admission-verdict path its witness, so no pair is
        # enumerated twice.
        self._witness_cache: Dict[Tuple[int, int],
                                  Optional[Tuple[Instance, Instance]]] = {}

    def parallel_instance_pairs(self, s1: Instruction, s2: Instruction
                                ) -> Iterator[Tuple[Instance, Instance]]:
        """Iterate MHP instance pairs ((t1, sid1), (t2, sid2))."""
        isets, multi = self.interleaving, self._multi_forked
        others = self.model.instances_of(s2)
        for inst1 in self.model.instances_of(s1):
            t1, sid1 = inst1
            i1 = isets[t1][sid1] or _EMPTY
            for inst2 in others:
                t2, sid2 = inst2
                if t1 == t2:
                    if multi[t1]:
                        yield inst1, inst2
                elif t2 in i1 and t1 in (isets[t2][sid2] or _EMPTY):
                    yield inst1, inst2

    def mhp_witness(self, s1: Instruction, s2: Instruction
                    ) -> Optional[Tuple[Instance, Instance]]:
        """The first MHP instance pair for (s1, s2), or None — cached
        symmetrically (the reversed query returns the swapped pair)."""
        key = (s1.id, s2.id)
        if key in self._witness_cache:
            return self._witness_cache[key]
        pair = next(self.parallel_instance_pairs(s1, s2), None)
        self._witness_cache[key] = pair
        self._witness_cache[(s2.id, s1.id)] = \
            (pair[1], pair[0]) if pair is not None else None
        return pair

    def may_happen_in_parallel(self, s1: Instruction, s2: Instruction) -> bool:
        self.pair_queries += 1
        if (s1.id, s2.id) in self._witness_cache:
            self.pair_cache_hits += 1
        return self.mhp_witness(s1, s2) is not None

    def region_key(self, instr: Instruction) -> FrozenSet:
        """A hashable interference-region key: two statements with
        equal keys receive identical MHP verdicts against *any* third
        statement, so batched clients (the value-flow phase) may query
        one representative per region pair. Instances collapse to
        (thread, multi-forked, I-set) triples: the MHP rule reads
        nothing else about a statement. (An instance in a copy of a
        sync-free callee carries the union of its call sites' I-sets,
        which keeps that guarantee.)"""
        return frozenset(
            (tid, self._multi_forked[tid],
             self.interleaving[tid][sid] or _EMPTY)
            for tid, sid in self.model.instances_of(instr))

    def flush_obs(self, obs: Observer) -> None:
        obs.count("mhp.pair_queries", self.pair_queries)
        obs.count("mhp.pair_cache_hits", self.pair_cache_hits)


class InterleavingAnalysis(MHPOracle):
    """FSAM's flow- and context-sensitive interleaving analysis.

    With an enabled tracer, the per-thread classifications behind the
    I-sets are emitted as events: ``mhp.seed`` (the [I-DESCENDANT]
    ancestors and [I-SIBLING] unordered siblings seeding each thread's
    entry), ``mhp.spawn`` (threads a fork state adds), and
    ``mhp.kill`` (the certainly-joined closure an [I-JOIN] state
    removes)."""

    def __init__(self, model: ThreadModel,
                 tracer: Tracer = NULL_TRACER) -> None:
        super().__init__(model)
        self.tracer = tracer
        self.dataflow_iterations = 0
        self._compute()

    # -- seeds ----------------------------------------------------------------

    def _entry_seed(self, thread: AbstractThread) -> FrozenSet[int]:
        seed: Set[int] = set()
        # [I-DESCENDANT]: every (transitive) spawner may still be running.
        seed.update(t.id for t in thread.ancestors())
        # [I-SIBLING]: unordered siblings may overlap.
        for other in self.model.threads:
            if self.model.siblings(thread, other):
                if not self.model.happens_before(thread, other) and \
                        not self.model.happens_before(other, thread):
                    seed.add(other.id)
        return frozenset(seed)

    # -- data-flow --------------------------------------------------------------

    def _compute(self) -> None:
        tracing = self.tracer.enabled
        for thread in self.model.threads:
            graph = self.model.state_graphs[thread.id]
            kills = self.model.kills_at.get(thread.id, {})
            seed = self._entry_seed(thread)
            if tracing:
                ancestors = {t.id for t in thread.ancestors()}
                self.tracer.emit(
                    "mhp.seed", thread=thread.id,
                    ancestors=sorted(ancestors),
                    siblings=sorted(set(seed) - ancestors))

            spawn_adds: Dict[int, FrozenSet[int]] = {}
            for sid, fork in graph.fork_states():
                ctx, _node = graph.state(sid)
                added: Set[int] = set()
                for child in self.model.spawned_at(thread, ctx, fork):
                    added.add(child.id)
                    added.update(t.id for t in child.descendants())
                if added:
                    spawn_adds[sid] = frozenset(added)
            if tracing:
                for sid, added_ids in sorted(spawn_adds.items()):
                    self.tracer.emit("mhp.spawn", thread=thread.id, sid=sid,
                                     spawned=sorted(added_ids))
                for sid, killed in sorted(kills.items()):
                    self.tracer.emit("mhp.kill", thread=thread.id, sid=sid,
                                     joined=sorted(killed))

            # A fork state adds its spawnees, then a join state removes
            # what it certainly joined; paths meet by union.
            facts, iterations = forward_facts(
                graph.graph, {graph.entry_sid: seed}, gen=spawn_adds,
                kill=kills, union=True)
            self.interleaving[thread.id] = facts
            self.dataflow_iterations += iterations

    def flush_obs(self, obs: Observer) -> None:
        super().flush_obs(obs)
        obs.count("mhp.dataflow_iterations", self.dataflow_iterations)
        obs.gauge("mhp.threads", len(self.model.threads))


class CoarsePCGMhp(MHPOracle):
    """The No-Interleaving fallback (paper Section 4.3): a
    procedure-level MHP in the spirit of PCG — it knows which thread
    may execute which procedure but performs no flow-sensitive join or
    happens-before reasoning. Every state of a thread gets one shared
    I-set, every other thread, so any two statements executed by
    distinct threads (or by one multi-forked thread) are deemed
    parallel."""

    def __init__(self, model: ThreadModel) -> None:
        super().__init__(model)
        everyone = frozenset(t.id for t in model.threads)
        for thread in model.threads:
            others = everyone - {thread.id}
            self.interleaving[thread.id] = \
                [others] * len(model.state_graphs[thread.id])
