"""The interleaving (may-happen-in-parallel) analysis — paper 3.3.1.

A forward data-flow problem per thread over its state graph,
computing I(t, c, s): the set of threads that may run concurrently
when thread t executes statement s under context c. A statement in a
sync-free callee has one state per copy of that callee (see
:class:`~repro.mt.threads.ThreadStateGraph`), whose I-set is the union
of the I-sets of the calling-context instances it stands for; MHP
verdicts are existential over instances, so the union answers them
exactly.

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
thread — or when they belong to the same multi-forked thread.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.graphs.dataflow import DataflowProblem, solve_forward
from repro.ir.instructions import Fork, Instruction
from repro.mt.threads import AbstractThread, ThreadModel
from repro.obs import NULL_OBS, Observer
from repro.trace import NULL_TRACER, Tracer


class MHPOracle:
    """The query interface the value-flow and lock phases consume."""

    def __init__(self) -> None:
        # Tallies flushed to the observer at end of run (repro.obs).
        self.pair_queries = 0
        self.pair_cache_hits = 0
        # (s1.id, s2.id) -> first MHP instance pair or None; shared by
        # may_happen_in_parallel and the admission-verdict path so a
        # witness found while answering the boolean query is never
        # recomputed by a second instance-pair enumeration.
        self._witness_cache: Dict[Tuple[int, int], Optional[Tuple]] = {}

    def may_happen_in_parallel(self, s1: Instruction, s2: Instruction) -> bool:
        raise NotImplementedError

    def parallel_instance_pairs(self, s1: Instruction, s2: Instruction):
        """Iterate MHP instance pairs ((t1, sid1), (t2, sid2))."""
        raise NotImplementedError

    def mhp_witness(self, s1: Instruction, s2: Instruction) -> Optional[Tuple]:
        """The first MHP instance pair for (s1, s2), or None — cached
        symmetrically (the reversed query returns the swapped pair)."""
        key = (s1.id, s2.id)
        if key in self._witness_cache:
            return self._witness_cache[key]
        pair = next(iter(self.parallel_instance_pairs(s1, s2)), None)
        self._witness_cache[key] = pair
        self._witness_cache[(s2.id, s1.id)] = \
            (pair[1], pair[0]) if pair is not None else None
        return pair

    def region_key(self, instr: Instruction):
        """A hashable interference-region key: two statements with
        equal keys receive identical MHP verdicts against *any* third
        statement, so batched clients (the value-flow phase) may query
        one representative per region pair. The base default is the
        statement's own identity — always sound, no batching."""
        return ("instr", instr.id)

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
        super().__init__()
        self.model = model
        self.tracer = tracer
        # thread id -> sid -> frozenset of concurrent thread ids.
        self.interleaving: Dict[int, Dict[int, FrozenSet[int]]] = {}
        self._pair_cache: Dict[Tuple[int, int], bool] = {}
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

            def transfer(sid: int, fact: FrozenSet[int]) -> FrozenSet[int]:
                add = spawn_adds.get(sid)
                if add:
                    fact = fact | add
                kill = kills.get(sid)
                if kill:
                    fact = fact - kill
                return fact

            problem = DataflowProblem(
                graph.graph,
                entry_fact=lambda sid: seed,
                bottom=lambda: frozenset(),
                transfer=transfer,
                meet=lambda a, b: a | b,
                equal=lambda a, b: a == b,
            )
            dstats: Dict[str, int] = {}
            self.interleaving[thread.id] = solve_forward(
                problem, [graph.entry_sid], stats=dstats)
            self.dataflow_iterations += dstats.get("iterations", 0)

    # -- queries ----------------------------------------------------------------

    def _instances(self, instr: Instruction) -> List[Tuple[AbstractThread, int]]:
        result = []
        for thread in self.model.threads:
            graph = self.model.state_graphs[thread.id]
            for sid in graph.states_of_instr(instr):
                result.append((thread, sid))
        return result

    def parallel_instance_pairs(self, s1: Instruction, s2: Instruction):
        inst1 = self._instances(s1)
        inst2 = self._instances(s2)
        for t1, sid1 in inst1:
            i1 = self.interleaving[t1.id].get(sid1, frozenset())
            for t2, sid2 in inst2:
                if t1 is t2:
                    if t1.multi_forked:
                        yield (t1, sid1), (t2, sid2)
                    continue
                if t2.id in i1 and t1.id in self.interleaving[t2.id].get(sid2, frozenset()):
                    yield (t1, sid1), (t2, sid2)

    def may_happen_in_parallel(self, s1: Instruction, s2: Instruction) -> bool:
        self.pair_queries += 1
        key = (s1.id, s2.id)
        cached = self._pair_cache.get(key)
        if cached is not None:
            self.pair_cache_hits += 1
            return cached
        # Route through mhp_witness so the witnessing instance pair is
        # cached for the admission-verdict path — the old code threw
        # it away and re-enumerated on every admitted edge.
        result = self.mhp_witness(s1, s2) is not None
        self._pair_cache[key] = result
        self._pair_cache[(s2.id, s1.id)] = result
        return result

    def region_key(self, instr: Instruction):
        """Instances collapsed to (thread, multi-forked, I-set)
        triples: the MHP verdict formula — same multi-forked thread,
        or mutual I-set membership — reads nothing else about the
        statement, so equal keys guarantee equal verdicts. (An
        instance in a copy of a sync-free callee carries the union of
        its call sites' I-sets, which keeps that guarantee.)"""
        entries = []
        for thread, sid in self._instances(instr):
            iset = self.interleaving[thread.id].get(sid, frozenset())
            entries.append((thread.id, thread.multi_forked, iset))
        return frozenset(entries)

    def flush_obs(self, obs: Observer) -> None:
        super().flush_obs(obs)
        obs.count("mhp.dataflow_iterations", self.dataflow_iterations)
        obs.gauge("mhp.threads", len(self.model.threads))


class CoarsePCGMhp(MHPOracle):
    """The No-Interleaving fallback (paper Section 4.3): a
    procedure-level MHP in the spirit of PCG — it knows which thread
    may execute which procedure but performs no flow-sensitive join or
    happens-before reasoning, so any two statements executed by
    distinct threads (or by one multi-forked thread) are deemed
    parallel."""

    def __init__(self, model: ThreadModel) -> None:
        super().__init__()
        self.model = model
        self._pair_cache: Dict[Tuple[int, int], bool] = {}

    def _threads_of(self, instr: Instruction) -> List[AbstractThread]:
        result = []
        for thread in self.model.threads:
            graph = self.model.state_graphs[thread.id]
            if graph.states_of_instr(instr):
                result.append(thread)
        return result

    def may_happen_in_parallel(self, s1: Instruction, s2: Instruction) -> bool:
        self.pair_queries += 1
        key = (s1.id, s2.id)
        cached = self._pair_cache.get(key)
        if cached is not None:
            self.pair_cache_hits += 1
            return cached
        result = False
        for t1 in self._threads_of(s1):
            for t2 in self._threads_of(s2):
                if t1 is t2:
                    if t1.multi_forked:
                        result = True
                        break
                else:
                    result = True
                    break
            if result:
                break
        self._pair_cache[key] = result
        self._pair_cache[(s2.id, s1.id)] = result
        return result

    def parallel_instance_pairs(self, s1: Instruction, s2: Instruction):
        for t1 in self.model.threads:
            g1 = self.model.state_graphs[t1.id]
            for sid1 in g1.states_of_instr(s1):
                for t2 in self.model.threads:
                    g2 = self.model.state_graphs[t2.id]
                    for sid2 in g2.states_of_instr(s2):
                        if t1 is t2 and not t1.multi_forked:
                            continue
                        yield (t1, sid1), (t2, sid2)

    def region_key(self, instr: Instruction):
        """This oracle's verdict reads only which threads may execute
        the statement (plus their multi-forked flags), so that set is
        the region key."""
        return frozenset(
            (t.id, t.multi_forked) for t in self._threads_of(instr))
