"""Value-flow analysis: thread-aware def-use edges ([THREAD-VF]).

For every MHP store-load or store-store pair whose pointers share a
pointed-to object o (the aliased pairs of Figure 2), add a def-use
edge  store --o--> target  to the DUG, unless the lock analysis can
prove the pair a non-interference lock pair.

The stores participating in such interference are recorded on the
DUG: the sparse solver demotes their strong updates on the contested
object (a concurrent reader may observe the pre-store value).

MHP queries are issued per *interference region pair*, not per
statement pair: statements are grouped by the oracle's
:meth:`~repro.mt.mhp.MHPOracle.region_key` (equal keys guarantee
identical verdicts against anything), one representative pair per
region pair hits the oracle, and the verdict settles every pair in
the cross product. ``valueflow.mhp_cache_hits`` counts the pairs
decided without a fresh oracle query. The reported statistics are
unchanged by batching: candidate/mhp/lock/edge counts are per
statement pair exactly as if each had been queried individually.

With an enabled :class:`~repro.trace.Tracer`, every candidate pair's
verdict is emitted as a ``vf.pair`` event — ``mhp-refuted``,
``lock-filtered`` (with the witnessing lock), or ``edge-added`` (with
the MHP witness threads) — and admission verdicts for added edges are
recorded on the DUG for ``repro explain`` to cite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import Instruction, Load, Store
from repro.ir.values import MemObject
from repro.memssa.builder import MemorySSABuilder
from repro.memssa.dug import DUG
from repro.mt.locks import LockAnalysis
from repro.mt.mhp import MHPOracle
from repro.obs import NULL_OBS, Observer
from repro.trace import NULL_TRACER, Tracer


def _index_accesses(builder: MemorySSABuilder):
    """Per-object store and access (store|load) instruction lists."""
    stores_on: Dict[int, List[Store]] = {}
    accesses_on: Dict[int, List[Instruction]] = {}
    objects: Dict[int, MemObject] = {}
    module = builder.module
    for fn in module.functions.values():
        for instr in fn.instructions():
            if isinstance(instr, Store):
                for obj in builder.chis.get(instr.id, ()):
                    objects[obj.id] = obj
                    stores_on.setdefault(obj.id, []).append(instr)
                    accesses_on.setdefault(obj.id, []).append(instr)
            elif isinstance(instr, Load):
                for obj in builder.mus.get(instr.id, ()):
                    objects[obj.id] = obj
                    accesses_on.setdefault(obj.id, []).append(instr)
    return stores_on, accesses_on, objects


def _pair_fields(store: Store, target: Instruction,
                 obj: MemObject) -> Dict[str, object]:
    return {"store_id": store.id, "store_line": store.line,
            "target_id": target.id, "target_line": target.line,
            "obj": obj.name, "obj_id": obj.id}


def _admission_verdict(mhp: MHPOracle, locks: Optional[LockAnalysis],
                       store: Store, target: Instruction,
                       obj: MemObject) -> Dict[str, object]:
    """Why this [THREAD-VF] edge was admitted: the witnessing MHP
    instance pair plus the lock status that failed to filter it."""
    info = _pair_fields(store, target, obj)
    pair = mhp.mhp_witness(store, target)
    if pair is not None:
        (t1, _sid1), (t2, _sid2) = pair
        info["mhp"] = f"t{t1.id}||t{t2.id}"
        if locks is None:
            info["lock"] = "lock analysis off"
        elif locks.commonly_protected(pair[0], pair[1]):
            # Both sides hold a common lock, yet the pair survived
            # Definition 6: the store is a span tail and the target a
            # span head, so the value really crosses the lock.
            info["lock"] = "common lock, but span tail->head (real flow)"
        else:
            info["lock"] = "no common lock"
    return info


def add_thread_aware_edges(dug: DUG, builder: MemorySSABuilder, mhp: MHPOracle,
                           locks: Optional[LockAnalysis] = None,
                           alias_filtering: bool = True,
                           obs: Observer = NULL_OBS,
                           tracer: Tracer = NULL_TRACER) -> None:
    """Run [THREAD-VF]; the pair and edge tallies land in *obs* under
    ``valueflow.*``.

    ``alias_filtering=False`` is the No-Value-Flow ablation (paper
    Section 4.3): the ``o in AS(*p, *q)`` premise is disregarded, so
    every MHP store x access pair contributes edges for every object
    the store may write — exactly the spurious-edge blowup the paper
    measures.
    """
    stores_on, accesses_on, objects = _index_accesses(builder)
    tracing = tracer.enabled
    candidate_pairs = mhp_pairs = lock_filtered = edges_added = 0
    mhp_cache_hits = 0

    # Region keys per statement, computed once (the interleaving
    # oracle's key walks every instance of the statement).
    region_of: Dict[int, object] = {}

    def key_of(instr: Instruction):
        key = region_of.get(instr.id)
        if key is None:
            key = region_of[instr.id] = mhp.region_key(instr)
        return key

    # (store region, access region) -> MHP verdict, symmetric.
    region_verdicts: Dict[Tuple, bool] = {}

    def region_mhp(ks, ka, rep_store: Store, rep_target: Instruction,
                   npairs: int) -> bool:
        """One oracle query settles all *npairs* pairs in the region
        cross product; every pair beyond the representative (or all of
        them, on a memoised verdict) counts as a cache hit."""
        nonlocal mhp_cache_hits
        verdict = region_verdicts.get((ks, ka))
        if verdict is None:
            verdict = mhp.may_happen_in_parallel(rep_store, rep_target)
            region_verdicts[(ks, ka)] = verdict
            region_verdicts[(ka, ks)] = verdict
            mhp_cache_hits += npairs - 1
        else:
            mhp_cache_hits += npairs
        return verdict

    def admit(store: Store, target: Instruction, obj: MemObject,
              target_is_chi_store: bool) -> None:
        """Process one MHP pair: lock filtering, edge insertion,
        interference marking. The caller established the MHP verdict
        (directly or via its region)."""
        nonlocal mhp_pairs, lock_filtered, edges_added
        mhp_pairs += 1
        if locks is not None and locks.filters(store, target, obj, mhp):
            lock_filtered += 1
            if tracing:
                witness = locks.filter_witness(store, target, obj, mhp)
                tracer.emit("vf.pair", verdict="lock-filtered",
                            lock=witness.name if witness is not None else None,
                            **_pair_fields(store, target, obj))
            return
        src = dug.stmt_node(store)
        dst = dug.stmt_node(target)
        if dug.add_mem_edge(src, obj, dst, thread_aware=True):
            edges_added += 1
            if tracing:
                info = _admission_verdict(mhp, locks, store, target, obj)
                dug.set_thread_edge_info(src, obj, dst, info)
                tracer.emit("vf.pair", verdict="edge-added", **info)
        dug.mark_interfering(src, obj)
        if target_is_chi_store:
            dug.mark_interfering(dst, obj)

    if alias_filtering:
        for obj_id, stores in stores_on.items():
            obj = objects[obj_id]
            accesses = accesses_on.get(obj_id, [])
            sgroups: Dict[object, List[Store]] = {}
            for store in stores:
                sgroups.setdefault(key_of(store), []).append(store)
            agroups: Dict[object, List[Instruction]] = {}
            for access in accesses:
                agroups.setdefault(key_of(access), []).append(access)
            for ks, sgroup in sgroups.items():
                for ka, agroup in agroups.items():
                    # Self-pairs (target is store) are skipped; when
                    # the regions coincide every store of sgroup also
                    # sits in agroup (stores are accesses on obj), so
                    # the cross product loses exactly len(sgroup).
                    npairs = len(sgroup) * len(agroup) - \
                        (len(sgroup) if ks == ka else 0)
                    if npairs <= 0:
                        continue
                    candidate_pairs += npairs
                    rep_store = sgroup[0]
                    rep_target = next(
                        a for a in agroup if a is not rep_store)
                    if not region_mhp(ks, ka, rep_store, rep_target, npairs):
                        if tracing:
                            # Keep the per-pair event stream complete:
                            # trace consumers reconcile vf.pair events
                            # against candidate_pairs.
                            for store in sgroup:
                                for target in agroup:
                                    if target is store:
                                        continue
                                    tracer.emit(
                                        "vf.pair", verdict="mhp-refuted",
                                        **_pair_fields(store, target, obj))
                        continue
                    for store in sgroup:
                        for target in agroup:
                            if target is store:
                                continue
                            # A Store lands in accesses_on[obj] only
                            # via its chi on obj, so the chi lookup
                            # the old inner loop repeated is free.
                            admit(store, target, obj,
                                  isinstance(target, Store))
    else:
        all_stores = sorted({s.id: s for ss in stores_on.values() for s in ss}.values(),
                            key=lambda s: s.id)
        all_accesses = sorted({a.id: a for aa in accesses_on.values() for a in aa}.values(),
                              key=lambda a: a.id)
        for store in all_stores:
            ks = key_of(store)
            store_objs = list(builder.chis.get(store.id, ()))
            if not store_objs:
                continue
            nobjs = len(store_objs)
            for target in all_accesses:
                if target is store:
                    continue
                candidate_pairs += nobjs
                if not region_mhp(ks, key_of(target), store, target, nobjs):
                    if tracing:
                        for obj in store_objs:
                            tracer.emit("vf.pair", verdict="mhp-refuted",
                                        **_pair_fields(store, target, obj))
                    continue
                target_chis = builder.chis.get(target.id, ()) \
                    if isinstance(target, Store) else ()
                for obj in store_objs:
                    admit(store, target, obj, obj in target_chis)
    obs.count("valueflow.candidate_pairs", candidate_pairs)
    obs.count("valueflow.mhp_pairs", mhp_pairs)
    obs.count("valueflow.lock_filtered", lock_filtered)
    obs.count("valueflow.edges_added", edges_added)
    obs.count("valueflow.mhp_cache_hits", mhp_cache_hits)
