"""Function-granular incremental analysis.

The artifact cache (PR 5) is all-or-nothing: a one-line edit misses
the whole-program digest and re-runs the entire pipeline. This module
adds the second digest level — per function — so a warm request whose
program digest misses can still reuse almost all of the previous
fixpoint and seed the delta solver only at the DUG nodes downstream
of what actually changed.

Two-level digest scheme
-----------------------

- **Level 1** (:func:`repro.service.requests.request_digest`): the
  whole program. A hit skips the run entirely (the artifact cache).
- **Level 2** (:func:`repro.service.requests.function_digest`): one
  function's canonical printed IR plus the ``(name, mod-ref
  signature)`` pairs of every routine its calls/forks/joins can
  reach. A hit means nothing that decides the function's *local*
  value flow has changed.

A level-2 hit alone is not enough to reuse states: a function's DUG
region is also wired to the rest of the program (formal-in nodes fed
by every caller, [THREAD-VF] edges admitted by the global MHP/lock
oracles, callsite mu/chi object sets from the global Andersen
solution). Each funcartifact therefore also records a
**context signature** over exactly those inputs, computed fresh in
the current run and compared with the stored one; only a function
whose digest *and* context signature both match is *validated*.

Downstream seeding rule
-----------------------

Validation is per function, but reuse is per node: the set ``D`` of
DUG nodes and temps transitively reachable (in the combined
value-flow graph) from any non-validated function's nodes/temps is
recomputed from scratch, and the *frozen* complement ``P`` is
preloaded from the stored fixpoints. ``P`` is predecessor-closed by
construction, and the context signatures make the subsystem over
``P`` isomorphic between runs, so the preloaded states are already
the new fixpoint there; :meth:`~repro.fsam.solver.SparseSolver.
solve_incremental` delivers every frozen state once across the
``P -> D`` boundary and iterates ``D`` to its least fixpoint. The
result is bit-identical to a cold solve.

Invalidation matrix (what re-solves after which edit): see the
"Incremental analysis" section of DESIGN.md.

Safety rails — each falls back to a plain cold solve (never a wrong
answer): tracing on or a non-delta engine (``FSAM`` never calls the
hook); ambiguous cross-run object keys; a frozen row referencing an
object the new run does not have; an empty frozen set.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

from repro.fsam.solver import IncrementalReuse
from repro.ir.instructions import AddrOf, Call, Fork, Join
from repro.ir.module import function_temps
from repro.ir.printer import print_function
from repro.ir.values import Function, MemObject, Temp, object_key
from repro.memssa.dug import (
    CallChiNode, DUGNode, FormalInNode, FormalOutNode, MemPhiNode,
    StmtNode,
)
from repro.pts import mask_to_hex
from repro.schemas import CODE_VERSION, FUNC_ARTIFACT_SCHEMA
from repro.service.digest import canonical_digest
from repro.service.requests import function_digest

#: An absolute source line embedded in an allocation-site name
#: (``malloc.l42``, ``tid.fork.l17``, ``malloc.l42.f1``).
_LINE_IN_NAME = re.compile(r"\.l(\d+)")

#: A temp reference in printed IR (``%t12``, ``%fn.arg0``,
#: ``%fn::x.phi0``).
_TEMP_IN_TEXT = re.compile(r"%([\w.:]+)")


class IncrementalPlan:
    """What the FSAM incremental hook returns: an optional
    :class:`~repro.fsam.solver.IncrementalReuse` for the solver, the
    run's incremental statistics (JSON-able, lands in the artifact
    summary), and a post-solve harvest that writes the fresh
    per-function fixpoints back to the store."""

    def __init__(self, reuse: Optional[IncrementalReuse],
                 stats: Dict[str, object], harvest) -> None:
        self.reuse = reuse
        self.stats = stats
        self._harvest = harvest

    def harvest(self, solver) -> None:
        self._harvest(solver)


def incremental_hook(request, funcstore):
    """The :class:`~repro.fsam.analysis.FSAM` hook for *request*
    against *funcstore* (a
    :class:`~repro.service.cache.FuncArtifactStore`)."""

    def hook(module, dug, builder, andersen, config):
        return build_plan(module, dug, builder, andersen, config, funcstore)

    return hook


def build_plan(module, dug, builder, andersen, config,
               funcstore) -> IncrementalPlan:
    """Consult the per-function store and build the run's plan.
    :class:`~repro.fsam.analysis.FSAM` consults the hook only for
    untraced runs of the delta engine: tracing records
    first-introduction provenance, which a preloaded state skips, and
    the reference engine lacks an incremental entry point."""
    ctx = _FunctionContext(module, dug, builder, andersen, config)
    stats: Dict[str, object] = {
        "functions": len(ctx.fns),
        "func_hits": 0,
        "func_validated": 0,
    }
    if ctx.ambiguous:
        # Two abstract objects share a (kind, name) key: cross-run
        # object identity is undecidable, so neither reuse nor harvest
        # is sound for this program.
        stats["mode"] = "disabled-ambiguous-objects"
        return IncrementalPlan(None, stats, lambda solver: None)

    validated: Dict[str, Dict[str, object]] = {}
    for fn in ctx.fns:
        doc = funcstore.get(ctx.digests[fn.name])
        if doc is None:
            continue
        stats["func_hits"] = int(stats["func_hits"]) + 1
        if doc.get("context_sig") == ctx.context_sigs[fn.name]:
            validated[fn.name] = doc
    stats["func_validated"] = len(validated)

    reuse = None
    if validated:
        reuse = ctx.build_reuse(validated, stats)
    stats["mode"] = "warm" if reuse is not None else "cold"

    def harvest(solver) -> None:
        ctx.harvest(solver, funcstore, skip=set(validated))
        stats["func_stores"] = funcstore.func_stores

    return IncrementalPlan(reuse, stats, harvest)


class _FunctionContext:
    """Per-run derived structures: cross-run object keys, per-function
    node/temp/instruction numbering, digests, and context signatures."""

    def __init__(self, module, dug, builder, andersen, config) -> None:
        self.module = module
        self.dug = dug
        self.builder = builder
        self.andersen = andersen
        self.config = config
        self.universe = andersen.universe
        self.fns: List[Function] = [
            fn for fn in module.functions.values()
            if not fn.is_declaration and fn.blocks]
        # Each function's first source line: the base that turns the
        # absolute lines in allocation-site names into function-local
        # offsets, which survive edits elsewhere in the file.
        self._fn_base_lines: Dict[str, int] = {}
        for fn in self.fns:
            lines = [instr.line for instr in fn.instructions()
                     if instr.line is not None]
            if lines:
                self._fn_base_lines[fn.name] = min(lines)
        self.key_of, self.obj_of_key, self.ambiguous = \
            _object_keys(self.universe, self.stable_key)
        if self.ambiguous:
            return
        self.nodes_by_fn: Dict[str, List[DUGNode]] = dug.nodes_by_function()
        # Cross-run node identity: uid -> (owning fn name, position in
        # that function's creation-order node list).
        self.node_pos: Dict[int, Tuple[str, int]] = {}
        for name, nodes in self.nodes_by_fn.items():
            for i, node in enumerate(nodes):
                self.node_pos[node.uid] = (name, i)
        self.fn_temps: Dict[str, List[Temp]] = {
            fn.name: function_temps(fn) for fn in self.fns}
        self.temp_pos: Dict[int, Tuple[str, int]] = {}
        for name, temps in self.fn_temps.items():
            for i, temp in enumerate(temps):
                self.temp_pos[temp.id] = (name, i)
        # Function-local instruction and block numbering (program
        # order) — block *labels* embed a module-wide counter and are
        # therefore position-sensitive.
        self.instr_pos: Dict[int, int] = {}
        self._block_index: Dict[int, int] = {}
        for fn in self.fns:
            for i, instr in enumerate(fn.instructions()):
                self.instr_pos[instr.id] = i
            for i, block in enumerate(fn.blocks):
                self._block_index[id(block)] = i
        self.digests: Dict[str, str] = {
            fn.name: self._digest(fn) for fn in self.fns}
        self.context_sigs: Dict[str, str] = {
            fn.name: self._context_sig(fn) for fn in self.fns}

    # -- cross-run identity ------------------------------------------------

    def stable_key(self, obj: MemObject) -> str:
        """:func:`~repro.ir.values.object_key` with absolute source
        lines in allocation-site names rewritten relative to the
        owning function's first line. An edit in one function shifts
        every later function's lines wholesale; the function-local
        offset is invariant under that shift, so unchanged functions
        keep their heap/thread-id object identities across runs."""
        name = obj.name
        if _LINE_IN_NAME.search(name):
            owner = obj.alloc_fn
            if owner is None:
                # Thread-id objects carry their fork site instead.
                site = getattr(obj.root(), "fork_site", None)
                if site is not None:
                    owner = site.block.function.name
            base = self._fn_base_lines.get(owner)
            if base is not None:
                # The owner joins the key: absolute lines were unique
                # module-wide, function-local offsets are not.
                name = _LINE_IN_NAME.sub(
                    lambda m: f".l+{int(m.group(1)) - base}@{owner}", name)
        return f"{obj.kind.value}:{name}"

    def _canonical_text(self, fn: Function) -> str:
        """:func:`~repro.ir.printer.print_function` output with every
        position-sensitive token rewritten positionally: block labels
        by block index, temp names by first-sight order, allocation
        lines relative to the function's first line. Two functions
        with identical bodies at different file offsets (or lowering
        orders) render identically — this is the text the level-2
        digest hashes."""
        text = print_function(fn)
        labels = sorted(
            ((block.label, f"\x00B{i}\x00")
             for i, block in enumerate(fn.blocks)),
            key=lambda pair: -len(pair[0]))  # longest first: a label
        for label, repl in labels:           # may prefix another
            text = text.replace(label, repl)
        temp_index = {temp.name: i
                      for i, temp in enumerate(self.fn_temps[fn.name])}

        def temp_repl(match: "re.Match[str]") -> str:
            # Greedy match may span a repr suffix (``%t2.f1`` from a
            # gep): retry at each dot boundary from the right.
            name = match.group(1)
            while name:
                idx = temp_index.get(name)
                if idx is not None:
                    return f"%\x00T{idx}\x00{match.group(1)[len(name):]}"
                dot = name.rfind(".")
                if dot < 0:
                    break
                name = name[:dot]
            return match.group(0)

        text = _TEMP_IN_TEXT.sub(temp_repl, text)
        base = self._fn_base_lines.get(fn.name, 0)
        return _LINE_IN_NAME.sub(
            lambda m: f".l\x00{int(m.group(1)) - base}\x00", text)

    # -- level-2 digests ---------------------------------------------------

    def _digest(self, fn: Function) -> str:
        callees: Dict[str, Function] = {}
        modref = self.builder.modref
        callgraph = self.andersen.callgraph
        for instr in fn.instructions():
            if isinstance(instr, (Call, Fork)):
                for callee in callgraph.callees(instr):
                    callees[callee.name] = callee
            elif isinstance(instr, Join):
                for routine in modref.joined_routines.get(instr.id, ()):
                    callees[routine.name] = routine
        pairs = sorted(
            [name, modref.signature(callee, key=self.stable_key)]
            for name, callee in callees.items())
        return function_digest(self._canonical_text(fn), pairs, self.config)

    # -- context signatures ------------------------------------------------

    def _okey(self, obj: MemObject) -> str:
        # The singleton flag participates because it decides strong
        # vs. weak store updates; the bare key only pins identity.
        return f"{self.stable_key(obj)}|s{1 if obj.is_singleton else 0}"

    def _context_sig(self, fn: Function) -> str:
        """Everything outside the function's own body that
        parametrizes its DUG region's transfer functions and wiring:
        the memSSA skeleton (which pseudo-nodes exist and for which
        objects), every in-edge with its cross-run source identity and
        thread-awareness, callsite/load/store mu-chi object sets, fork
        thread-id objects, and the sources of interprocedural copies
        into its temps."""
        dug = self.dug
        builder = self.builder
        okey = self._okey
        instr_pos = self.instr_pos
        node_pos = self.node_pos
        thread_keys = dug._thread_edge_keys

        node_section: List[object] = []
        for node in self.nodes_by_fn.get(fn.name, []):
            if isinstance(node, StmtNode):
                instr = node.instr
                desc: List[object] = ["s", instr_pos[instr.id]]
                if isinstance(instr, AddrOf):
                    desc.append(okey(instr.obj))
            elif isinstance(node, MemPhiNode):
                desc = ["p", self._block_index[id(node.block)],
                        okey(node.obj)]
            elif isinstance(node, FormalInNode):
                desc = ["fi", okey(node.obj)]
            elif isinstance(node, FormalOutNode):
                desc = ["fo", okey(node.obj)]
            else:
                assert isinstance(node, CallChiNode)
                desc = ["chi", instr_pos[node.site.id], okey(node.obj)]
                if isinstance(node.site, Fork):
                    tid = self.andersen.thread_objects.get(node.site.id)
                    desc.append(None if tid is None else okey(tid))
            edges: List[object] = []
            for obj, srcs in dug.mem_in(node).items():
                for src in srcs:
                    src_fn, src_idx = node_pos[src.uid]
                    thread = 1 if (src.uid, obj.id, node.uid) in thread_keys \
                        else 0
                    edges.append([src_fn, src_idx, okey(obj), thread])
            edges.sort()
            node_section.append([desc, edges])

        anno_section: List[object] = []
        for instr in fn.instructions():
            mus = builder.mus.get(instr.id)
            chis = builder.chis.get(instr.id)
            if mus or chis:
                anno_section.append([
                    instr_pos[instr.id],
                    sorted(okey(obj) for obj in (mus or ())),
                    sorted(okey(obj) for obj in (chis or ())),
                ])

        copy_section: List[object] = []
        for i, temp in enumerate(self.fn_temps[fn.name]):
            into = dug.copies_into(temp)
            if not into:
                continue
            sources: List[object] = []
            for src, _dst in into:
                if isinstance(src, Temp):
                    src_fn, src_idx = self.temp_pos.get(src.id, ("?", -1))
                    sources.append(["t", src_fn, src_idx])
                elif isinstance(src, Function):
                    sources.append(["f", src.name])
                else:
                    sources.append(["c", repr(src)])
            sources.sort()
            copy_section.append([i, sources])

        return canonical_digest([node_section, anno_section, copy_section])

    # -- warm-path assembly ------------------------------------------------

    def build_reuse(self, validated: Dict[str, Dict[str, object]],
                    stats: Dict[str, object]
                    ) -> Optional[IncrementalReuse]:
        """The frozen share of the previous fixpoint, translated into
        this run's ids; None when nothing can be frozen or any
        translation step fails (cold solve)."""
        dug = self.dug
        changed_nodes: List[DUGNode] = []
        changed_temp_ids: List[int] = []
        for fn in self.fns:
            if fn.name in validated:
                continue
            changed_nodes.extend(self.nodes_by_fn.get(fn.name, ()))
            changed_temp_ids.extend(
                temp.id for temp in self.fn_temps[fn.name])
        down_nodes, down_temps = dug.downstream_closure(
            changed_nodes, changed_temp_ids)
        frozen_uids = {node.uid for node in dug.nodes} - down_nodes
        stats["downstream_nodes"] = len(down_nodes)
        stats["frozen_nodes"] = len(frozen_uids)
        if not frozen_uids:
            return None

        universe = self.universe
        obj_of_key = self.obj_of_key
        top_masks: Dict[int, int] = {}
        mem_masks: Dict[Tuple[int, int], int] = {}
        for name, doc in validated.items():
            local_keys = doc["objects"]
            bit_of_local: List[Optional[int]] = []
            obj_of_local: List[Optional[MemObject]] = []
            for key in local_keys:  # type: ignore[union-attr]
                obj = obj_of_key.get(key)
                obj_of_local.append(obj)
                bit_of_local.append(
                    None if obj is None else universe.index_of_id(obj.id))
            temps = self.fn_temps[name]
            for lidx_str, hexmask in doc["top"].items():  # type: ignore[union-attr]
                lidx = int(lidx_str)
                if lidx >= len(temps):
                    return None  # structure drift: bail to cold
                temp = temps[lidx]
                if temp.id in down_temps:
                    continue  # downstream: recomputed from scratch
                mask = _translate_mask(hexmask, bit_of_local)
                if mask is None:
                    return None  # frozen state names a vanished object
                top_masks[temp.id] = mask
            nodes = self.nodes_by_fn.get(name, [])
            for row_key, hexmask in doc["mem"].items():  # type: ignore[union-attr]
                nidx_str, oidx_str = row_key.split(":")
                nidx, oidx = int(nidx_str), int(oidx_str)
                if nidx >= len(nodes) or oidx >= len(obj_of_local):
                    return None
                node = nodes[nidx]
                if node.uid not in frozen_uids:
                    continue
                row_obj = obj_of_local[oidx]
                if row_obj is None:
                    return None
                mask = _translate_mask(hexmask, bit_of_local)
                if mask is None:
                    return None
                mem_masks[(node.uid, row_obj.id)] = mask
        stats["frozen_top_states"] = len(top_masks)
        stats["frozen_mem_rows"] = len(mem_masks)
        return IncrementalReuse(frozen_uids, top_masks, mem_masks)

    # -- harvest -----------------------------------------------------------

    def harvest(self, solver, funcstore, skip: Set[str]) -> None:
        """Write every function's share of the fresh fixpoint back to
        the store (functions in *skip* were validated this run, so
        their stored docs already equal what a rebuild would produce
        — the fixpoint is bit-identical)."""
        universe = solver.universe
        key_of, _obj_of_key, ambiguous = _object_keys(
            universe, self.stable_key)
        if ambiguous:
            return
        key_by_bit: List[str] = [
            key_of[universe.object_at(i).id] for i in range(len(universe))]
        # Read the *finalized* view: the solver releases its raw
        # memory-state masks once ``solver.mem`` is interned.
        top_masks = solver._top_masks
        rows_by_uid: Dict[int, Dict[int, int]] = {}
        for (uid, obj_id), state in solver.mem.items():
            if state.mask:
                rows_by_uid.setdefault(uid, {})[obj_id] = state.mask
        for fn in self.fns:
            if fn.name in skip:
                continue
            doc = self._build_doc(fn, top_masks, rows_by_uid,
                                  key_of, key_by_bit)
            funcstore.put(self.digests[fn.name], doc)

    def _build_doc(self, fn: Function, top_masks: Dict[int, int],
                   rows_by_uid: Dict[int, Dict[int, int]],
                   key_of: Dict[int, str],
                   key_by_bit: List[str]) -> Dict[str, object]:
        top_entries: List[Tuple[int, int]] = []
        for lidx, temp in enumerate(self.fn_temps[fn.name]):
            mask = top_masks.get(temp.id, 0)
            if mask:
                top_entries.append((lidx, mask))
        mem_entries: List[Tuple[int, str, int]] = []
        for nidx, node in enumerate(self.nodes_by_fn.get(fn.name, [])):
            rows = rows_by_uid.get(node.uid)
            if not rows:
                continue
            for obj_id, mask in rows.items():
                row_key = key_of.get(obj_id)
                if row_key is None:
                    continue  # row object never entered any points-to set
                mem_entries.append((nidx, row_key, mask))

        # Doc-local object table: sorted for determinism (two runs at
        # the same fixpoint emit byte-identical docs regardless of the
        # order states were reached in).
        needed: Set[str] = set()
        for _lidx, mask in top_entries:
            _collect_keys(mask, key_by_bit, needed)
        for _nidx, row_key, mask in mem_entries:
            needed.add(row_key)
            _collect_keys(mask, key_by_bit, needed)
        table = sorted(needed)
        index_of_key = {key: i for i, key in enumerate(table)}

        def localize(mask: int) -> str:
            out = 0
            bit = 0
            while mask:
                if mask & 1:
                    out |= 1 << index_of_key[key_by_bit[bit]]
                mask >>= 1
                bit += 1
            return mask_to_hex(out)

        return {
            "schema": FUNC_ARTIFACT_SCHEMA,
            "code_version": CODE_VERSION,
            "function": fn.name,
            "digest": self.digests[fn.name],
            "context_sig": self.context_sigs[fn.name],
            "objects": table,
            "top": {str(lidx): localize(mask)
                    for lidx, mask in top_entries},
            "mem": {f"{nidx}:{index_of_key[row_key]}": localize(mask)
                    for nidx, row_key, mask in sorted(
                        mem_entries, key=lambda e: (e[0], e[1]))},
        }


def _object_keys(universe, keyfunc=object_key
                 ) -> Tuple[Dict[int, str], Dict[str, MemObject], bool]:
    """``obj.id -> key`` and ``key -> obj`` over the universe, plus an
    ambiguity flag: True when two distinct objects share a key (the
    incremental layer must then stand down entirely)."""
    key_of: Dict[int, str] = {}
    obj_of_key: Dict[str, MemObject] = {}
    for i in range(len(universe)):
        obj = universe.object_at(i)
        key = keyfunc(obj)
        if key in obj_of_key:
            return {}, {}, True
        obj_of_key[key] = obj
        key_of[obj.id] = key
    return key_of, obj_of_key, False


def _translate_mask(hexmask: str, bit_of_local: List[Optional[int]]
                    ) -> Optional[int]:
    """A doc-local hex mask re-expressed over the current universe, or
    None when it names an object this run does not have."""
    mask = int(hexmask, 16)
    out = 0
    lidx = 0
    while mask:
        if mask & 1:
            if lidx >= len(bit_of_local):
                return None
            bit = bit_of_local[lidx]
            if bit is None:
                return None
            out |= 1 << bit
        mask >>= 1
        lidx += 1
    return out


def _collect_keys(mask: int, key_by_bit: List[str],
                  into: Set[str]) -> None:
    bit = 0
    while mask:
        if mask & 1:
            into.add(key_by_bit[bit])
        mask >>= 1
        bit += 1
