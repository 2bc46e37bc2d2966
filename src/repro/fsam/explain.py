"""Points-to provenance: *why* does this load see this object?

One mechanism answers every question. Run with an enabled
:class:`~repro.trace.Tracer` (``FSAM(module, tracer=Tracer())``), the
sparse solver records, for every fact, the rule, node and trigger
fact that first introduced it (:mod:`repro.trace`).
:func:`derivation_chain` walks those trigger links from a fact down to
its root (an ``AddrOf`` for ordinary values), and
:func:`render_derivation` prints the chain, annotating each step that
travelled a [THREAD-VF] edge with the MHP and lock verdict that
admitted the edge.

``repro explain`` names the facts to explain two ways:
:func:`explain_fact` takes a variable (and optionally one pointed-to
object); :func:`explain_at_line` takes a source line and an object
name, and selects each load on that line whose points-to set holds
the object.

For Figure 1(a), asking why ``c = *p`` sees ``z`` yields a chain
through the ``*p = r`` store; asking why it sees ``y`` yields a chain
that crosses the thread-aware edge from ``*p = q`` in the other
thread and ends at ``q = &y``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.fsam.analysis import FSAMResult
from repro.ir.instructions import Load
from repro.ir.values import MemObject, Temp
from repro.memssa.dug import DUGNode, StmtNode
from repro.trace import Derivation, top_fact


#: Display tags mapping internal rule names to the paper's rules.
RULE_TAGS = {
    "addr": "P-ADDR",
    "copy": "P-COPY",
    "phi": "P-PHI",
    "gep": "P-GEP",
    "load": "P-LOAD",
    "store-strong": "P-SU",
    "store-weak": "P-WU",
    "store-through": "P-WU pass-through",
    "mem-phi": "MEM-PHI",
    "formal-in": "FORMAL-IN",
    "formal-out": "FORMAL-OUT",
    "call-chi": "CALL-CHI",
    "fork-handle": "FORK",
}


def _provenance(result: FSAMResult) -> Dict[Tuple, Derivation]:
    provenance = result.provenance
    if provenance is None:
        raise ValueError("no provenance recorded: re-run the analysis "
                         "with FSAM(module, tracer=Tracer())")
    return provenance


def _object_by_id(result: FSAMResult, obj_id: int) -> Optional[MemObject]:
    universe = result.solver.universe
    index = universe._indices.get(obj_id)
    return universe.object_at(index) if index is not None else None


def _temps_by_id(result: FSAMResult) -> Dict[int, Temp]:
    temps: Dict[int, Temp] = {}
    for fn in result.module.functions.values():
        for param in fn.params:
            temps[param.id] = param
        for instr in fn.instructions():
            dst = getattr(instr, "dst", None)
            if isinstance(dst, Temp):
                temps[dst.id] = dst
    return temps


def derivation_chain(result: FSAMResult, key: Tuple,
                     limit: int = 128) -> List[Tuple[Tuple, Derivation]]:
    """The recorded derivation chain from fact *key* to its root.

    Follows first-introduction trigger links, so the walk terminates
    (a fact's trigger always predates it); *limit* is a belt-and-
    braces bound. Raises :class:`ValueError` when the result carries
    no provenance (run with ``FSAM(module, tracer=Tracer())``)."""
    provenance = _provenance(result)
    chain: List[Tuple[Tuple, Derivation]] = []
    seen: Set[Tuple] = set()
    while key is not None and key not in seen and len(chain) < limit:
        seen.add(key)
        derivation = provenance.get(key)
        if derivation is None:
            break
        chain.append((key, derivation))
        key = derivation.trigger
    return chain


def _describe_fact(result: FSAMResult, key: Tuple,
                   temps: Dict[int, Temp],
                   nodes: List[DUGNode]) -> str:
    obj = _object_by_id(result, key[-1])
    obj_name = obj.name if obj is not None else f"obj#{key[-1]}"
    if key[0] == "top":
        temp = temps.get(key[1])
        var = repr(temp) if temp is not None else f"%t{key[1]}"
        return f"{obj_name} in pt({var})"
    container = _object_by_id(result, key[2])
    container_name = container.name if container is not None else f"obj#{key[2]}"
    node = nodes[key[1]]
    return f"{obj_name} in state({container_name}) at {node!r}"


def _describe_derivation(result: FSAMResult, key: Tuple, d: Derivation,
                         temps: Dict[int, Temp],
                         nodes: List[DUGNode]) -> List[str]:
    tag = RULE_TAGS.get(d.rule, d.rule)
    location = ""
    if isinstance(d.origin, StmtNode) and d.origin.instr.line:
        location = f" (line {d.origin.instr.line})"
    head = f"{_describe_fact(result, key, temps, nodes)}" \
           f"   [{tag}]{location}"
    if d.is_root:
        head += "  <- root"
    lines = [head]
    if d.thread_edge and d.edge is not None:
        src_uid, container_id, _dst_uid = d.edge
        source = nodes[src_uid]
        container = _object_by_id(result, container_id)
        container_name = container.name if container is not None \
            else f"obj#{container_id}"
        source_line = ""
        if isinstance(source, StmtNode) and source.instr.line:
            source_line = f" (line {source.instr.line})"
        lines.append(f"    via [THREAD-VF] edge {source!r}{source_line} "
                     f"--{container_name}--> this load")
        verdict = result.dug.thread_edge_verdict(*d.edge)
        if verdict is not None:
            lines.append(f"    admitted: MHP {verdict.get('mhp', '?')}; "
                         f"{verdict.get('lock', '?')}")
    return lines


def render_derivation(result: FSAMResult, key: Tuple) -> str:
    """A human-readable derivation chain for fact *key*, from the
    queried fact down to its root."""
    temps = _temps_by_id(result)
    nodes = result.dug.nodes
    chain = derivation_chain(result, key)
    if not chain:
        return f"no recorded derivation for {key!r}"
    out = [f"why {_describe_fact(result, key, temps, nodes)}?"]
    for i, (fact_key, derivation) in enumerate(chain):
        prefix = "  " if i == 0 else "  <- "
        described = _describe_derivation(result, fact_key, derivation,
                                         temps, nodes)
        out.append(prefix + described[0])
        out.extend("  " + extra for extra in described[1:])
    return "\n".join(out)


def explain_fact(result: FSAMResult, name: str,
                 obj_name: Optional[str] = None) -> List[str]:
    """Rendered derivation chains for variable *name*.

    *name* may be a global (its memory states are explained, one chain
    per pointed-to object, anchored at the first store that introduced
    the fact) or a top-level temp name. ``obj_name`` restricts the
    explanation to one pointed-to object."""
    provenance = _provenance(result)
    temps = _temps_by_id(result)
    keys: List[Tuple] = []
    module = result.module
    if name in module.globals:
        container = module.globals[name]
        first_per_obj: Set[int] = set()
        for key in provenance:
            if key[0] == "mem" and key[2] == container.id \
                    and key[3] not in first_per_obj:
                first_per_obj.add(key[3])
                keys.append(key)
    matching_temp_ids = {tid for tid, t in temps.items() if t.name == name}
    if matching_temp_ids:
        for key in provenance:
            if key[0] == "top" and key[1] in matching_temp_ids:
                keys.append(key)
    out: List[str] = []
    for key in keys:
        obj = _object_by_id(result, key[-1])
        if obj_name is not None and (obj is None or obj.name != obj_name):
            continue
        out.append(render_derivation(result, key))
    return out


def explain_at_line(result: FSAMResult, line: int,
                    target_name: str) -> List[str]:
    """Rendered derivation chains for the loads at *line*: one per
    load and pointed-to object named *target_name*."""
    _provenance(result)
    out: List[str] = []
    for instr in result.module.all_instructions():
        if isinstance(instr, Load) and instr.line == line:
            for obj in result.pts(instr.dst):
                if obj.name == target_name:
                    out.append(render_derivation(
                        result, top_fact(instr.dst.id, obj.id)))
    return out
