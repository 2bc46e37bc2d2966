"""Points-to provenance: *why* does this load see this object?

Two complementary mechanisms live here:

1. **Recorded provenance** (preferred; needs a run with an enabled
   :class:`~repro.trace.Tracer`, ``FSAM(module, tracer=Tracer())``):
   the sparse solver logs, for every fact, the rule/node/trigger that
   first introduced it (:mod:`repro.trace`). :func:`derivation_chain`
   walks those trigger links from any fact down to its root — an
   ``AddrOf`` for ordinary values — and :func:`explain_fact` renders
   the chain for a named variable, annotating steps that travelled a
   [THREAD-VF] edge with the MHP/lock verdict that admitted the edge.
   This is the ``repro explain <program> <var>`` surface.

2. **Post-hoc search** (:func:`explain_load`): a backwards BFS over
   the def-use graph following only edges whose source state carries
   the queried object. Works on untraced results, but reconstructs a
   plausible chain rather than reporting the recorded one.

For Figure 1(a), asking why ``c = *p`` sees ``z`` yields the
``*p = r`` store; asking why it sees ``y`` yields the thread-aware
edge from ``*p = q`` in the other thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.fsam.analysis import FSAMResult
from repro.ir.instructions import Load, Store
from repro.ir.values import MemObject, Temp
from repro.memssa.dug import DUGNode, StmtNode
from repro.trace import Derivation


@dataclass
class ProvenanceStep:
    node: DUGNode
    obj: MemObject
    thread_aware: bool

    def describe(self) -> str:
        marker = "  [thread-aware edge]" if self.thread_aware else ""
        line = ""
        if isinstance(self.node, StmtNode) and self.node.instr.line:
            line = f" (line {self.node.instr.line})"
        return f"{self.node!r}{line} defines {self.obj.name}{marker}"


@dataclass
class Provenance:
    """A def-use chain from the introducing store to the querying load."""

    load: Load
    target: MemObject
    steps: List[ProvenanceStep]

    def describe(self) -> str:
        lines = [f"why does {self.load!r} (line {self.load.line}) "
                 f"read {self.target.name}?"]
        for i, step in enumerate(reversed(self.steps)):
            lines.append("  " * (i + 1) + "-> " + step.describe())
        return "\n".join(lines)


def explain_load(result: FSAMResult, load: Load, target: MemObject) -> Optional[Provenance]:
    """The shortest def-use chain explaining ``target in pt(load.dst)``.

    Returns None when the fact does not hold (nothing to explain).
    """
    if target not in result.pts(load.dst):
        return None
    dug = result.dug
    solver = result.solver
    node = dug.stmt_node(load)

    # BFS backwards over o-labelled edges whose source carries the
    # value; stop at the store whose *stored value* includes target.
    start_edges = _carrying_in_edges(result, node, target)
    parents: Dict[int, Tuple[DUGNode, MemObject, DUGNode]] = {}
    queue: List[Tuple[DUGNode, MemObject]] = []
    for obj, src in start_edges:
        parents.setdefault(src.uid, (node, obj, src))
        queue.append((src, obj))
    seen: Set[int] = {node.uid} | {src.uid for _obj, src in start_edges}

    introducer: Optional[DUGNode] = None
    while queue:
        current, obj = queue.pop(0)
        if _introduces(result, current, obj, target):
            introducer = current
            break
        for obj2, src in _carrying_in_edges(result, current, target, label=obj):
            if src.uid in seen:
                continue
            seen.add(src.uid)
            parents[src.uid] = (current, obj2, src)
            queue.append((src, obj2))
    if introducer is None:
        return None

    # Reconstruct the chain introducer -> ... -> load.
    steps: List[ProvenanceStep] = []
    walk: Optional[DUGNode] = introducer
    while walk is not None and walk.uid in parents:
        consumer, obj, src = parents[walk.uid]
        steps.append(ProvenanceStep(
            node=src, obj=obj,
            thread_aware=dug.is_thread_edge(src, obj, consumer)))
        walk = consumer if consumer.uid in parents else None
        if consumer is node:
            break
    return Provenance(load=load, target=target, steps=steps)


def _carrying_in_edges(result: FSAMResult, node: DUGNode, target: MemObject,
                       label: Optional[MemObject] = None):
    """In-edges of *node* whose source state contains *target*."""
    edges = []
    for obj, sources in result.dug.mem_in(node).items():
        if label is not None and obj is not label:
            continue
        for src in sources:
            if target in result.solver.mem_state(src, obj):
                edges.append((obj, src))
    return edges


def _introduces(result: FSAMResult, node: DUGNode, obj: MemObject,
                target: MemObject) -> bool:
    """Does *node* originate the value (a store whose stored operand
    points to target)?"""
    if not isinstance(node, StmtNode) or not isinstance(node.instr, Store):
        return False
    return target in result.solver.value_pts(node.instr.value)


# -- recorded-provenance chains (repro.trace) -------------------------------

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
    provenance = result.provenance
    if provenance is None:
        raise ValueError("no provenance recorded: re-run the analysis "
                         "with FSAM(module, tracer=Tracer())")
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
    provenance = result.provenance
    if provenance is None:
        raise ValueError("no provenance recorded: re-run the analysis "
                         "with FSAM(module, tracer=Tracer())")
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
                    target_name: str) -> List[Provenance]:
    """Explain every load at *line* whose pt() contains an object named
    *target_name*."""
    out: List[Provenance] = []
    for instr in result.module.all_instructions():
        if isinstance(instr, Load) and instr.line == line:
            for obj in result.pts(instr.dst):
                if obj.name == target_name:
                    prov = explain_load(result, instr, obj)
                    if prov is not None:
                        out.append(prov)
    return out
