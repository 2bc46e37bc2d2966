"""Graphviz (DOT) exporters for the analysis data structures.

Handy when debugging why a points-to fact flows where it does: dump
the def-use graph, the ICFG, or the thread spawn tree and render with
``dot -Tsvg``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cfg.icfg import ICFG, EdgeKind
from repro.memssa.dug import DUG, StmtNode
from repro.mt.threads import ThreadModel


def _quote(text: str) -> str:
    return '"' + text.replace('"', "'").replace("\n", " ") + '"'


def dug_to_dot(dug: DUG, max_nodes: Optional[int] = None) -> str:
    """The def-use graph; thread-aware edges are drawn red/dashed."""
    lines: List[str] = ["digraph DUG {", "  rankdir=TB;",
                        "  node [shape=box, fontsize=9];"]
    nodes = dug.nodes if max_nodes is None else dug.nodes[:max_nodes]
    for node in nodes:
        shape = "box" if isinstance(node, StmtNode) else "ellipse"
        lines.append(f"  n{node.uid} [label={_quote(repr(node))}, shape={shape}];")
    for node in nodes:
        for obj, dst in dug.mem_out(node):
            if dst.uid >= len(nodes):
                continue
            style = ""
            if dug.is_thread_edge(node, obj, dst):
                style = ", color=red, style=dashed"
            lines.append(f"  n{node.uid} -> n{dst.uid} "
                         f"[label={_quote(obj.name)}{style}];")
    lines.append("}")
    return "\n".join(lines)


def icfg_to_dot(icfg: ICFG, function_names: Optional[List[str]] = None) -> str:
    """The interprocedural CFG, optionally restricted to functions."""
    keep = set(function_names) if function_names else None
    lines: List[str] = ["digraph ICFG {", "  node [shape=box, fontsize=9];"]
    wanted = bytearray(len(icfg))
    for node in icfg.nodes():
        if keep is None or icfg.function[node].name in keep:
            wanted[node] = 1
            lines.append(f"  n{node} [label={_quote(icfg.describe(node))}];")
    for src, dst, kind in icfg.graph.edges():
        if wanted[src] and wanted[dst]:
            style = {EdgeKind.CALL: ", color=blue",
                     EdgeKind.RET: ", color=green"}.get(kind, "")
            lines.append(f"  n{src} -> n{dst} [fontsize=8{style}];")
    lines.append("}")
    return "\n".join(lines)


def thread_tree_to_dot(model: ThreadModel) -> str:
    """The thread spawn tree, multi-forked threads double-circled."""
    lines: List[str] = ["digraph Threads {", "  node [fontsize=10];"]
    for thread in model.threads:
        shape = "doublecircle" if thread.multi_forked else "circle"
        label = "main" if thread.is_main else thread.routine.name
        lines.append(f"  t{thread.id} [label={_quote(f't{thread.id}: {label}')}, "
                     f"shape={shape}];")
    for thread in model.threads:
        if thread.parent is not None:
            lines.append(f"  t{thread.parent.id} -> t{thread.id};")
    lines.append("}")
    return "\n".join(lines)
