"""Golden pins on the shape of the ICFG and the thread state graphs.

The layout of both graphs may change, but not which nodes, states and
edges they hold. For each Table 1 program at its bench scale, one FSAM
run pins:

- the ICFG's node count, its edge count per kind, and the sha256 of
  its sorted edge descriptors;
- per thread, keyed by spawn path: the state count, the edge count,
  and the sha256 of the sorted state and edge descriptors.

Nodes are named by kind, function and
:func:`repro.ir.module.canonical_instr_index`. Calling contexts are
lists of canonical call-site indices, and a copy's key names the lock
states of its open spans by their own descriptors, so no descriptor
holds a state id, a thread id or an instruction id.

Regenerate the fixture (only when a graph is meant to change) with::

    PYTHONPATH=src python -m tests.mt.test_shape_pins --write
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

import pytest

from repro.cfg.icfg import EdgeKind, NodeKind
from repro.frontend import compile_source
from repro.fsam import FSAM
from repro.harness.scales import BENCH_SCALES
from repro.ir.module import canonical_instr_index
from repro.workloads import get_workload, workload_names
from tests.mt.test_thread_model_pins import _pin, _thread_key

FIXTURE = os.path.join(os.path.dirname(__file__), "shape_pins.json")


def _node_desc(icfg, node: int, canon) -> str:
    desc = f"{NodeKind.NAMES[icfg.kind[node]]} {icfg.function[node].name}"
    instr = icfg.instr[node]
    return desc if instr is None else f"{desc} {canon[instr.id]}"


def icfg_pins(icfg, canon) -> Dict[str, object]:
    kinds: Dict[str, int] = {}
    edges: List[str] = []
    for src, dst, kind in icfg.graph.edges():
        name = EdgeKind.NAMES[kind]
        kinds[name] = kinds.get(name, 0) + 1
        edges.append(f"{_node_desc(icfg, src, canon)} -> "
                     f"{_node_desc(icfg, dst, canon)} {name}")
    return {"nodes": len(icfg), "edge_kinds": kinds, "edges": _pin(edges)}


def state_graph_pins(graph, canon) -> Dict[str, object]:
    icfg = graph.icfg

    def ctx_desc(ctx) -> str:
        return "[" + ",".join(str(canon[site]) for site in ctx) + "]"

    def state_desc(sid: int) -> str:
        key, node = graph.state(sid)
        if isinstance(key, frozenset):
            locks = sorted(state_desc(lock_sid) for lock_sid in key)
            key_desc = "{" + ";".join(locks) + "}"
        else:
            key_desc = ctx_desc(key)
        return f"{key_desc} {_node_desc(icfg, node, canon)}"

    descs = [state_desc(sid) for sid in range(len(graph))]
    edges = [f"{descs[src]} -> {descs[dst]}"
             for src, dst, _kind in graph.graph.edges()]
    return {"states": _pin(descs), "edges": _pin(edges)}


def shape_pins(name: str, scale: int) -> Dict[str, object]:
    module = compile_source(get_workload(name).source(scale), name=name)
    model = FSAM(module).run().thread_model
    canon = canonical_instr_index(module)
    threads = {_thread_key(thread, canon):
               state_graph_pins(model.state_graphs[thread.id], canon)
               for thread in model.threads}
    return {"icfg": icfg_pins(model.icfg, canon), "threads": threads}


def generate() -> Dict[str, object]:
    return {name: {"scale": BENCH_SCALES[name],
                   **shape_pins(name, BENCH_SCALES[name])}
            for name in workload_names()}


@pytest.mark.parametrize("name", workload_names())
def test_shape_pins(name):
    with open(FIXTURE) as handle:
        expected = json.load(handle)[name]
    assert expected["scale"] == BENCH_SCALES[name]
    got = shape_pins(name, BENCH_SCALES[name])
    assert got["icfg"] == expected["icfg"]
    assert got["threads"] == expected["threads"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.mt.test_shape_pins --write")
    with open(FIXTURE, "w") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
