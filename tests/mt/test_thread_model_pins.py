"""Golden pins on the thread model's answers.

The thread state graphs may be rebuilt in any shape, but what the
interference phases read from them must not move. For each Table 1
program at its bench scale, one FSAM run pins:

- the MHP verdict and lock-filter verdict of every candidate
  (store, access, object) pair that the value-flow phase considers;
- each lock span's ``member_instrs``, keyed by thread, lock
  instruction and calling context;
- the [THREAD-VF] edge set;
- the artifact's ``payload_digest`` (the final fixpoint).

At scale 2, the deadlock, race, instrumentation-reduction and escape
clients' answers are pinned too. Instructions are numbered with
:func:`repro.ir.module.canonical_instr_index`, and every pin is stored
as a sha256 plus a count, so the fixture stays small.

Regenerate the fixture (only when an answer is meant to change) with::

    PYTHONPATH=src python -m tests.mt.test_thread_model_pins --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Iterable, List

import pytest

from repro.clients import (
    classify_escapes, detect_deadlocks, detect_races, reduce_instrumentation,
)
from repro.frontend import compile_source
from repro.fsam import FSAM
from repro.harness.scales import BENCH_SCALES
from repro.ir.instructions import Load, Store
from repro.ir.module import canonical_instr_index
from repro.mt.locks import LockAnalysis
from repro.service.artifacts import artifact_from_result
from repro.workloads import get_workload, workload_names

FIXTURE = os.path.join(os.path.dirname(__file__), "thread_model_pins.json")
CLIENT_SCALE = 2


def _pin(lines: Iterable[str]) -> Dict[str, object]:
    rows = sorted(lines)
    digest = hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()
    return {"sha256": digest, "count": len(rows)}


def _obj_key(obj) -> str:
    return f"{obj.name}/{obj.kind.value}"


def _thread_key(thread, canon) -> str:
    """A thread named by its spawn path. Thread ids are not stable
    across processes: a fork through a function pointer spawns one
    abstract thread per routine, in set order."""
    if thread.parent is None:
        return thread.routine.name
    context = ",".join(str(canon[site]) for site in thread.spawn_ctx)
    return (f"{_thread_key(thread.parent, canon)}>{thread.routine.name}"
            f"@{canon[thread.fork_site.id]}[{context}]")


def fsam_pins(name: str, scale: int) -> Dict[str, object]:
    """Pins from one default FSAM run of workload *name* at *scale*."""
    module = compile_source(get_workload(name).source(scale), name=name)
    result = FSAM(module).run()
    canon = canonical_instr_index(module)
    model, mhp, builder = result.thread_model, result.mhp, result.builder
    locks = LockAnalysis(model, result.andersen, result.dug, builder)

    stores_on: Dict[int, List[Store]] = {}
    accesses_on: Dict[int, list] = {}
    objects = {}
    for instr in module.all_instructions():
        if isinstance(instr, Store):
            for obj in builder.chis.get(instr.id, ()):
                objects[obj.id] = obj
                stores_on.setdefault(obj.id, []).append(instr)
                accesses_on.setdefault(obj.id, []).append(instr)
        elif isinstance(instr, Load):
            for obj in builder.mus.get(instr.id, ()):
                objects[obj.id] = obj
                accesses_on.setdefault(obj.id, []).append(instr)
    verdicts = []
    for obj_id, stores in stores_on.items():
        obj = objects[obj_id]
        for store in stores:
            for target in accesses_on[obj_id]:
                if target is store:
                    continue
                parallel = mhp.may_happen_in_parallel(store, target)
                filtered = parallel and locks.filters(store, target, obj, mhp)
                verdicts.append(f"{canon[store.id]} {canon[target.id]} "
                                f"{_obj_key(obj)} {int(parallel)}"
                                f"{int(filtered)}")

    spans = []
    for span in locks.spans:
        graph = model.state_graphs[span.thread.id]
        ctx, _node = graph.state(span.lock_sid)
        lock = graph.instr_of(span.lock_sid)
        context = ",".join(str(canon[site]) for site in ctx)
        members = ",".join(str(i) for i in
                           sorted(canon[m] for m in span.member_instrs))
        spans.append(f"{_thread_key(span.thread, canon)} {canon[lock.id]} "
                     f"[{context}] {members}")

    edges = [f"{canon[src.instr.id]} {_obj_key(obj)} {canon[dst.instr.id]}"
             for src, obj, dst in result.dug.thread_edges]
    return {
        "pair_verdicts": _pin(verdicts),
        "span_members": _pin(spans),
        "thread_vf_edges": _pin(edges),
        "payload_digest": artifact_from_result(name, result).payload_digest(),
    }


def client_pins(name: str, scale: int) -> Dict[str, object]:
    """The four clients' answers on workload *name* at *scale*. Each
    client analyses the module afresh; analysis leaves it unchanged."""
    module = compile_source(get_workload(name).source(scale), name=name)
    canon = canonical_instr_index(module)
    deadlocks = [f"{c.first.name} {c.second.name} "
                 f"{canon[c.site_holding_first.id]} "
                 f"{canon[c.site_holding_second.id]}"
                 for c in detect_deadlocks(module)]
    races = [f"{canon[r.store.id]} {canon[r.access.id]} {_obj_key(r.obj)}"
             for r in detect_races(module)]
    report = reduce_instrumentation(module)
    tsan = [f"{canon[instr_id]} {cls.value}"
            for instr_id, cls in report.classes.items()]
    escapes = classify_escapes(module)
    escape = [f"{_obj_key(escapes.objects[obj_id])} {cls.value}"
              for obj_id, cls in escapes.classes.items()]
    return {"deadlocks": _pin(deadlocks), "races": _pin(races),
            "tsan": _pin(tsan), "escape": _pin(escape)}


def generate() -> Dict[str, object]:
    return {name: {"scale": BENCH_SCALES[name],
                   "fsam": fsam_pins(name, BENCH_SCALES[name]),
                   "clients": client_pins(name, CLIENT_SCALE)}
            for name in workload_names()}


def _load_fixture() -> Dict[str, object]:
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", workload_names())
class TestThreadModelPins:
    def test_fsam_pins(self, name):
        expected = _load_fixture()[name]
        assert expected["scale"] == BENCH_SCALES[name]
        assert fsam_pins(name, BENCH_SCALES[name]) == expected["fsam"]

    def test_client_pins(self, name):
        expected = _load_fixture()[name]
        assert client_pins(name, CLIENT_SCALE) == expected["clients"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.mt.test_thread_model_pins --write")
    with open(FIXTURE, "w") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
