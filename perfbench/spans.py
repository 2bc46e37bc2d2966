"""Outside-in layer tracing for the traced run.

:meth:`SpanRecorder.install` wraps each layer's public entry point
*where the pipeline looks it up* (``run_andersen`` is imported by name
into ``repro.fsam.analysis``, so it is patched there). Spans are kept
in memory as ``[name, start, end, parent, op]`` rows and written out
once the run ends. A layer's self time is its span's duration minus
its child spans' durations; ``unattributed_s`` is operation time minus
every layer's self time, so the layer times and ``unattributed_s`` add
up to the operation time exactly.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Dict, List, Optional

#: Per-layer time metrics (seconds of self time per operation).
LAYER_TIMES = (
    "minic.parse_s", "frontend.lower_s", "frontend.mem2reg_s",
    "ir.verify_s", "andersen.run_s", "cfg.icfg_s", "memssa.build_dug_s",
    "mt.thread_model_s", "mt.mhp_s", "mt.locks_s", "mt.valueflow_s",
    "fsam.schedule_s", "fsam.solve_s", "fsam.solve_incremental_s",
    "incremental.plan_s", "incremental.harvest_s", "service.artifact_s",
    "service.store_s", "service.digest_s", "fsam.query_s",
)

#: Per-layer work counts (mean per operation).
LAYER_COUNTS = (
    "ir.instructions", "andersen.objects", "memssa.dug_nodes",
    "memssa.mem_edges", "mt.thread_edges", "fsam.iterations",
)


def _instructions(module) -> int:
    return sum(1 for fn in module.functions.values()
               for _ in fn.instructions())


def _dug_counts(result):
    dug = result[0]
    return {"memssa.dug_nodes": len(dug.nodes),
            "memssa.mem_edges": dug.num_mem_edges(),
            "mt.thread_edges": len(dug.thread_edges)}


def _iterations(args, _result):
    return {"fsam.iterations": args[0].iterations}


#: ``(module, attribute, span name, counter)``. An attribute with a
#: dot is a method on a class of that module. A counter maps the call's
#: ``(args, result)`` to work counts; it runs after the operation ends,
#: outside every timed span.
PATCHES = (
    ("repro.frontend", "compile_source", "frontend.compile",
     lambda args, module: {"ir.instructions": _instructions(module)}),
    ("repro.service.runner", "compile_source", "frontend.compile",
     lambda args, module: {"ir.instructions": _instructions(module)}),
    ("repro.frontend", "parse", "minic.parse_s", None),
    ("repro.frontend", "lower_program", "frontend.lower_s", None),
    ("repro.frontend", "promote_to_ssa", "frontend.mem2reg_s", None),
    ("repro.frontend", "verify_module", "ir.verify_s", None),
    ("repro.fsam.analysis", "run_andersen", "andersen.run_s",
     lambda args, result: {"andersen.objects": len(result.universe)}),
    ("repro.fsam.analysis", "ICFG", "cfg.icfg_s", None),
    ("repro.fsam.analysis", "build_dug", "memssa.build_dug_s",
     lambda args, result: _dug_counts(result)),
    ("repro.fsam.analysis", "ThreadModel", "mt.thread_model_s", None),
    ("repro.fsam.analysis", "InterleavingAnalysis", "mt.mhp_s", None),
    ("repro.fsam.analysis", "CoarsePCGMhp", "mt.mhp_s", None),
    ("repro.fsam.analysis", "LockAnalysis", "mt.locks_s", None),
    ("repro.fsam.analysis", "add_thread_aware_edges", "mt.valueflow_s",
     None),
    ("repro.fsam.solver", "SparseSolver.solve", "fsam.solve_s",
     _iterations),
    ("repro.fsam.solver", "SparseSolver.solve_demand", "fsam.solve_s",
     _iterations),
    ("repro.fsam.solver", "SparseSolver.solve_incremental",
     "fsam.solve_incremental_s", _iterations),
    ("repro.fsam.solver", "build_plan", "fsam.schedule_s", None),
    ("repro.memssa.dug", "DUG.compute_topo_ranks", "fsam.schedule_s", None),
    ("repro.memssa.dug", "DUG.compute_topo_ranks_slice", "fsam.schedule_s",
     None),
    ("repro.service.incremental", "build_plan", "incremental.plan_s", None),
    ("repro.service.incremental", "IncrementalPlan.harvest",
     "incremental.harvest_s", None),
    ("repro.service.runner", "artifact_from_result", "service.artifact_s",
     None),
    ("repro.service.artifacts", "artifact_from_result",
     "service.artifact_s", None),
    ("repro.service.cache", "FuncArtifactStore.get", "service.store_s",
     None),
    ("repro.service.cache", "FuncArtifactStore.put", "service.store_s",
     None),
    ("repro.service.requests", "AnalysisRequest.digest", "service.digest_s",
     None),
    ("repro.service.runner", "query_digest", "service.digest_s", None),
    ("repro.fsam.query", "QueryEngine.query", "fsam.query_s", None),
)


class SpanRecorder:
    """In-memory spans of the operations run while it is active."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._deferred: List[tuple] = []
        self.counts: Dict[str, float] = {}
        self.ops = 0
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self) -> None:
        self._op = self.ops
        self._open("op")

    def end_op(self) -> None:
        self._close(self._stack[0])
        self._op = None
        self.ops += 1
        for counter, args, result in self._deferred:
            for name, value in counter(args, result).items():
                self.counts[name] = self.counts.get(name, 0) + value
        self._deferred.clear()

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self._deferred.append((counter, args, result))
            return result
        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, module_name: str, attribute: str, name: str,
              counter=None) -> None:
        owner = importlib.import_module(module_name)
        if "." in attribute:
            cls_name, attribute = attribute.split(".")
            owner = getattr(owner, cls_name)
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, original, counter))
        self._undo.append(lambda: setattr(owner, attribute, original))

    def install(self) -> None:
        for module_name, attribute, name, counter in PATCHES:
            self.patch(module_name, attribute, name, counter)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Per-operation means: every layer's self time and count,
        ``unattributed_s``, and the operation time they add up to."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = dict.fromkeys(LAYER_TIMES, 0.0)
        op_time = 0.0
        for index, (name, start, end, _parent, _op) in \
                enumerate(self.spans):
            if name == "op":
                op_time += end - start
            elif name in totals:
                totals[name] += end - start - child_time[index]
        ops = max(self.ops, 1)
        out = {name: total / ops for name, total in totals.items()}
        out.update({name: self.counts.get(name, 0) / ops
                    for name in LAYER_COUNTS})
        out["trace.op_s"] = op_time / ops
        out["unattributed_s"] = (op_time - sum(totals.values())) / ops
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "op": op}) + "\n")
