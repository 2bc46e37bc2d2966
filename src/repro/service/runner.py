"""Executing one analysis request end to end.

The degradation ladder (the batch service's availability contract —
a batch returns *some* result for every request, never an exception):

1. the full FSAM pipeline, under ``config.time_budget`` if set;
2. on budget exhaustion (``AnalysisTimeout``) or a parent-enforced
   wall-clock kill: one retry of the full pipeline (pool mode only —
   in-process budget exhaustion is deterministic, so the inline
   runner skips straight to rung 3);
3. the Andersen-only fallback: compile + pre-analysis, packaged as a
   ``degraded=True`` artifact with flow-insensitive top-level
   points-to sets and no memory states.

:func:`run_request_inline` is the serial building block used by the
batch driver when ``workers <= 1``, by the pool's last-resort
fallback in the parent, and directly by tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.frontend import compile_source
from repro.fsam import FSAM
from repro.fsam.config import AnalysisTimeout, FSAMConfig
from repro.obs import NULL_OBS, Observer
from repro.pts import mask_to_hex
from repro.service.artifacts import (
    AnalysisArtifact, artifact_from_andersen, artifact_from_query,
    artifact_from_result,
)
from repro.service.digest import query_digest
from repro.service.requests import AnalysisRequest, QueryRequest


@dataclass
class RequestOutcome:
    """One request's terminal state inside a batch."""

    name: str
    digest: str
    artifact: AnalysisArtifact
    cache: str = "miss"            # "hit" | "miss"
    seconds: float = 0.0           # total, from the first attempt's start
    attempts: int = 1
    #: Wall-clock duration of each individual attempt (including the
    #: final degraded fallback, when one ran). ``seconds`` measures the
    #: whole request from the first spawn and therefore also contains
    #: requeue wait between retries; the per-attempt entries do not.
    attempt_seconds: List[float] = field(default_factory=list)
    #: Time spent waiting for a worker slot: the delay from enqueue to
    #: the first spawn plus any requeue wait between retry rungs.
    #: Disjoint from ``attempt_seconds`` — queue wait vs attempt work
    #: feed separate latency histograms.
    queue_seconds: float = 0.0
    #: Span id assigned by the dispatcher (see ``AnalysisRequest``).
    request_id: Optional[str] = None
    #: The request's ``repro.metrics/1`` telemetry span — recorded by
    #: the worker-side Observer and shipped back through the result
    #: pipe (pool mode) or captured in-process (inline mode). None when
    #: profiling is off and no func-store counters accrued.
    obs_snapshot: Optional[Dict[str, object]] = None

    @property
    def status(self) -> str:
        return "degraded" if self.artifact.degraded else "ok"


def run_full(request: AnalysisRequest,
             funcstore=None, obs: Optional[Observer] = None,
             on_preanalysis=None) -> AnalysisArtifact:
    """Rung 1: the whole pipeline. Raises
    :class:`~repro.fsam.config.AnalysisTimeout` on budget exhaustion.

    When *funcstore* (a :class:`repro.service.cache.FuncArtifactStore`)
    is given, the run consults the per-function artifact layer: DUG
    regions downstream of changed functions are re-solved from scratch
    while states proven unchanged are preloaded from the store, and the
    fresh per-function facts are harvested back into the store. Results
    are bit-identical either way.

    When *obs* is given it becomes the request's span: the compile and
    every FSAM phase are timed under it (instead of a run-private
    observer), so its ``repro.metrics/1`` snapshot captures the whole
    attempt for shipping back to the dispatcher.

    *on_preanalysis* is handed to :class:`~repro.fsam.FSAM`: a hook
    called with ``(module, andersen)`` right after the pre-analysis
    phase, used by the gateway to stream a progressive Andersen-facts
    frame while the sparse solve is still running.
    """
    kwargs: Dict[str, object] = {}
    if funcstore is not None:
        from repro.service.incremental import incremental_hook
        kwargs["incremental"] = incremental_hook(request, funcstore)
    if on_preanalysis is not None:
        kwargs["on_preanalysis"] = on_preanalysis
    if obs is not None:
        with obs.phase("compile"):
            module = compile_source(request.source, name=request.name)
        kwargs["obs"] = obs
    else:
        module = compile_source(request.source, name=request.name)
    fsam = FSAM(module, request.config, **kwargs)
    result = fsam.run()
    return artifact_from_result(request.name, result)


def run_degraded(request: AnalysisRequest,
                 reason: str = "budget-exhausted") -> AnalysisArtifact:
    """Rung 3: Andersen-only. Deliberately ignores the request budget
    — the pre-analysis is orders of magnitude cheaper than the sparse
    solve, and the ladder must terminate with a result."""
    from repro.andersen import run_andersen

    module = compile_source(request.source, name=request.name)
    andersen = run_andersen(module)
    return artifact_from_andersen(request.name, module, andersen,
                                  reason=reason)


def run_request_inline(request: AnalysisRequest,
                       funcstore=None) -> RequestOutcome:
    """The serial ladder: full pipeline, degrading on budget
    exhaustion. No retry — re-running the same deterministic analysis
    under the same in-process budget exhausts it again.

    When the request profiles (``config.profile``), the whole attempt
    runs under a per-request span Observer whose ``repro.metrics/1``
    snapshot lands on ``outcome.obs_snapshot`` — the same shape a pool
    worker ships back, so batch/serve aggregation is dispatch-agnostic.
    (The shared inline *funcstore* is deliberately not flushed here:
    its counters span the whole batch and are flushed once by the
    dispatcher, not once per request.)"""
    obs = Observer(name=request.request_id or request.name) \
        if request.config.profile else None
    start = time.perf_counter()
    attempts = 1
    attempt_seconds = []
    try:
        artifact = run_full(request, funcstore=funcstore, obs=obs)
        attempt_seconds.append(time.perf_counter() - start)
    except AnalysisTimeout:
        attempt_seconds.append(time.perf_counter() - start)
        attempts += 1
        rung_start = time.perf_counter()
        artifact = run_degraded(request)
        attempt_seconds.append(time.perf_counter() - rung_start)
    return RequestOutcome(
        name=request.name,
        digest=request.digest(),
        artifact=artifact,
        seconds=time.perf_counter() - start,
        attempts=attempts,
        attempt_seconds=attempt_seconds,
        request_id=request.request_id,
        obs_snapshot=obs.to_metrics_dict() if obs is not None else None,
    )


class QueryRunner:
    """Executes demand queries for the batch and serve front ends.

    Three rungs, cheapest first:

    1. **disk hit**: the query artifact store answers straight from
       ``<cache>/query/`` — no compile, no pipeline, zero solver work;
    2. **warm engine**: an already-built demand pipeline for the same
       program digest whose accumulated solved slices cover the query
       (``source == "warm"``, zero iterations);
    3. **cold solve**: build (or reuse) the demand-mode pipeline, slice
       backward from the query, run the delta engine over the sub-DUG.

    Pipelines are kept in a small per-program-digest LRU so a burst of
    queries against the same program compiles it once. Queries do not
    walk the degradation ladder — a demand answer is only useful if it
    is exact, so budget exhaustion propagates as an error instead of
    an Andersen-only approximation.
    """

    def __init__(self, querystore=None, obs=NULL_OBS,
                 max_pipelines: int = 4) -> None:
        self.querystore = querystore
        self.obs = obs
        self.max_pipelines = max_pipelines
        self._pipelines: Dict[str, object] = {}  # digest -> FSAMResult
        self._order: List[str] = []              # LRU, most recent last

    # -- pipeline LRU ------------------------------------------------------

    def _pipeline(self, request: AnalysisRequest, digest: str):
        result = self._pipelines.get(digest)
        if result is not None:
            self._order.remove(digest)
            self._order.append(digest)
            return result
        config_fields = request.config.to_dict()
        config_fields["solver_mode"] = "demand"
        config = FSAMConfig(**config_fields)
        kwargs: Dict[str, object] = {}
        if getattr(self.obs, "enabled", False):
            with self.obs.phase("compile"):
                module = compile_source(request.source, name=request.name)
            kwargs["obs"] = self.obs
        else:
            module = compile_source(request.source, name=request.name)
        result = FSAM(module, config, **kwargs).run()
        self._pipelines[digest] = result
        self._order.append(digest)
        while len(self._order) > self.max_pipelines:
            evicted = self._order.pop(0)
            del self._pipelines[evicted]
        return result

    # -- execution ---------------------------------------------------------

    def run(self, query: QueryRequest) -> Dict[str, object]:
        """Answer one query; returns the response payload dict.

        Raises ``ValueError`` for an unresolvable variable/object and
        ``AnalysisTimeout`` on pipeline budget exhaustion — the caller
        turns either into an error response."""
        request = query.request
        program_digest = request.digest()
        digest = query_digest(program_digest, query.var,
                              line=query.line, obj=query.obj)
        start = time.perf_counter()
        payload: Dict[str, object] = {
            "op": "query",
            "status": "ok",
            "name": request.name,
            "digest": program_digest,
            "query_digest": digest,
            "var": query.var,
            "line": query.line,
            "obj": query.obj,
        }
        doc = self.querystore.get(digest) \
            if self.querystore is not None else None
        if doc is not None:
            # Disk hit: the stored answer is exact (bit-identity is the
            # demand engine's contract), so no solver work runs at all.
            self.obs.count("query.requests", 1)
            payload.update({
                "cache": "hit",
                "pts": list(doc["answer"]["names"]),
                "mask": doc["answer"]["mask"],
                "slice_nodes": doc["slice_nodes"],
                "slice_temps": doc["slice_temps"],
                "slice_fraction": doc["slice_fraction"],
                "iterations": 0,
                "seconds": time.perf_counter() - start,
            })
            self.obs.observe("query.request_seconds",
                             payload["seconds"])
            return payload
        result = self._pipeline(request, program_digest)
        answer = result.query(query.var, line=query.line, obj=query.obj)
        payload.update({
            "cache": "warm" if answer.source == "warm" else "miss",
            "pts": answer.names(),
            "mask": mask_to_hex(answer.mask),
            "slice_nodes": answer.slice_nodes,
            "slice_temps": answer.slice_temps,
            "slice_fraction": round(answer.slice_fraction, 6),
            "iterations": answer.iterations,
            "seconds": time.perf_counter() - start,
        })
        if self.querystore is not None:
            engine = result._query_engine
            signature = engine.slice_signature(answer.node_uids,
                                               answer.temp_ids)
            self.querystore.put(
                digest, artifact_from_query(program_digest, signature,
                                            answer))
        self.obs.observe("query.request_seconds", payload["seconds"])
        return payload

    def flush_obs(self, obs) -> None:
        if self.querystore is not None:
            self.querystore.flush_obs(obs)
