"""Executing one analysis request end to end.

The degradation ladder (the availability contract of the gateway,
which ``repro serve`` and ``repro batch`` run on — every request gets
an answer, never a crashed batch):

1. the full FSAM pipeline, under ``config.time_budget`` if set;
2. cooperative budget exhaustion (``AnalysisTimeout``) degrades where
   it happens, inside the shard worker, to rung 4;
3. when a shard dies under a job (:func:`retry_lost`): a parent-side
   wall-clock kill degrades at once; a crash is retried once, then
   degrades;
4. the Andersen-only fallback: compile + pre-analysis, packaged as a
   ``degraded=True`` artifact with flow-insensitive top-level
   points-to sets and no memory states (or the Andersen preview the
   shard already streamed).

An exception the analysis itself raises (a ``ParseError``, say) is
terminal: it repeats on every attempt, so it is never retried and the
answer carries the error instead of an artifact.

:func:`run_full` and :func:`run_degraded` are the shard's rungs;
:func:`run_request_inline` walks rungs 1, 2 and 4 in-process for
callers that want the artifact itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.frontend import compile_source
from repro.fsam import FSAM
from repro.fsam.config import AnalysisTimeout
from repro.minic.errors import MiniCError
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
    """One request run in-process by :func:`run_request_inline`."""

    name: str
    digest: str
    artifact: AnalysisArtifact
    seconds: float = 0.0           # total, both rungs included
    attempts: int = 1
    #: The request's ``repro.metrics/1`` telemetry span, the same shape
    #: a shard ships back with a miss.
    obs_snapshot: Optional[Dict[str, object]] = None

    @property
    def status(self) -> str:
        return "degraded" if self.artifact.degraded else "ok"


def error_record(exc: BaseException) -> Dict[str, object]:
    """The ``{"type", "message", "code"}`` record a failed request
    carries. A MiniC diagnostic in the request's source is the
    client's error: code 400, plus its ``line`` and ``col``. Anything
    else is code 500."""
    record: Dict[str, object] = {"type": type(exc).__name__,
                                 "message": str(exc), "code": 500}
    if isinstance(exc, MiniCError):
        record.update(code=400, line=exc.line, col=exc.col)
    return record


def run_full(request: AnalysisRequest, obs: Observer,
             funcstore=None, on_preanalysis=None) -> AnalysisArtifact:
    """Rung 1: the whole pipeline. Raises
    :class:`~repro.fsam.config.AnalysisTimeout` on budget exhaustion.

    When *funcstore* (a :class:`repro.service.cache.FuncArtifactStore`)
    is given, the run consults the per-function artifact layer: DUG
    regions downstream of changed functions are re-solved from scratch
    while states proven unchanged are preloaded from the store, and the
    fresh per-function facts are harvested back into the store. Results
    are bit-identical either way.

    *obs* is the request's span: the compile and every FSAM phase are
    timed under it, so its ``repro.metrics/1`` snapshot captures the
    whole attempt — a budget-exhausted one's partial work included —
    for shipping back to the dispatcher.

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
    with obs.phase("compile"):
        module = compile_source(request.source, name=request.name, obs=obs)
    fsam = FSAM(module, request.config, obs=obs, **kwargs)
    result = fsam.run()
    return artifact_from_result(request.name, result)


def run_degraded(request: AnalysisRequest,
                 reason: str = "budget-exhausted") -> AnalysisArtifact:
    """Rung 4: Andersen-only. Deliberately ignores the request budget
    — the pre-analysis is orders of magnitude cheaper than the sparse
    solve, and the ladder must terminate with a result."""
    from repro.andersen import run_andersen

    module = compile_source(request.source, name=request.name)
    andersen = run_andersen(module)
    return artifact_from_andersen(request.name, module, andersen,
                                  reason=reason)


def retry_lost(reason: str, attempts: int) -> bool:
    """Rung 3, the gateway's decision when a shard dies under a job:
    retry a ``worker-crash`` once; degrade a ``wall-clock-timeout``
    kill, or a second crash, at once."""
    return reason == "worker-crash" and attempts < 2


def run_request_inline(request: AnalysisRequest,
                       funcstore=None) -> RequestOutcome:
    """The in-process ladder: full pipeline, degrading on budget
    exhaustion. No retry — re-running the same deterministic analysis
    under the same in-process budget exhausts it again. An exception
    the analysis raises propagates.

    The attempt runs under a per-request span Observer whose
    ``repro.metrics/1`` snapshot lands on ``outcome.obs_snapshot``.
    A *funcstore* shared across calls is not flushed here: its
    counters span every call."""
    obs = Observer(name=request.request_id or request.name)
    start = time.perf_counter()
    attempts = 1
    try:
        artifact = run_full(request, obs, funcstore=funcstore)
    except AnalysisTimeout:
        attempts += 1
        artifact = run_degraded(request)
    return RequestOutcome(
        name=request.name,
        digest=request.digest(),
        artifact=artifact,
        seconds=time.perf_counter() - start,
        attempts=attempts,
        obs_snapshot=obs.to_metrics_dict(),
    )


class QueryRunner:
    """Executes demand queries for the gateway's shards (batch and
    serve included) and ``repro query``.

    Three rungs, cheapest first:

    1. **disk hit**: the query artifact store answers straight from
       ``<cache>/query/`` — no compile, no pipeline, zero solver work;
    2. **warm engine**: an already-built demand pipeline for the same
       program digest whose accumulated solved slices cover the query
       (``source == "warm"``, zero iterations);
    3. **cold solve**: build (or reuse) the prepared pipeline
       (:meth:`~repro.fsam.FSAM.prepare`), slice backward from the
       query, run the delta engine over the sub-DUG.

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
            if getattr(self.obs, "enabled", False):
                # A warm pipeline records into the runner's current
                # observer (a shard sets one per job), not the one it
                # was built under.
                result.obs = self.obs
                if result._query_engine is not None:
                    result._query_engine.obs = self.obs
            return result
        kwargs: Dict[str, object] = {}
        if getattr(self.obs, "enabled", False):
            with self.obs.phase("compile"):
                module = compile_source(request.source, name=request.name,
                                        obs=self.obs)
            kwargs["obs"] = self.obs
        else:
            module = compile_source(request.source, name=request.name)
        result = FSAM(module, request.config, **kwargs).prepare()
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
            self.querystore.put(
                digest, artifact_from_query(program_digest, answer))
        self.obs.observe("query.request_seconds", payload["seconds"])
        return payload

    def flush_obs(self, obs) -> None:
        if self.querystore is not None:
            self.querystore.flush_obs(obs)
