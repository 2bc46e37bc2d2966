"""Executing one analysis request end to end.

The degradation ladder (the availability contract of batch and the
gateway, ``repro serve`` included — every request gets an answer,
never a crashed batch):

1. the full FSAM pipeline, under ``config.time_budget`` if set;
2. cooperative budget exhaustion (``AnalysisTimeout``) degrades where
   it happens — inline, or inside the shard worker — to rung 4;
3. when a shard dies under a job (:func:`retry_lost`): a parent-side
   wall-clock kill degrades at once; a crash is retried once on a live
   shard, then degrades;
4. the Andersen-only fallback: compile + pre-analysis, packaged as a
   ``degraded=True`` artifact with flow-insensitive top-level
   points-to sets and no memory states (or, in the gateway, the
   Andersen preview it already streamed).

An exception the analysis itself raises (a ``ParseError``, say) is
terminal: it repeats on every attempt, so it is never retried and the
request's outcome carries the error instead of an artifact.

:func:`run_inline` is the ``workers <= 1`` arm of batch;
:func:`repro.service.shards.run_requests` is the pooled arm.
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
    #: None exactly when the request failed (see ``error``).
    artifact: Optional[AnalysisArtifact]
    cache: str = "miss"            # "hit" | "miss" | "dedup"
    seconds: float = 0.0           # total, from the first attempt's start
    attempts: int = 1
    #: Wall-clock duration of each individual attempt (including the
    #: final degraded fallback, when one ran). ``seconds`` measures the
    #: whole request from the first dispatch and therefore also
    #: contains requeue wait before a retry; the per-attempt entries
    #: do not.
    attempt_seconds: List[float] = field(default_factory=list)
    #: Time spent waiting for a worker slot: the delay from enqueue to
    #: the first dispatch plus any requeue wait before a retry.
    #: Disjoint from ``attempt_seconds`` — queue wait vs attempt work
    #: feed separate latency histograms.
    queue_seconds: float = 0.0
    #: Span id assigned by the dispatcher (see ``AnalysisRequest``).
    request_id: Optional[str] = None
    #: The request's ``repro.metrics/1`` telemetry span — recorded by
    #: the worker-side Observer and shipped back through the shard
    #: pipe (pooled) or captured in-process (inline). Every miss runs
    #: under one; None for cache hits, dedup followers, requests that
    #: raised, and requests whose shard died under them (the span
    #: died with it).
    obs_snapshot: Optional[Dict[str, object]] = None
    #: ``{"type", "message"}`` of the exception that failed the
    #: request; terminal, never retried.
    error: Optional[Dict[str, str]] = None

    @property
    def status(self) -> str:
        if self.error is not None:
            return "error"
        return "degraded" if self.artifact.degraded else "ok"


def error_record(exc: BaseException) -> Dict[str, str]:
    """The ``{"type", "message"}`` record a failed request carries."""
    return {"type": type(exc).__name__, "message": str(exc)}


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
    """Rung 3, the one decision both shard parents (the gateway and
    :func:`~repro.service.shards.run_requests`) make when a shard dies
    under a job: retry a ``worker-crash`` once on a live shard; degrade
    a ``wall-clock-timeout`` kill, or a second crash, at once."""
    return reason == "worker-crash" and attempts < 2


def run_request_inline(request: AnalysisRequest,
                       funcstore=None) -> RequestOutcome:
    """The serial ladder: full pipeline, degrading on budget
    exhaustion. No retry — re-running the same deterministic analysis
    under the same in-process budget exhausts it again.

    The attempt runs under a per-request span Observer whose
    ``repro.metrics/1`` snapshot lands on ``outcome.obs_snapshot`` —
    the same shape a shard worker ships back, so batch aggregation
    is dispatch-agnostic. (The shared inline *funcstore*
    is deliberately not flushed here: its counters span the whole
    batch and are flushed once by the dispatcher, not once per
    request.)"""
    obs = Observer(name=request.request_id or request.name)
    start = time.perf_counter()
    attempts = 1
    attempt_seconds = []
    try:
        artifact = run_full(request, obs, funcstore=funcstore)
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
        obs_snapshot=obs.to_metrics_dict(),
    )


def run_inline(request: AnalysisRequest, timeout: Optional[float] = None,
               funcstore=None) -> RequestOutcome:
    """The ``workers <= 1`` arm of batch. There is no process
    to kill inline, so the request's wall-clock timeout (else
    *timeout*) becomes its cooperative budget; an exception the
    analysis raises becomes the outcome's terminal ``error``."""
    if request.timeout is not None:
        timeout = request.timeout
    if timeout is not None and request.config.time_budget is None:
        config = FSAMConfig.from_dict(request.config.to_dict())
        config.time_budget = timeout
        request = AnalysisRequest(
            name=request.name, source=request.source, config=config,
            timeout=request.timeout, request_id=request.request_id)
    start = time.perf_counter()
    try:
        return run_request_inline(request, funcstore=funcstore)
    except Exception as exc:  # noqa: BLE001 - reported in the outcome
        seconds = time.perf_counter() - start
        return RequestOutcome(
            name=request.name, digest=request.digest(), artifact=None,
            seconds=seconds, attempt_seconds=[seconds],
            request_id=request.request_id, error=error_record(exc))


class QueryRunner:
    """Executes demand queries for batch, the gateway's shards and
    ``repro query``.

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
            if getattr(self.obs, "enabled", False):
                # A warm pipeline records into the runner's current
                # observer (a shard sets one per job), not the one it
                # was built under.
                result.obs = self.obs
                if result._query_engine is not None:
                    result._query_engine.obs = self.obs
            return result
        config_fields = request.config.to_dict()
        config_fields["solver_mode"] = "demand"
        config = FSAMConfig(**config_fields)
        kwargs: Dict[str, object] = {}
        if getattr(self.obs, "enabled", False):
            with self.obs.phase("compile"):
                module = compile_source(request.source, name=request.name,
                                        obs=self.obs)
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
