"""The batch driver: dedup -> cache -> shards -> one ``repro.batch/1``
report.

Execution plan for a batch of requests:

1. **dedup** — requests are grouped by content digest; each distinct
   (source, config, code version) runs at most once, and followers
   share the representative's artifact (``cache: "dedup"``);
2. **cache** — distinct digests are looked up in the
   :class:`~repro.service.cache.ArtifactCache`; hits skip the solver
   entirely (a warm batch performs zero sparse-solver iterations,
   asserted by the differential suite);
3. **dispatch** — misses go to the shard workers
   (:func:`~repro.service.shards.run_requests`), or run inline when
   ``workers <= 1`` (:func:`~repro.service.runner.run_inline`), each
   walking the degradation ladder. A request whose analysis raises
   (say, a ``ParseError``) gets an ``error`` row instead of an
   artifact; the rest of the batch is unaffected;
4. **report** — per-request rows plus aggregated counters and phase
   times, as one ``repro.batch/1`` document. The top-level phases of
   the miss spans (below) are summed into ``aggregate.phase_seconds``.

Telemetry: every dispatched request carries a span id (``rNNNN`` in
request order) and runs under its own Observer — in the shard for
pooled dispatch, in-process for inline — whose ``repro.metrics/1``
snapshot comes back on the outcome. The driver merges miss
snapshots into the batch observer (cross-request
``phase.*`` latency distributions, worker-side counters; the shards'
FuncArtifactStore tallies arrive with their shutdown), records
``pool.run_seconds`` /
``pool.queue_seconds`` / ``request.seconds`` histograms, and embeds
the final rollup in the report as ``metrics``. Hits and dedup
followers contribute nothing to histograms or phase times, so a fully
warm batch's rollup is byte-identical across reruns (asserted by the
telemetry suite). Requests slower than ``slow_ms`` capture their
per-phase profile as ``exemplars``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import Observer
from repro.schemas import BATCH_SCHEMA
from repro.service.cache import (
    ArtifactCache, FuncArtifactStore, QueryArtifactStore,
)
from repro.service.requests import AnalysisRequest, QueryRequest
from repro.service.runner import (
    QueryRunner, RequestOutcome, error_record, run_inline,
)
from repro.service.shards import run_requests


@dataclass
class BatchReport:
    """The aggregated result of one batch run."""

    name: str
    workers: int
    outcomes: List[RequestOutcome]
    total_seconds: float
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    #: The batch's final ``repro.metrics/1`` rollup: counters, gauges,
    #: merged worker histograms, and cross-request phase seconds.
    metrics: Optional[Dict[str, object]] = None
    #: Per-phase profiles auto-captured for requests over ``slow_ms``.
    exemplars: List[Dict[str, object]] = field(default_factory=list)
    #: Demand-query response payloads (``op: query`` spec entries),
    #: answered after the analysis dispatch by the demand engine.
    queries: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        rows = []
        for outcome in self.outcomes:
            row: Dict[str, object] = {
                "name": outcome.name,
                "digest": outcome.digest,
                "status": outcome.status,
                "cache": outcome.cache,
                "seconds": round(outcome.seconds, 6),
                # Per-attempt wall clocks, one per degradation rung.
                # ``seconds`` measures from first dispatch and
                # includes killed attempts plus requeue wait; these do
                # not.
                "attempt_seconds": [round(s, 6)
                                    for s in outcome.attempt_seconds],
                # Slot wait (enqueue -> dispatch, also before a
                # retry), disjoint from the attempt entries.
                "queue_seconds": round(outcome.queue_seconds, 6),
                "attempts": outcome.attempts,
            }
            if outcome.request_id is not None:
                row["request_id"] = outcome.request_id
            if outcome.error is not None:
                row["error"] = dict(outcome.error)
            else:
                row["summary"] = dict(outcome.artifact.summary)
                if outcome.artifact.degraded:
                    row["degraded_reason"] = \
                        outcome.artifact.degraded_reason
            rows.append(row)
        return {
            "schema": BATCH_SCHEMA,
            "name": self.name,
            "workers": self.workers,
            "total_seconds": round(self.total_seconds, 6),
            "requests": rows,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "aggregate": {
                "phase_seconds": self._aggregate_phase_seconds(),
                # Work performed by THIS batch only: cache hits and
                # dedup followers contribute nothing, so a fully warm
                # batch reports zero iterations (the differential
                # suite and the CI batch-smoke job assert exactly
                # that). The cold run's count survives inside each
                # artifact's summary.
                "solver_iterations": sum(
                    o.artifact.solver_iterations()
                    for o in self.outcomes
                    if o.cache == "miss" and o.error is None),
                "degraded": sum(
                    1 for o in self.outcomes if o.status == "degraded"),
            },
            "metrics": self.metrics,
            "exemplars": list(self.exemplars),
            "queries": list(self.queries),
        }

    def _aggregate_phase_seconds(self) -> Dict[str, float]:
        """Sum each top-level phase across the cache-miss spans — the
        same snapshots, in the same order, that the ``metrics`` rollup
        merges, so the two totals agree. A degraded request's span
        holds its budget-exhausted attempt's partial work; hits and
        dedup followers did no work in this batch."""
        total: Dict[str, float] = {}
        for outcome in self.outcomes:
            if outcome.cache != "miss" or outcome.obs_snapshot is None:
                continue
            for path, seconds in \
                    outcome.obs_snapshot["phase_seconds"].items():
                if "/" not in path:
                    total[path] = total.get(path, 0.0) + float(seconds)
        return {name: round(seconds, 6)
                for name, seconds in sorted(total.items())}


def run_batch(requests: List[AnalysisRequest],
              workers: int = 1,
              cache: Optional[ArtifactCache] = None,
              timeout: Optional[float] = None,
              obs: Optional[Observer] = None,
              name: str = "batch",
              incremental: bool = True,
              slow_ms: Optional[float] = None,
              queries: Optional[List[QueryRequest]] = None) -> BatchReport:
    """Run *requests* to completion and aggregate the report.

    ``workers <= 1`` runs inline (no subprocesses) — the serial
    reference arm of the differential suite and the no-multiprocessing
    escape hatch; there the wall-clock *timeout* becomes each request's
    cooperative budget. Otherwise misses run on ``workers`` shards under
    *timeout* as a per-request wall-clock deadline.

    With *incremental* (the default) and a cache configured, a
    per-function artifact store lives next to the whole-program
    entries under ``<cache>/func``: requests whose program digest
    misses can still reuse the previous fixpoint for unchanged
    functions (see :mod:`repro.service.incremental`).

    *slow_ms* enables exemplar capture: every cache-miss request whose
    wall clock exceeds the threshold lands in ``report.exemplars``
    with its per-phase breakdown and dominant phase.

    *queries* (``op: query`` spec entries, parsed by
    :func:`repro.service.requests.requests_from_spec`) run after the
    analysis dispatch through a shared
    :class:`~repro.service.runner.QueryRunner`: warm answers come from
    ``<cache>/query`` without building a pipeline; the batch never
    fails on a bad query — the error rides in the query's row.
    """
    observer = obs if obs is not None else Observer(name=name)
    funcstore_root = str(cache.root) \
        if incremental and cache is not None else None
    start = time.perf_counter()

    # 0. span ids, deterministic in request order (rerunning the same
    # batch assigns the same ids — part of the warm-rollup
    # byte-identity guarantee).
    for i, request in enumerate(requests):
        request.request_id = f"r{i:04d}"

    # 1. dedup by content digest.
    digest_of: List[str] = [request.digest() for request in requests]
    representative: Dict[str, int] = {}
    for i, digest in enumerate(digest_of):
        representative.setdefault(digest, i)
    unique_indices = sorted(representative.values())

    # 2. cache lookups for distinct digests.
    resolved: Dict[str, RequestOutcome] = {}
    to_run: List[AnalysisRequest] = []
    for i in unique_indices:
        digest = digest_of[i]
        if cache is not None:
            lookup_start = time.perf_counter()
            artifact = cache.get(digest)
            if artifact is not None:
                resolved[digest] = RequestOutcome(
                    name=requests[i].name, digest=digest,
                    artifact=artifact, cache="hit",
                    seconds=time.perf_counter() - lookup_start,
                    attempts=0, request_id=requests[i].request_id)
                continue
        to_run.append(requests[i])

    # 3. dispatch misses.
    if to_run:
        if workers > 1:
            fresh = run_requests(to_run, workers, timeout=timeout,
                                 funcstore_root=funcstore_root,
                                 obs=observer)
        else:
            funcstore = FuncArtifactStore(funcstore_root) \
                if funcstore_root is not None else None
            fresh = [run_inline(request, timeout, funcstore=funcstore)
                     for request in to_run]
            if funcstore is not None:
                # The inline funcstore is shared across every request
                # in the batch; flush its tallies once (the shards
                # flush their own store into their shutdown snapshot).
                funcstore.flush_obs(observer)
        for outcome in fresh:
            resolved[outcome.digest] = outcome
            if cache is not None and outcome.error is None:
                cache.put(outcome.digest, outcome.artifact)

    # 4. fan results back out to every original request.
    outcomes: List[RequestOutcome] = []
    deduped = 0
    for i, request in enumerate(requests):
        digest = digest_of[i]
        base = resolved[digest]
        if i == representative[digest]:
            outcomes.append(base)
        else:
            deduped += 1
            outcomes.append(RequestOutcome(
                name=request.name, digest=digest, artifact=base.artifact,
                cache="dedup", seconds=0.0, attempts=0,
                request_id=request.request_id, error=base.error))

    # 5. demand queries, after the analysis dispatch (a query against
    # a program this batch just analysed still slices fresh — the two
    # cache layers are independent — but its artifact store may already
    # be warm from an earlier batch).
    query_rows: List[Dict[str, object]] = []
    if queries:
        querystore = QueryArtifactStore(cache.root) \
            if cache is not None else None
        queryrunner = QueryRunner(querystore=querystore, obs=observer)
        for i, query in enumerate(queries):
            query.request.request_id = f"q{i:04d}"
            try:
                row = queryrunner.run(query)
            except Exception as exc:  # noqa: BLE001 - reported in-row
                row = {
                    "op": "query", "name": query.request.name,
                    "var": query.var, "line": query.line,
                    "obj": query.obj, "status": "error",
                    "error": error_record(exc),
                }
            row["request_id"] = query.request.request_id
            query_rows.append(row)
        observer.count("batch.queries", len(query_rows))
        errors = sum(1 for row in query_rows if row["status"] == "error")
        if errors:
            observer.count("batch.query_errors", errors)
        queryrunner.flush_obs(observer)

    total_seconds = time.perf_counter() - start

    # Telemetry: merge each miss's span snapshot (worker-side counters
    # + per-phase times -> cross-request phase.* distributions) and
    # record the dispatch histograms. Hits and dedup followers are
    # deliberately excluded — they did no work, and keeping the warm
    # path free of wall-clock samples makes a fully cached batch's
    # rollup byte-identical across reruns.
    for outcome in outcomes:
        if outcome.cache != "miss":
            continue
        if outcome.obs_snapshot is not None:
            observer.merge_metrics(outcome.obs_snapshot)
        for attempt_s in outcome.attempt_seconds:
            observer.observe("pool.run_seconds", attempt_s)
        observer.observe("pool.queue_seconds", outcome.queue_seconds)
        observer.observe("request.seconds", outcome.seconds)

    observer.count("batch.requests", len(requests))
    observer.count("batch.unique_requests", len(unique_indices))
    observer.count("batch.deduped", deduped)
    observer.count("batch.cache_hits",
                   sum(1 for o in outcomes if o.cache == "hit"))
    observer.count("batch.cache_misses",
                   sum(1 for o in outcomes if o.cache == "miss"))
    observer.count("batch.degraded",
                   sum(1 for o in outcomes if o.status == "degraded"))
    errors = sum(1 for o in outcomes if o.error is not None)
    if errors:
        observer.count("batch.errors", errors)
    # Solver work this batch actually performed — zero on a fully warm
    # batch (the repro.obs-counter form of the cache guarantee).
    observer.count("batch.solver_iterations",
                   sum(o.artifact.solver_iterations() for o in outcomes
                       if o.cache == "miss" and o.error is None))
    if cache is not None:
        cache.flush_obs(observer)
    observer.gauge("batch.workers", workers)
    hits = observer.counter("batch.cache_hits")
    misses = observer.counter("batch.cache_misses")
    if cache is not None and hits + misses:
        observer.gauge("cache.hit_rate", round(hits / (hits + misses), 6))
    func_hits = observer.counter("cache.func_hits")
    func_misses = observer.counter("cache.func_misses")
    if func_hits + func_misses:
        observer.gauge("cache.func_hit_rate",
                       round(func_hits / (func_hits + func_misses), 6))

    # Exemplars: slow misses keep their full per-phase breakdown in
    # the report, so "why was r0003 slow?" survives aggregation.
    exemplars: List[Dict[str, object]] = []
    if slow_ms is not None:
        threshold = slow_ms / 1000.0
        slow = sorted((o for o in outcomes
                       if o.cache == "miss" and o.error is None
                       and o.seconds >= threshold),
                      key=lambda o: o.seconds, reverse=True)
        for outcome in slow[:8]:
            phases = {}
            if outcome.obs_snapshot is not None:
                phases = outcome.obs_snapshot.get("phase_seconds", {})
            top_level = {path: seconds for path, seconds in phases.items()
                         if "/" not in path}
            exemplars.append({
                "name": outcome.name,
                "request_id": outcome.request_id,
                "seconds": round(outcome.seconds, 6),
                "queue_seconds": round(outcome.queue_seconds, 6),
                "dominant_phase": max(top_level, key=top_level.get)
                if top_level else None,
                "phase_seconds": {path: round(float(seconds), 6)
                                  for path, seconds
                                  in sorted(phases.items())},
            })
        observer.count("batch.slow_requests", len(exemplars))

    return BatchReport(
        name=name,
        workers=workers,
        outcomes=outcomes,
        total_seconds=total_seconds,
        counters=dict(observer.counters),
        gauges=dict(observer.gauges),
        metrics=observer.to_metrics_dict(),
        exemplars=exemplars,
        queries=query_rows,
    )


# -- schema -----------------------------------------------------------------


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"invalid batch report: {message}")


def validate_batch_report(doc: object) -> Dict[str, object]:
    """Check *doc* against ``repro.batch/1``; returns it unchanged
    (same contract as the other validators — no jsonschema
    dependency)."""
    _check(isinstance(doc, dict), "top level is not an object")
    assert isinstance(doc, dict)
    _check(doc.get("schema") == BATCH_SCHEMA,
           f"schema is {doc.get('schema')!r}, expected {BATCH_SCHEMA!r}")
    _check(isinstance(doc.get("name"), str), "name is not a string")
    _check(isinstance(doc.get("workers"), int) and doc["workers"] >= 1,
           "workers is not a positive integer")
    _check(isinstance(doc.get("total_seconds"), (int, float))
           and doc["total_seconds"] >= 0,
           "total_seconds missing or negative")
    rows = doc.get("requests")
    _check(isinstance(rows, list), "requests is not a list")
    assert isinstance(rows, list)
    for i, row in enumerate(rows):
        _check(isinstance(row, dict), f"requests[{i}] is not an object")
        assert isinstance(row, dict)
        _check(isinstance(row.get("name"), str),
               f"requests[{i}] name is not a string")
        _check(isinstance(row.get("digest"), str)
               and len(row["digest"]) == 64,
               f"requests[{i}] digest is not a sha256 hex string")
        _check(row.get("status") in ("ok", "degraded", "error"),
               f"requests[{i}] status {row.get('status')!r} invalid")
        _check(row.get("cache") in ("hit", "miss", "dedup"),
               f"requests[{i}] cache {row.get('cache')!r} invalid")
        _check(isinstance(row.get("seconds"), (int, float))
               and row["seconds"] >= 0,
               f"requests[{i}] seconds missing or negative")
        attempt_seconds = row.get("attempt_seconds", [])
        _check(isinstance(attempt_seconds, list)
               and all(isinstance(s, (int, float)) and s >= 0
                       for s in attempt_seconds),
               f"requests[{i}] attempt_seconds is not a list of "
               "non-negative numbers")
        _check(isinstance(row.get("attempts"), int) and row["attempts"] >= 0,
               f"requests[{i}] attempts is not a non-negative integer")
        queue_seconds = row.get("queue_seconds", 0)
        _check(isinstance(queue_seconds, (int, float)) and queue_seconds >= 0,
               f"requests[{i}] queue_seconds is not a non-negative number")
        request_id = row.get("request_id")
        _check(request_id is None or isinstance(request_id, str),
               f"requests[{i}] request_id is not a string")
        if row["status"] == "error":
            _check(isinstance(row.get("error"), dict),
                   f"requests[{i}] error record missing")
        else:
            _check(isinstance(row.get("summary"), dict),
                   f"requests[{i}] summary is not an object")
    counters = doc.get("counters")
    _check(isinstance(counters, dict), "counters is not an object")
    assert isinstance(counters, dict)
    for key, value in counters.items():
        _check(isinstance(key, str) and isinstance(value, int) and value >= 0,
               f"counter {key!r} is not a non-negative integer")
    aggregate = doc.get("aggregate")
    _check(isinstance(aggregate, dict), "aggregate is not an object")
    assert isinstance(aggregate, dict)
    _check(isinstance(aggregate.get("phase_seconds"), dict),
           "aggregate.phase_seconds is not an object")
    _check(isinstance(aggregate.get("solver_iterations"), int),
           "aggregate.solver_iterations is not an integer")
    metrics = doc.get("metrics")
    if metrics is not None:
        from repro.obs import validate_metrics
        try:
            validate_metrics(metrics)
        except ValueError as exc:
            _check(False, f"embedded metrics rollup invalid: {exc}")
    exemplars = doc.get("exemplars", [])
    _check(isinstance(exemplars, list), "exemplars is not a list")
    assert isinstance(exemplars, list)
    for i, exemplar in enumerate(exemplars):
        _check(isinstance(exemplar, dict)
               and isinstance(exemplar.get("name"), str)
               and isinstance(exemplar.get("seconds"), (int, float))
               and isinstance(exemplar.get("phase_seconds"), dict),
               f"exemplars[{i}] is not a slow-request record")
    # Absent on pre-query reports — missing means "no queries ran".
    query_rows = doc.get("queries", [])
    _check(isinstance(query_rows, list), "queries is not a list")
    assert isinstance(query_rows, list)
    for i, row in enumerate(query_rows):
        _check(isinstance(row, dict)
               and isinstance(row.get("name"), str)
               and isinstance(row.get("var"), str)
               and row.get("status") in ("ok", "error"),
               f"queries[{i}] is not a query record")
        assert isinstance(row, dict)
        if row["status"] == "ok":
            _check(row.get("cache") in ("hit", "warm", "miss"),
                   f"queries[{i}] cache {row.get('cache')!r} invalid")
            _check(isinstance(row.get("pts"), list),
                   f"queries[{i}] pts is not a list")
            _check(isinstance(row.get("iterations"), int)
                   and row["iterations"] >= 0,
                   f"queries[{i}] iterations is not a non-negative "
                   "integer")
        else:
            _check(isinstance(row.get("error"), dict),
                   f"queries[{i}] error record missing")
    return doc


def render_batch_report(doc: Dict[str, object]) -> str:
    """Human-readable batch report (delegates to the harness renderer
    so ``repro batch`` and harness consumers share one formatter)."""
    from repro.harness.export import render_batch_report as _render
    return _render(doc)
