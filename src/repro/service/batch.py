"""The batch driver: one in-process gateway session, one
``repro.batch/1`` report.

:func:`run_batch` takes the request path ``repro serve`` takes. It
starts a :class:`~repro.gateway.server.Gateway`'s shards with no
listener, submits every request, and builds the report from the final
answers. So the shards' whole-program cache and warm demand engines
answer batch requests as they answer serve's, every miss runs the
whole pipeline, and the gateway's ladder (deadline kill, one crash
retry, degradation; see :mod:`repro.service.runner`) is batch's too.

- **Dedup.** Every request is submitted before any answer can arrive,
  so requests with the same content digest join one in-flight job and
  the analysis runs once. Each row after the first of a job is a
  ``cache: "dedup"`` follower that shares its answer.
- **Errors.** A request whose analysis raises (say, a ``ParseError``)
  gets an ``error`` row instead of a summary; the rest of the batch is
  unaffected.
- **Queries.** ``op: query`` spec entries take the same path and answer
  in ``queries`` rows.

Telemetry: each miss's shard span (the ``repro.metrics/1`` snapshot
the gateway hands over on the job's ``InflightJob.span``) merges into
the batch observer in request order. Each miss also records
``pool.run_seconds`` (the answer's own ``seconds``),
``pool.queue_seconds`` (the rest of the wall time since submission)
and ``request.seconds`` (both). The top-level phases of the same spans
sum to ``aggregate.phase_seconds``. Each query job's span brings its
``query.*`` counters, the shards' shutdown snapshots bring the
``cache.*`` store tallies, and the gateway's dispatch counters come
along (``gateway.dispatched``, ``gateway.retries``, ...). Hits and
dedup followers add no samples, so a fully warm batch's rollup is
byte-identical across reruns (asserted by the telemetry suite).
Misses slower than ``slow_ms`` keep their per-phase profile as
``exemplars``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import Observer
from repro.schemas import BATCH_SCHEMA
from repro.service.cache import ArtifactCache
from repro.service.requests import AnalysisRequest, QueryRequest

#: The gateway's dispatch counters a batch rollup carries (its
#: ``gateway.*_seconds`` histograms stay out: a warm batch's rollup
#: holds no wall-clock samples).
_GATEWAY_COUNTERS = ("gateway.dispatched", "gateway.retries",
                    "gateway.deadline_kills", "gateway.shard_deaths",
                    "gateway.degraded")


@dataclass
class BatchOutcome:
    """One analysis request's row: the final answer its job got, a
    result body or an error body."""

    name: str
    digest: str
    request_id: str
    body: Dict[str, object]
    cache: str = "miss"            # "hit" | "miss" | "dedup"
    #: The answer's own time: the shard's run, or the time since
    #: submission for a degraded fallback after a kill or crash and
    #: for an error.
    seconds: float = 0.0
    #: The rest of the time from submission to the answer: waiting
    #: for a shard, and any lost attempt before a retry.
    queue_seconds: float = 0.0
    attempts: int = 0
    #: The miss's shard span; None for hits, dedup followers, errors,
    #: and answers whose shard died under them.
    obs_snapshot: Optional[Dict[str, object]] = None

    @property
    def status(self) -> str:
        return self.body["status"]  # type: ignore[return-value]

    @property
    def error(self) -> Optional[Dict[str, object]]:
        return self.body.get("error")  # type: ignore[return-value]

    def solver_iterations(self) -> int:
        """The sparse-solver iterations this row ran in this batch."""
        if self.cache != "miss" or self.error is not None:
            return 0
        return self.body["summary"].get(  # type: ignore[union-attr]
            "solver_iterations", 0)


@dataclass
class BatchReport:
    """The aggregated result of one batch run."""

    name: str
    workers: int
    outcomes: List[BatchOutcome]
    total_seconds: float
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    #: The batch's final ``repro.metrics/1`` rollup: counters, gauges,
    #: merged worker histograms, and cross-request phase seconds.
    metrics: Optional[Dict[str, object]] = None
    #: Per-phase profiles auto-captured for requests over ``slow_ms``.
    exemplars: List[Dict[str, object]] = field(default_factory=list)
    #: Demand-query answers (``op: query`` spec entries).
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
                "queue_seconds": round(outcome.queue_seconds, 6),
                "attempts": outcome.attempts,
                "request_id": outcome.request_id,
            }
            if outcome.error is not None:
                row["error"] = dict(outcome.error)
            else:
                row["summary"] = dict(outcome.body["summary"])  # type: ignore[call-overload]
                if "degraded_reason" in outcome.body:
                    row["degraded_reason"] = outcome.body["degraded_reason"]
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
                # row's summary.
                "solver_iterations": sum(
                    o.solver_iterations() for o in self.outcomes),
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
                    outcome.obs_snapshot["phase_seconds"].items():  # type: ignore[union-attr]
                if "/" not in path:
                    total[path] = total.get(path, 0.0) + float(seconds)
        return {name: round(seconds, 6)
                for name, seconds in sorted(total.items())}


def _entry(request: AnalysisRequest) -> Dict[str, object]:
    """*request* as a gateway request entry."""
    entry: Dict[str, object] = {"name": request.name,
                                "source": request.source,
                                "config": request.config.to_dict()}
    if request.timeout is not None:
        entry["timeout"] = request.timeout
    return entry


async def _session(entries: List[Dict[str, object]], options):
    """Answer *entries* on one gateway session. Returns each entry's
    job and its ``(final body, seconds since submission)``, the shards'
    shutdown snapshots, and the gateway's dispatch counters."""
    import asyncio

    # Built inside the running loop: on CPython 3.9 the gateway's
    # asyncio objects bind to the loop current at construction.
    from repro.gateway.server import Gateway
    gateway = Gateway(options)

    async def final(job, start: float):
        events = job.subscribe()
        while True:
            _kind, body, done = await events.get()
            if done:
                return body, time.perf_counter() - start

    await gateway.pool.start()
    try:
        start = time.perf_counter()
        # Nothing answers before this loop yields, so identical
        # entries join one in-flight job: a repeat runs once, however
        # fast the first answer comes.
        jobs = [gateway.submit(entry) for entry in entries]
        finals = await asyncio.gather(*(final(job, start) for job in jobs))
    finally:
        byes = await gateway.pool.shutdown()
    counters = {name: gateway.obs.counters[name]
                for name in _GATEWAY_COUNTERS if name in gateway.obs.counters}
    return jobs, finals, byes, counters


def run_batch(requests: List[AnalysisRequest],
              workers: int = 1,
              cache: Optional[ArtifactCache] = None,
              timeout: Optional[float] = None,
              obs: Optional[Observer] = None,
              name: str = "batch",
              slow_ms: Optional[float] = None,
              queries: Optional[List[QueryRequest]] = None) -> BatchReport:
    """Run *requests* (and *queries*) on one gateway session of
    ``workers`` shards and aggregate the report.

    The shards share the cache directory of *cache* (and its size
    bound); *timeout* is each request's default wall-clock deadline,
    past which its shard is killed and the answer degrades.

    *slow_ms* enables exemplar capture: every cache-miss request whose
    wall clock exceeds the threshold lands in ``report.exemplars``
    with its per-phase breakdown and dominant phase.

    *queries* (``op: query`` spec entries, parsed by
    :func:`repro.service.requests.requests_from_spec`) are answered by
    the shards' demand engines; a bad query never fails the batch —
    the error rides in the query's row.
    """
    import asyncio

    from repro.gateway.server import GatewayOptions

    observer = obs if obs is not None else Observer(name=name)
    queries = queries or []
    # Span ids, deterministic in request order (rerunning the same
    # batch assigns the same ids — part of the warm-rollup
    # byte-identity guarantee).
    for i, request in enumerate(requests):
        request.request_id = f"r{i:04d}"
    for i, query in enumerate(queries):
        query.request.request_id = f"q{i:04d}"
    entries = [_entry(request) for request in requests] + [
        dict(_entry(query.request), op="query", var=query.var,
             line=query.line, obj=query.obj) for query in queries]
    options = GatewayOptions(
        workers=min(workers, len(entries)) or 1,
        # Every entry is queued at once; none may be shed.
        max_queue=len(entries),
        cache_root=str(cache.root) if cache is not None else None,
        cache_max_bytes=cache.max_bytes if cache is not None else None,
        timeout=timeout)
    start = time.perf_counter()
    jobs, finals, byes, gateway_counters = asyncio.run(
        _session(entries, options))
    total_seconds = time.perf_counter() - start

    outcomes: List[BatchOutcome] = []
    answered = set()
    for request, job, (body, wall) in zip(requests, jobs, finals):
        outcome = BatchOutcome(name=request.name, digest=request.digest(),
                               request_id=request.request_id, body=body,
                               cache="dedup")
        if job not in answered:
            answered.add(job)
            outcome.cache = body.get("cache", "miss")
            outcome.seconds = body.get("seconds", wall)
            outcome.queue_seconds = max(0.0, wall - outcome.seconds)
            # A worker-reported error is never retried.
            outcome.attempts = body.get("attempts", 1)
            outcome.obs_snapshot = job.span
        outcomes.append(outcome)
    query_rows: List[Dict[str, object]] = []
    for query, (body, _wall) in zip(queries, finals[len(requests):]):
        row: Dict[str, object] = {
            "op": "query", "name": query.request.name, "var": query.var,
            "line": query.line, "obj": query.obj}
        row.update(body)
        row.pop("span", None)        # the gateway's job id
        row["request_id"] = query.request.request_id
        query_rows.append(row)

    # Telemetry: merge each miss's span (worker-side counters +
    # per-phase times -> cross-request phase.* distributions) and
    # record the dispatch histograms. Hits and dedup followers are
    # deliberately excluded — they did no work, and keeping the warm
    # path free of wall-clock samples makes a fully cached batch's
    # rollup byte-identical across reruns.
    for outcome in outcomes:
        if outcome.cache != "miss":
            continue
        if outcome.obs_snapshot is not None:
            observer.merge_metrics(outcome.obs_snapshot)
        observer.observe("pool.run_seconds", outcome.seconds)
        observer.observe("pool.queue_seconds", outcome.queue_seconds)
        observer.observe("request.seconds",
                         outcome.seconds + outcome.queue_seconds)
    for job in dict.fromkeys(jobs[len(requests):]):
        if job.span is not None:
            observer.merge_metrics(job.span)
    for snapshot in byes:
        observer.merge_metrics(snapshot)
    for counter, count in gateway_counters.items():
        observer.count(counter, count)

    deduped = sum(1 for o in outcomes if o.cache == "dedup")
    observer.count("batch.requests", len(requests))
    observer.count("batch.unique_requests", len(requests) - deduped)
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
                   sum(o.solver_iterations() for o in outcomes))
    if query_rows:
        observer.count("batch.queries", len(query_rows))
        errors = sum(1 for row in query_rows if row["status"] == "error")
        if errors:
            observer.count("batch.query_errors", errors)
    observer.gauge("batch.workers", workers)
    hits = observer.counter("batch.cache_hits")
    misses = observer.counter("batch.cache_misses")
    if cache is not None and hits + misses:
        observer.gauge("cache.hit_rate", round(hits / (hits + misses), 6))

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

