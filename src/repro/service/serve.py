"""``repro serve``: a long-lived stdin/JSONL request loop.

One JSON object per input line, one JSON response per output line —
the simplest possible analysis-as-a-service wire protocol, pipeable
from any client::

    {"workload": "word_count"}
    {"id": 7, "file": "examples/fig1a.mc", "timeout": 30}
    {"source": "int main() { return 0; }", "name": "tiny"}

Request entries use the same forms as the batch spec (see
:mod:`repro.service.requests`), plus an optional ``id`` echoed back
verbatim so clients can correlate out-of-order pipelines. An entry
tagged ``{"op": "query", "var": "p", ...}`` is a *demand query*: it
answers what one variable (or, with ``"obj": true``, one abstract
object) may point to by solving only the backward DUG slice that can
reach it — served from the ``<cache>/query/`` artifact store when
warm (see :class:`repro.service.runner.QueryRunner`). The loop
ends at EOF. Responses carry the request digest, cache disposition,
degradation status, and the artifact summary; malformed lines produce
a structured error record — ``{"status": "error", "error": {"type":
..., "message": ...}}`` with the ``id`` still echoed — instead of
killing the loop, and a response that itself fails to serialize is
downgraded to the same record rather than tearing down the server.

Requests are executed through the same cache + shard machinery as
``repro batch``: warm requests are served from the artifact cache
without running any analysis, cold ones run on a shard worker under
the per-request wall-clock timeout (inline when ``workers <= 1``,
where the timeout becomes the cooperative budget). A request whose
analysis raises answers with the same structured error record.

Telemetry: each request gets a serial span id (``sNNNN``) and runs
under its own Observer; cache-miss snapshots merge into the loop's
*obs*, building cross-request ``phase.*`` histograms plus
``pool.run_seconds`` / ``pool.queue_seconds`` distributions. With
*metrics_stream* set, the loop emits the cumulative ``repro.metrics/1``
snapshot as one JSONL line at least *metrics_interval* seconds apart
(0 = after every request) and once more at EOF — the live feed
``repro serve --metrics-interval`` exposes.
"""

from __future__ import annotations

import json
import signal
import time
from typing import Dict, Optional, TextIO, Tuple

from repro.gateway.protocol import (
    DEFAULT_MAX_JSON_DEPTH, DEFAULT_MAX_REQUEST_BYTES, RequestTooDeep,
    RequestTooLarge, json_depth,
)
from repro.obs import NULL_OBS, Observer
from repro.service.cache import (
    ArtifactCache, FuncArtifactStore, QueryArtifactStore,
)
from repro.service.requests import query_from_entry, request_from_entry
from repro.service.runner import (
    QueryRunner, RequestOutcome, error_record, run_inline,
)
from repro.service.shards import run_requests


def _response(outcome: RequestOutcome, request_id) -> Dict[str, object]:
    response: Dict[str, object] = {
        "name": outcome.name,
        "digest": outcome.digest,
        "status": outcome.status,
        "cache": outcome.cache,
        "seconds": round(outcome.seconds, 6),
        "queue_seconds": round(outcome.queue_seconds, 6),
        "attempts": outcome.attempts,
        "summary": dict(outcome.artifact.summary),
    }
    if outcome.request_id is not None:
        response["span"] = outcome.request_id
    if outcome.artifact.degraded:
        response["degraded_reason"] = outcome.artifact.degraded_reason
    if request_id is not None:
        response["id"] = request_id
    return response


def _error_response(error: Dict[str, str], request_id) -> Dict[str, object]:
    response: Dict[str, object] = {"status": "error", "error": error}
    if request_id is not None:
        response["id"] = request_id
    return response


def _emit(response: Dict[str, object], out_stream: TextIO,
          request_id, obs: Observer) -> bool:
    """Write one response line; returns False if the response had to
    be downgraded to an error record because it would not serialize."""
    try:
        text = json.dumps(response, sort_keys=True)
        ok = True
    except (TypeError, ValueError) as exc:
        obs.count("serve.errors")
        text = json.dumps(_error_response(error_record(exc), request_id),
                          sort_keys=True)
        ok = False
    out_stream.write(text + "\n")
    out_stream.flush()
    return ok


class _ShutdownInterrupt(Exception):
    """Raised by the signal handler only while the loop is blocked in
    a read — never mid-request, so in-flight work always drains."""


class ShutdownFlag:
    """Cooperative SIGINT/SIGTERM shutdown for :func:`serve_loop`.

    The handler sets :attr:`requested`; if the loop is blocked waiting
    for the next request line it is interrupted immediately, otherwise
    the current request finishes and the loop exits before reading
    another.  Either way the loop flushes its final metrics snapshot
    and returns normally (the CLI then exits 0).
    """

    def __init__(self) -> None:
        self.requested = False
        self.reading = False

    def trigger(self, signum=None, frame=None) -> None:
        self.requested = True
        if self.reading:
            raise _ShutdownInterrupt()

    def install(self) -> dict:
        """Route SIGINT and SIGTERM to :meth:`trigger` (main thread
        only; tests drive :meth:`trigger` directly instead).  Returns
        the previous dispositions for :meth:`restore` — a caller that
        leaves the handlers behind poisons every process forked later
        in the same interpreter (``Process.terminate`` then merely
        sets this flag in the child instead of killing it)."""
        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, self.trigger)
        return previous

    @staticmethod
    def restore(previous: dict) -> None:
        """Reinstate the dispositions :meth:`install` replaced."""
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _read_request_line(in_stream: TextIO, limit: Optional[int]
                       ) -> Tuple[Optional[str], bool]:
    """One request line, reading at most ``limit`` characters before
    deciding the line is oversized.  Returns ``(text, oversized)``;
    text None means EOF.  An oversized line is drained (in bounded
    chunks) up to its newline so the loop can keep serving, without
    the whole hostile payload ever being held in memory."""
    if limit is None:
        line = in_stream.readline()
        return (line if line else None), False
    line = in_stream.readline(limit + 1)
    if not line:
        return None, False
    if len(line) <= limit or line.endswith("\n"):
        return line, False
    while True:  # drain the rest of the oversized line
        chunk = in_stream.readline(1 << 16)
        if not chunk or chunk.endswith("\n"):
            return line[:80], True


def _emit_metrics(obs: Observer, metrics_stream: Optional[TextIO]) -> None:
    """Write one cumulative ``repro.metrics/1`` snapshot line."""
    if metrics_stream is None:
        return
    metrics_stream.write(json.dumps(obs.to_metrics_dict(),
                                    sort_keys=True) + "\n")
    metrics_stream.flush()


def serve_loop(in_stream: TextIO, out_stream: TextIO,
               workers: int = 1,
               cache: Optional[ArtifactCache] = None,
               timeout: Optional[float] = None,
               base_dir: str = ".",
               obs: Observer = NULL_OBS,
               incremental: bool = True,
               metrics_interval: Optional[float] = None,
               metrics_stream: Optional[TextIO] = None,
               max_request_bytes: Optional[int] = DEFAULT_MAX_REQUEST_BYTES,
               max_json_depth: Optional[int] = DEFAULT_MAX_JSON_DEPTH,
               shutdown: Optional[ShutdownFlag] = None) -> int:
    """Serve requests from *in_stream* until EOF; returns the number
    of successfully served (non-error) responses.

    Input hardening: request lines over *max_request_bytes* and JSON
    nested deeper than *max_json_depth* produce structured
    ``RequestTooLarge`` / ``RequestTooDeep`` error records — the line
    is refused by a linear pre-scan before ``json.loads`` ever runs.

    With a *shutdown* :class:`ShutdownFlag` (the CLI installs one on
    SIGINT/SIGTERM), the loop drains the in-flight request, flushes
    the final metrics snapshot, and returns normally.

    With *incremental* (the default) and a cache, program-digest
    misses still reuse per-function fixpoints from ``<cache>/func``
    (see :mod:`repro.service.incremental`).

    With *metrics_stream*, cumulative ``repro.metrics/1`` snapshots go
    out as JSONL: one line whenever at least *metrics_interval* seconds
    (default 0: every request) have passed since the last, plus a final
    line at EOF after the pool/cache/funcstore tallies are flushed.
    Counters in the stream are cumulative and therefore monotonic
    (checked by :func:`repro.obs.validate_metrics_stream`)."""
    if metrics_stream is not None and not obs.enabled:
        # A metrics stream without a live observer would emit empty
        # snapshots; upgrade to a real (memory-tracking-free) one.
        obs = Observer(name="serve", track_memory=False)
    funcstore_root = str(cache.root) \
        if incremental and cache is not None else None
    # Inline dispatch shares one funcstore across the whole loop; the
    # shards flush their own store into the snapshot run_requests
    # merges.
    funcstore = FuncArtifactStore(funcstore_root) \
        if funcstore_root is not None and workers <= 1 else None
    querystore = QueryArtifactStore(cache.root) if cache is not None else None
    queryrunner: Optional[QueryRunner] = None
    served = 0
    serial = 0
    interval = metrics_interval if metrics_interval is not None else 0.0
    last_emit = time.monotonic()
    while True:
        if shutdown is not None and shutdown.requested:
            break
        try:
            if shutdown is not None:
                shutdown.reading = True
            try:
                line, oversized = _read_request_line(in_stream,
                                                     max_request_bytes)
            finally:
                if shutdown is not None:
                    shutdown.reading = False
        except _ShutdownInterrupt:
            break
        if line is None:
            break
        line = line.strip()
        if not line and not oversized:
            continue
        request_id = None
        error = False
        try:
            if oversized:
                raise RequestTooLarge(
                    f"request line exceeds {max_request_bytes} bytes "
                    f"(starts {line!r}); raise --max-request-bytes to "
                    "accept it")
            if max_json_depth is not None:
                depth = json_depth(line)
                if depth > max_json_depth:
                    raise RequestTooDeep(
                        f"request JSON nests {depth} levels deep "
                        f"(limit {max_json_depth})")
            entry = json.loads(line)
            if isinstance(entry, dict):
                request_id = entry.pop("id", None)
            if isinstance(entry, dict) and entry.get("op") == "query":
                # Demand query: answered from the query artifact store,
                # a warm demand pipeline, or a backward-slice solve —
                # always inline (the pipeline LRU lives in-process).
                query = query_from_entry(entry, base_dir=base_dir)
                query.request.request_id = f"s{serial:04d}"
                serial += 1
                if queryrunner is None:
                    queryrunner = QueryRunner(querystore=querystore,
                                              obs=obs)
                response = queryrunner.run(query)
                response["span"] = query.request.request_id
                if request_id is not None:
                    response["id"] = request_id
                obs.count("serve.requests")
                if response["cache"] == "hit":
                    obs.count("serve.cache_hits")
                if _emit(response, out_stream, request_id, obs):
                    served += 1
                if metrics_stream is not None \
                        and time.monotonic() - last_emit >= interval:
                    _emit_metrics(obs, metrics_stream)
                    last_emit = time.monotonic()
                continue
            request = request_from_entry(entry, base_dir=base_dir)
            request.request_id = f"s{serial:04d}"
            serial += 1
            digest = request.digest()
            artifact = cache.get(digest) if cache is not None else None
            if artifact is not None:
                outcome = RequestOutcome(
                    name=request.name, digest=digest, artifact=artifact,
                    cache="hit", seconds=0.0, attempts=0,
                    request_id=request.request_id)
            elif workers > 1:
                outcome = run_requests([request], workers, timeout=timeout,
                                       funcstore_root=funcstore_root,
                                       obs=obs)[0]
            else:
                outcome = run_inline(request, timeout, funcstore=funcstore)
            if outcome.error is not None:
                # The analysis raised (in a shard or inline): the same
                # record an exception raised here produces.
                response = _error_response(outcome.error, request_id)
                error = True
                obs.count("serve.errors")
            else:
                if cache is not None and outcome.cache == "miss":
                    cache.put(outcome.digest, outcome.artifact)
                response = _response(outcome, request_id)
                obs.count("serve.requests")
                if outcome.cache == "hit":
                    obs.count("serve.cache_hits")
                if outcome.cache == "miss":
                    # The request's span: worker-side (or inline)
                    # counters and phase times merge into the loop
                    # observer; hits stay out of the latency histograms
                    # — they did no analysis work.
                    if outcome.obs_snapshot is not None:
                        obs.merge_metrics(outcome.obs_snapshot)
                    for attempt_s in outcome.attempt_seconds:
                        obs.observe("pool.run_seconds", attempt_s)
                    obs.observe("pool.queue_seconds",
                                outcome.queue_seconds)
                    obs.observe("request.seconds", outcome.seconds)
                if outcome.artifact.degraded:
                    obs.count("serve.degraded")
        except Exception as exc:  # noqa: BLE001 - reported on the wire
            response = _error_response(error_record(exc), request_id)
            error = True
            obs.count("serve.errors")
        if _emit(response, out_stream, request_id, obs) and not error:
            served += 1
        if metrics_stream is not None \
                and time.monotonic() - last_emit >= interval:
            _emit_metrics(obs, metrics_stream)
            last_emit = time.monotonic()
    if funcstore is not None:
        funcstore.flush_obs(obs)
    if querystore is not None and queryrunner is not None:
        querystore.flush_obs(obs)
    if cache is not None:
        cache.flush_obs(obs)
    if cache is not None:
        hits = obs.counter("serve.cache_hits")
        total = obs.counter("serve.requests")
        if total:
            obs.gauge("cache.hit_rate", round(hits / total, 6))
    _emit_metrics(obs, metrics_stream)
    return served
