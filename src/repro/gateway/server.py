"""The asyncio analysis gateway.

Two transports share one framed-JSONL request path: a TCP port
(``repro gateway``), where each connection is detected from its first
line as framed JSONL or a minimal stdlib HTTP/1.1 surface
(``POST /analyze``, ``POST /query``, ``GET /metrics``,
``GET /healthz``; streamed responses arrive as chunked
``application/x-ndjson``), and stdin/stdout (``repro serve``), one
JSONL session without a listener. A JSONL request is one line: a
batch-spec entry plus ``tenant`` / ``stream`` / ``id`` fields,
answered with ``repro.gwframe/1`` frames that echo the ``id``.
Answers may arrive out of order.

Request path, in order:

1. **admission** — the tenant's token bucket is charged
   (:mod:`repro.gateway.admission`); an empty bucket answers with a
   structured 429 record immediately;
2. **resolution** — the entry's program reference resolves to an
   :class:`~repro.service.requests.AnalysisRequest` payload + content
   digest; a parent-side memo of ``workload`` entries generates a hot
   workload's source text once, not once per request;
3. **hot cache** — a small parent-side LRU of recent final response
   bodies answers repeats without touching any worker; it is the only
   in-memory answer cache (a shard keeps none);
4. **coalescing** — identical in-flight digests share one computation
   (:mod:`repro.gateway.coalesce`); followers replay the leader's
   frames, counted in ``gateway.coalesced``;
5. **routing + queueing** — the digest routes on the consistent-hash
   ring to its home shard; work queues per shard in priority order,
   shedding the lowest-priority entry (429) past the global
   high-water mark;
6. **execution** — the shard worker (:mod:`repro.service.shards`)
   gets the whole request with every job, answers from the on-disk
   cache or runs the pipeline, and replies with an optional streamed
   Andersen preview frame and a final result; the pool's wall-clock
   deadline hard-kills the shard and the answer degrades, reusing the
   already-streamed preview when one arrived.

Worker death reroutes only the dead shard's keys (ring arc); what
happens to its in-flight job is :func:`repro.service.runner.retry_lost`.
Every analysis answer that ran reports the job's real dispatch count
in ``attempts``.

Besides the two transports, :func:`repro.service.batch.run_batch`
drives an in-process session: it starts the shards, hands every
request to :meth:`Gateway.submit`, and reads each job's shard span
from :attr:`InflightJob.span`.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, TextIO, Tuple

from repro.gateway import protocol
from repro.gateway.admission import (
    AdmissionController, PendingQueue, TenantPolicy, shed_lowest,
)
from repro.gateway.coalesce import CoalesceTable, InflightJob
from repro.gateway.protocol import (
    BadRequest, GatewayClosing, QueueFull, RequestError, RequestTooLarge,
)
from repro.gateway.routing import HashRing
from repro.obs import Observer
from repro.service.digest import query_digest
from repro.service.requests import request_from_entry
from repro.service.runner import retry_lost
from repro.service.shards import ShardPool

#: Parent-side memo/LRU caps.
ENTRY_MEMO = 256
HOT_RESPONSES = 256

#: Keys a request entry may carry beyond the program reference.
_CONTROL_KEYS = ("op", "var", "line", "obj", "tenant", "id", "stream")


@dataclass
class GatewayOptions:
    """Everything ``repro gateway`` configures."""

    host: str = "127.0.0.1"
    port: int = 0                       # 0 = ephemeral (tests)
    workers: int = 2
    max_queue: int = 64                 # global queued-work high-water mark
    tenants: Optional[Dict[str, TenantPolicy]] = None
    cache_root: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    timeout: Optional[float] = None     # default per-request wall clock
    max_request_bytes: int = protocol.DEFAULT_MAX_REQUEST_BYTES
    max_json_depth: int = protocol.DEFAULT_MAX_JSON_DEPTH
    metrics_interval: Optional[float] = None  # see _request_answered
    metrics_stream: Optional[object] = None   # writable text stream
    base_dir: str = "."
    incremental: bool = True


@dataclass
class _Job:
    """One leader computation owned by the scheduler."""

    jid: int
    op: str                              # "analyze" | "query"
    key: str                             # coalesce key
    inflight: InflightJob
    payload: Dict[str, object]           # AnalysisRequest payload
    digest: str                          # program content digest
    query: Optional[Tuple[str, Optional[int], bool]] = None
    timeout: Optional[float] = None
    priority: int = 1
    attempts: int = 0
    enqueued: float = 0.0
    preview: Optional[Dict[str, object]] = None


class Gateway:
    """The server object; create, ``await start()``, then either
    ``await serve_forever()`` (CLI) or talk to ``gw.port`` (tests) —
    or, for ``repro serve``, just ``await serve_stdio(...)``."""

    def __init__(self, options: Optional[GatewayOptions] = None) -> None:
        self.options = options or GatewayOptions()
        self.obs = Observer(name="gateway", track_memory=False)
        self.admission = AdmissionController(self.options.tenants)
        self.coalesce = CoalesceTable()
        self.ring = HashRing()
        self.pool = ShardPool(
            self.options.workers,
            options={
                "cache_root": self.options.cache_root,
                "cache_max_bytes": self.options.cache_max_bytes,
                "incremental": self.options.incremental,
            })
        self.pool.on_event = self._on_event
        self.pool.on_shard_down = self._on_shard_down
        self.pool.on_shard_up = self._on_shard_up
        self.queues: Dict[int, PendingQueue] = {
            shard: PendingQueue() for shard in range(self.options.workers)}
        self._jobs: Dict[int, _Job] = {}
        self._jid = 0
        self._seq = 0                    # admission order for queue ties
        self._entry_memo: "OrderedDict[str, Tuple[Dict[str, object], str]]" \
            = OrderedDict()
        self._hot: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set = set()       # open client connections
        self._conn_tasks: set = set()    # their handler tasks
        self._metrics_at = time.monotonic()   # last snapshot written
        self._degrading = 0              # fallbacks running off-loop
        self._closing = False
        self._drained = asyncio.Event()
        self.port: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def _line_limit(self) -> int:
        """The JSONL reader's buffer limit: a line longer than this is
        refused and discarded unread (see :func:`_read_line`); shorter
        lines over ``max_request_bytes`` are refused after reading."""
        return self.options.max_request_bytes + 65536

    async def start(self) -> None:
        """Start the shards and the TCP listener."""
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.options.host, self.options.port,
            limit=self._line_limit)
        self.port = self._server.sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, self.begin_shutdown)

    def begin_shutdown(self) -> None:
        """Stop admitting work; :meth:`serve_forever` finishes once
        in-flight and queued requests drain."""
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
        self._maybe_drained()

    async def serve_forever(self) -> None:
        """Run until :meth:`begin_shutdown` (usually via
        SIGINT/SIGTERM), then drain in-flight work, stop the shards,
        and flush a final metrics snapshot."""
        await self._drained.wait()
        await self.shutdown()

    async def serve_stdio(self, in_fd: int, out: TextIO) -> None:
        """``repro serve``, in place of :meth:`start`: start the shards
        and run one framed-JSONL session reading *in_fd* (stdin) and
        writing *out* (stdout), until EOF with every request answered,
        or until :meth:`begin_shutdown` has drained in-flight work,
        which ends the input (lines already read are still answered).
        Then :meth:`shutdown`."""
        await self.pool.start()
        stdio = _Stdio(in_fd, out, self._line_limit)
        session = asyncio.ensure_future(self._jsonl(stdio.reader, stdio))
        drained = asyncio.ensure_future(self._drained.wait())
        await asyncio.wait((session, drained),
                           return_when=asyncio.FIRST_COMPLETED)
        drained.cancel()
        stdio.close()
        await session
        await self.shutdown()

    async def shutdown(self) -> None:
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Close lingering client connections so their handler tasks
        # finish before the loop tears down (a cancelled handler logs
        # noisily from asyncio.streams).
        for writer in list(self._writers):
            try:
                writer.close()
            except (OSError, RuntimeError):  # pragma: no cover
                pass
        if self._conn_tasks:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*list(self._conn_tasks),
                                   return_exceptions=True),
                    timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover
                pass
        for snapshot in await self.pool.shutdown():
            self.obs.merge_metrics(snapshot)
        if self.options.metrics_stream is not None:
            self._write_metrics()

    def _maybe_drained(self) -> None:
        if self._closing and not self._jobs and not self._degrading \
                and not any(len(q) for q in self.queues.values()):
            self._drained.set()

    # -- telemetry ---------------------------------------------------------

    def metrics(self) -> Dict[str, object]:
        """The gateway's ``repro.metrics/1`` snapshot."""
        self.obs.count("gateway.coalesced",
                       self.coalesce.coalesced
                       - self.obs.counter("gateway.coalesced"))
        self.obs.count("gateway.rate_limited",
                       self.admission.rate_limited
                       - self.obs.counter("gateway.rate_limited"))
        self.obs.gauge("gateway.inflight", len(self._jobs))
        self.obs.gauge("gateway.queue_depth",
                       sum(len(q) for q in self.queues.values()))
        for shard, queue in self.queues.items():
            self.obs.gauge(f"gateway.queue_depth.shard{shard}", len(queue))
        self.obs.gauge("gateway.hot_entries", len(self._hot))
        self.obs.gauge("gateway.shards", len(self.ring))
        return self.obs.to_metrics_dict()

    def _write_metrics(self) -> None:
        stream = self.options.metrics_stream
        json.dump(self.metrics(), stream, sort_keys=True)
        stream.write("\n")
        stream.flush()
        self._metrics_at = time.monotonic()

    def _request_answered(self) -> None:
        """The one ``--metrics-interval N`` rule, for both transports:
        after an answered request, write a snapshot once N seconds have
        passed since the last one (0 = after every request).
        :meth:`shutdown` writes the final one."""
        interval = self.options.metrics_interval
        if interval is not None and self.options.metrics_stream is not None \
                and time.monotonic() - self._metrics_at >= interval:
            self._write_metrics()

    # -- request intake ----------------------------------------------------

    def _resolve(self, entry: Dict[str, object]
                 ) -> Tuple[str, Dict[str, object], str,
                            Optional[Tuple[str, Optional[int], bool]]]:
        """Entry -> ``(op, request payload, program digest, query)``.
        A ``workload`` entry resolves (source generation, config
        parsing, digesting) once per distinct program via the entry
        memo. The other entries bypass it: a ``file`` entry is read on
        every request, so an edited file is analysed as it is now, and
        an inline ``source`` entry already carries its text, which a
        memo would hold twice (in its key and in its payload)."""
        op = entry.get("op", "analyze")
        if op not in ("analyze", "query"):
            raise BadRequest(f"unknown request op: {op!r}")
        program_entry = {key: value for key, value in entry.items()
                         if key not in _CONTROL_KEYS}
        memo_key = json.dumps(program_entry, sort_keys=True, default=str) \
            if "workload" in program_entry else None
        cached = self._entry_memo.get(memo_key)
        if cached is None:
            try:
                request = request_from_entry(program_entry,
                                             base_dir=self.options.base_dir)
            except (TypeError, ValueError, OSError, KeyError) as exc:
                raise BadRequest(str(exc)) from exc
            cached = (request.to_payload(), request.digest())
            if memo_key is not None:
                self._entry_memo[memo_key] = cached
                while len(self._entry_memo) > ENTRY_MEMO:
                    self._entry_memo.popitem(last=False)
        else:
            self._entry_memo.move_to_end(memo_key)
            self.obs.count("gateway.entry_memo_hits", 1)
        payload, digest = cached
        if op == "analyze":
            return op, payload, digest, None
        var = entry.get("var")
        if not isinstance(var, str) or not var:
            raise BadRequest("query entries need a non-empty 'var' string")
        line = entry.get("line")
        if line is not None and not isinstance(line, int):
            raise BadRequest(f"query line is not an integer: {line!r}")
        obj = entry.get("obj", False)
        if not isinstance(obj, bool):
            raise BadRequest(f"query obj is not a boolean: {obj!r}")
        return op, payload, digest, (var, line, obj)

    def submit(self, entry: Dict[str, object]) -> InflightJob:
        """Admit one parsed request entry; returns the job whose
        ``(kind, body, final)`` events answer it (``subscribe()`` for a
        queue of them).  Identical requests in flight share one job.
        Raises a :class:`~repro.gateway.protocol.RequestError` when the
        request is refused outright (rate limit, bad entry, closing)."""
        if self._closing:
            raise GatewayClosing("gateway is draining for shutdown")
        self.obs.count("gateway.requests", 1)
        policy = self.admission.admit(entry.get("tenant"))
        op, payload, digest, query = self._resolve(entry)
        if op == "query":
            key = "q:" + query_digest(digest, query[0], line=query[1],
                                      obj=query[2])
        else:
            key = "a:" + digest
        hot = self._hot.get(key)
        if hot is not None:
            self._hot.move_to_end(key)
            self.obs.count("gateway.hot_hits", 1)
            body = dict(hot)
            body["cache"] = "hot"
            job = InflightJob(key, op)
            job.publish("result", body, final=True)
            return job
        job, leader = self.coalesce.join(key, op)
        if not leader:
            self.obs.count("gateway.coalesce_attach", 1)
            return job
        self._jid += 1
        timeout = payload.get("timeout")
        gjob = _Job(jid=self._jid, op=op, key=key, inflight=job,
                    payload=payload, digest=digest, query=query,
                    timeout=timeout if timeout is not None
                    else self.options.timeout,
                    priority=policy.priority, enqueued=time.monotonic())
        self._enqueue(gjob)
        return job

    def _enqueue(self, gjob: _Job) -> None:
        shard = self.ring.route(gjob.digest)
        if shard is None:  # pragma: no cover - ring never stays empty
            self._finish_with_error(
                gjob, RequestError("no shards available"))
            return
        total = sum(len(q) for q in self.queues.values())
        if total >= self.options.max_queue:
            victim_queue, admit = shed_lowest(self.queues.values(),
                                              gjob.priority)
            if not admit:
                self.obs.count("gateway.shed", 1)
                self._finish_with_error(gjob, QueueFull(
                    f"gateway queue is full ({total} pending) and tenant "
                    f"priority {gjob.priority} is not above the lowest "
                    "queued work"))
                return
            victim = victim_queue.shed_tail()
            self.obs.count("gateway.shed", 1)
            self._finish_with_error(victim, QueueFull(
                "shed by higher-priority work past the gateway "
                f"high-water mark ({self.options.max_queue})"))
        self._seq += 1
        self.queues[shard].push(gjob.priority, self._seq, gjob)
        self._pump(shard)

    def _finish_with_error(self, gjob: _Job, exc: RequestError) -> None:
        self._answer(gjob, "error", protocol.error_body(exc))

    def _answer(self, gjob: _Job, kind: str,
                body: Dict[str, object]) -> None:
        """Publish *gjob*'s final event. An analysis answer that ran (a
        miss, degraded or not) reports the job's dispatch count: the
        shard that answered knows only its own attempt."""
        if kind == "result" and gjob.op == "analyze" \
                and body.get("cache") == "miss":
            body["attempts"] = gjob.attempts
        if not gjob.inflight.done:
            gjob.inflight.publish(kind, body, final=True)
        self.coalesce.finish(gjob.key)
        self._maybe_drained()

    # -- shard scheduling --------------------------------------------------

    def _pump(self, shard: int) -> None:
        queue = self.queues[shard]
        while len(queue) and self.pool.idle(shard):
            gjob: _Job = queue.pop()  # type: ignore[assignment]
            self._dispatch(shard, gjob)

    def _dispatch(self, shard: int, gjob: _Job) -> None:
        gjob.attempts += 1
        span = f"g{gjob.jid:04d}"
        if gjob.op == "query":
            message: Dict[str, object] = {
                "job_kind": "query",
                "payload": {"request": dict(gjob.payload, request_id=span),
                            "var": gjob.query[0], "line": gjob.query[1],
                            "obj": gjob.query[2]},
            }
        else:
            message = {"job_kind": "analyze", "stream": True,
                       "payload": dict(gjob.payload, request_id=span)}
        try:
            self.pool.submit(shard, gjob.jid, gjob, message,
                             timeout=gjob.timeout)
        except BrokenPipeError:
            # The shard died under us; the death callback rebalances.
            self._seq += 1
            self.queues[shard].push(gjob.priority, self._seq, gjob)
            return
        self._jobs[gjob.jid] = gjob
        self.obs.count("gateway.dispatched", 1)

    # -- shard callbacks ---------------------------------------------------

    def _on_event(self, shard: int, jid: int, kind: str,
                  body: Dict[str, object], final: bool,
                  obs_snapshot: Optional[Dict[str, object]]) -> None:
        gjob = self._jobs.get(jid)
        if gjob is None:
            return  # stale (post-deadline) message
        if not final:
            if kind == "andersen":
                gjob.preview = body
                if not gjob.inflight.done:
                    gjob.inflight.publish("andersen", body)
            return
        del self._jobs[jid]
        gjob.inflight.span = obs_snapshot
        if obs_snapshot is not None:
            self.obs.merge_metrics(obs_snapshot)
        self._answer(gjob, kind, body)
        if kind == "error":
            self.obs.count("gateway.errors", 1)
        else:
            self._record_result(gjob, body)
        self._pump(shard)

    def _record_result(self, gjob: _Job, body: Dict[str, object]) -> None:
        wall = time.monotonic() - gjob.enqueued
        self.obs.observe("gateway.request_seconds", wall)
        self.obs.observe(f"gateway.{gjob.op}_seconds", wall)
        cache = body.get("cache")
        if cache in ("hit", "warm", "miss"):
            self.obs.count(f"gateway.worker_cache_{cache}", 1)
        if body.get("status") == "degraded":
            self.obs.count("gateway.degraded", 1)
        elif body.get("status") == "ok":
            self._hot[gjob.key] = body
            self._hot.move_to_end(gjob.key)
            while len(self._hot) > HOT_RESPONSES:
                self._hot.popitem(last=False)

    def _on_shard_down(self, shard: int, lost: List[_Job],
                       reason: str) -> None:
        # The pool respawns the shard right after this. A lone shard
        # stays on the ring: its retried and queued work waits on its
        # queue for the respawn instead of finding no shard at all.
        rerouted = len(self.ring) > 1
        if rerouted:
            self.ring.remove(shard)
        self.obs.count("gateway.shard_deaths", 1)
        if reason == "wall-clock-timeout":
            self.obs.count("gateway.deadline_kills", 1)
        for gjob in lost:
            self._jobs.pop(gjob.jid, None)
            if retry_lost(reason, gjob.attempts):
                self.obs.count("gateway.retries", 1)
                self._enqueue(gjob)
            else:
                self._degrade(gjob, reason)
        if rerouted:
            # Queued (not yet dispatched) work moves to the survivors.
            pending = self.queues[shard]
            moved = len(pending)
            while len(pending):
                self._enqueue(pending.pop())  # type: ignore[arg-type]
            if moved:
                self.obs.count("gateway.rebalanced", moved)
        self._maybe_drained()

    def _on_shard_up(self, shard: int) -> None:
        self.ring.add(shard)
        self._pump(shard)

    def _degrade(self, gjob: _Job, reason: str) -> None:
        """Terminal fallback for a killed/crashed attempt: reuse the
        already-streamed Andersen preview when one arrived; otherwise
        compute the Andersen-only artifact off-loop."""
        self.obs.count("gateway.degraded", 1)
        if gjob.op == "query":
            # Queries have no degraded form — exactness is their point.
            self._finish_with_error(gjob, RequestError(
                f"query attempt lost to {reason}"))
            return
        if gjob.preview is not None:
            body = dict(gjob.preview)
            body["status"] = "degraded"
            body["degraded_reason"] = reason
            body["seconds"] = round(time.monotonic() - gjob.enqueued, 6)
            self._answer(gjob, "result", body)
            return

        def compute() -> Dict[str, object]:
            from repro.service.requests import AnalysisRequest
            from repro.service.runner import run_degraded
            from repro.service.shards import _response_body
            request = AnalysisRequest.from_payload(gjob.payload)
            artifact = run_degraded(request, reason=reason)
            return _response_body(request, gjob.digest, artifact, "miss",
                                  time.monotonic() - gjob.enqueued)

        def publish(task: "asyncio.Future") -> None:
            self._degrading -= 1
            try:
                body = task.result()
            except BaseException as exc:  # noqa: BLE001
                self._finish_with_error(gjob, RequestError(str(exc)))
                return
            self._answer(gjob, "result", body)

        self._degrading += 1
        loop = asyncio.get_event_loop()
        future = loop.run_in_executor(None, compute)
        asyncio.ensure_future(future).add_done_callback(publish)

    # -- transports --------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            first = await _read_line(reader)
            if first == (b"", False):
                return
            line, oversized = first
            if not oversized and protocol.looks_like_http(line):
                await self._http(line, reader, writer)
            else:
                await self._jsonl(reader, writer, first)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- framed JSONL ------------------------------------------------------

    async def _jsonl(self, reader: asyncio.StreamReader, writer,
                     first: Optional[Tuple[bytes, bool]] = None) -> None:
        """One framed-JSONL session: a TCP connection (*first* is the
        line the transport detection read) or ``repro serve``'s stdio.
        Every line runs as its own task, so answers may arrive out of
        order. While ``max_queue`` of the session's requests are
        unanswered, reading pauses: a pipelining client is paced, never
        shed by its own backlog."""
        lock = asyncio.Lock()
        unanswered: set = set()
        line, oversized = first if first is not None \
            else await _read_line(reader)
        while line or oversized:
            text = line.decode("utf-8", errors="replace").strip()
            if text or oversized:
                task = asyncio.ensure_future(self._jsonl_request(
                    None if oversized else text, writer, lock))
                unanswered.add(task)
                task.add_done_callback(unanswered.discard)
                if len(unanswered) >= self.options.max_queue:
                    await asyncio.wait(unanswered,
                                       return_when=asyncio.FIRST_COMPLETED)
            line, oversized = await _read_line(reader)
        if unanswered:
            await asyncio.gather(*unanswered, return_exceptions=True)

    async def _write_frame(self, writer, lock: asyncio.Lock,
                           frame: Dict[str, object]) -> bool:
        """Write one frame; False when its body would not serialise and
        a final error frame with the same ``seq`` and ``id`` went out
        instead."""
        written = True
        try:
            text = json.dumps(frame, sort_keys=True)
        except (TypeError, ValueError) as exc:
            self.obs.count("gateway.errors", 1)
            text = json.dumps(protocol.error_frame(
                exc, seq=frame["seq"], request_id=frame.get("id")),
                sort_keys=True)
            written = False
        async with lock:
            writer.write((text + "\n").encode("utf-8"))
            await writer.drain()
        return written

    async def _jsonl_request(self, text: Optional[str], writer,
                             lock: asyncio.Lock) -> None:
        """Answer one line (None: a line over the reader's limit)."""
        request_id: object = None
        try:
            try:
                if text is None:
                    raise RequestTooLarge(
                        "request line is over "
                        f"{self.options.max_request_bytes} bytes; raise "
                        "--max-request-bytes to accept it")
                entry = protocol.parse_request_text(
                    text, max_request_bytes=self.options.max_request_bytes,
                    max_depth=self.options.max_json_depth)
                request_id = entry.get("id")
                stream = bool(entry.get("stream", False))
                events = self.submit(entry).subscribe()
            except Exception as exc:  # noqa: BLE001 - one final frame a line
                self.obs.count("gateway.refused" if isinstance(
                    exc, RequestError) else "gateway.errors", 1)
                await self._write_frame(
                    writer, lock,
                    protocol.error_frame(exc, request_id=request_id))
                return
            seq = 0
            while True:
                kind, body, final = await events.get()
                if not final and not stream:
                    continue
                if not await self._write_frame(
                        writer, lock, protocol.make_frame(
                            kind, body, seq=seq, final=final,
                            request_id=request_id)) or final:
                    return
                seq += 1
        except (ConnectionResetError, BrokenPipeError):
            pass                         # the client left
        finally:
            self._request_answered()

    # -- HTTP --------------------------------------------------------------

    async def _http(self, request_line: bytes,
                    reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
        headers: List[bytes] = []
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            headers.append(line)
            if len(headers) > 100:
                writer.write(protocol.http_response(
                    400, b'{"error": "too many headers"}'))
                await writer.drain()
                return
        try:
            method, path, query, header_map = protocol.parse_http_head(
                request_line, headers)
        except BadRequest as exc:
            writer.write(protocol.http_response(
                exc.code, json.dumps(protocol.error_body(exc),
                                     sort_keys=True).encode("utf-8")))
            await writer.drain()
            return
        if method == "GET" and path == "/healthz":
            body = {"status": "ok", "shards": len(self.ring),
                    "inflight": len(self._jobs)}
            writer.write(protocol.http_response(
                200, json.dumps(body, sort_keys=True).encode("utf-8")))
            await writer.drain()
            return
        if method == "GET" and path == "/metrics":
            writer.write(protocol.http_response(
                200, json.dumps(self.metrics(),
                                sort_keys=True).encode("utf-8")))
            await writer.drain()
            return
        if path not in ("/analyze", "/query"):
            writer.write(protocol.http_response(
                404, b'{"error": "unknown path"}'))
            await writer.drain()
            return
        if method != "POST":
            writer.write(protocol.http_response(
                405, b'{"error": "use POST"}'))
            await writer.drain()
            return
        try:
            await self._http_request(path, query, header_map, reader,
                                     writer)
        finally:
            self._request_answered()

    async def _http_request(self, path: str, query: Dict[str, str],
                            headers: Dict[str, str],
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        request_id: object = None
        try:
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError as exc:
                raise BadRequest("bad Content-Length") from exc
            if length > self.options.max_request_bytes:
                raise RequestTooLarge(
                    f"request body is {length} bytes "
                    f"(limit {self.options.max_request_bytes})")
            body = await reader.readexactly(length) if length else b""
            entry = protocol.parse_request_text(
                body.decode("utf-8", errors="replace"),
                max_request_bytes=self.options.max_request_bytes,
                max_depth=self.options.max_json_depth)
            if path == "/query":
                entry["op"] = "query"
            request_id = entry.get("id")
            stream = query.get("stream", "") in ("1", "true", "yes") \
                or bool(entry.get("stream", False))
            events = self.submit(entry).subscribe()
        except RequestError as exc:
            self.obs.count("gateway.refused", 1)
            writer.write(protocol.http_response(
                exc.code,
                json.dumps(protocol.error_body(exc, request_id=request_id),
                           sort_keys=True).encode("utf-8")))
            await writer.drain()
            return
        except asyncio.IncompleteReadError:
            writer.write(protocol.http_response(
                400, b'{"error": "truncated body"}'))
            await writer.drain()
            return
        if stream:
            writer.write(protocol.http_stream_head())
            await writer.drain()
            seq = 0
            while True:
                kind, frame_body, final = await events.get()
                frame = protocol.make_frame(kind, frame_body, seq=seq,
                                            final=final,
                                            request_id=request_id)
                writer.write(protocol.http_chunk(
                    (json.dumps(frame, sort_keys=True) + "\n")
                    .encode("utf-8")))
                await writer.drain()
                seq += 1
                if final:
                    break
            writer.write(protocol.http_stream_tail())
            await writer.drain()
            return
        while True:
            kind, frame_body, final = await events.get()
            if final:
                break
        status = 200
        if kind == "error":
            status = frame_body.get("error", {}).get("code", 500)
        frame = protocol.make_frame(kind, frame_body, seq=0, final=True,
                                    request_id=request_id)
        writer.write(protocol.http_response(
            status, (json.dumps(frame, sort_keys=True) + "\n")
            .encode("utf-8")))
        await writer.drain()


async def _read_line(reader: asyncio.StreamReader) -> Tuple[bytes, bool]:
    """The next JSONL line and whether it was over the reader's limit
    (``(b"", False)`` at EOF). An oversized line is discarded through
    its newline, a buffer at a time, so the session keeps its place in
    the stream without ever holding the whole line."""
    try:
        return await reader.readuntil(b"\n"), False
    except asyncio.IncompleteReadError as exc:
        return exc.partial, False        # the last line had no newline
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            pass
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
            continue
        return b"", True


class _Stdio:
    """``repro serve``'s stdin and stdout as one JSONL session: the
    writer surface :meth:`Gateway._jsonl` writes frames to, and the
    transport of the :class:`asyncio.StreamReader` it reads lines from.

    A daemon thread reads the input descriptor with ``os.read`` and
    hands each chunk to the loop, then waits until the reader wants
    more (its buffer is back under the limit), so at most one chunk is
    in flight. It never reads through ``sys.stdin``: a shard forked while
    a thread is blocked in ``sys.stdin.readline()`` hangs in the
    child-side ``sys.stdin.close()``, and would never serve; a blocked
    ``os.read`` holds no lock the child needs."""

    def __init__(self, in_fd: int, out: TextIO, limit: int) -> None:
        self._loop = asyncio.get_running_loop()
        self._out = out
        self._paused = False
        self._closed = False
        self._wanted = threading.Event()
        self.reader = asyncio.StreamReader(limit=limit)
        self.reader.set_transport(self)
        threading.Thread(target=self._pump, args=(in_fd,),
                         name="stdin-reader", daemon=True).start()

    def _pump(self, in_fd: int) -> None:
        chunk = b"\n"
        while chunk and not self._closed:
            try:
                chunk = os.read(in_fd, 1 << 16)
            except OSError:
                chunk = b""
            self._wanted.clear()
            try:
                self._loop.call_soon_threadsafe(self._deliver, chunk)
            except RuntimeError:        # the loop is gone
                return
            self._wanted.wait()

    def _deliver(self, chunk: bytes) -> None:
        if not self._closed:
            if chunk:
                self.reader.feed_data(chunk)
            else:
                self.close()
        if not self._paused:
            self._wanted.set()

    # StreamReader flow control (its buffer over twice the limit).
    def pause_reading(self) -> None:
        self._paused = True

    def resume_reading(self) -> None:
        self._paused = False
        self._wanted.set()

    # The StreamWriter surface.
    def write(self, data: bytes) -> None:
        self._out.write(data.decode("utf-8"))

    async def drain(self) -> None:
        self._out.flush()

    def close(self) -> None:
        """End the input: lines already buffered are still read."""
        if not self._closed:
            self._closed = True
            self.reader.feed_eof()
        self._wanted.set()
