"""Shard workers: the one execution core of the gateway, which
``repro serve`` and ``repro batch`` run too.

A **shard** is a worker process that serves analysis jobs over one
duplex pipe until it is told to stop. It is the only code that spawns
analysis processes. Every analyze job carries its whole request, and
a shard answers it from the on-disk
:class:`~repro.service.cache.ArtifactCache` (``cache: "hit"``) or by
running the pipeline (``"miss"``); the gateway's response LRU is the
one in-memory answer cache. Across the jobs of one incarnation a
shard keeps:

- the on-disk stores (whole-program, per-function and query) under
  the cache root;
- a :class:`~repro.service.runner.QueryRunner` whose per-program
  demand pipelines stay warm between queries.

The parent side (:class:`ShardPool`) lives inside an asyncio loop: one
duplex pipe per shard, a daemon reader thread per shard that posts
worker messages back onto the loop (``call_soon_threadsafe``), at most
one in-flight job per shard, a wall-clock kill timer per job (the
shard is killed and respawned), and crash detection with respawn.
What happens to a job its shard died under is the parent's decision,
made by :func:`repro.service.runner.retry_lost`. The parent is the
gateway (:mod:`repro.gateway.server`), which routes by program digest
on a consistent-hash ring so per-program state stays warm.

Worker messages are small dicts; every job answer is a sequence of
``(kind, body, final)`` events matching the gateway's frame model:
an optional ``andersen`` preview, then exactly one final ``result``
or ``error``.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.fsam.config import AnalysisTimeout
from repro.obs import Observer
from repro.service.artifacts import artifact_from_andersen
from repro.service.cache import (
    ArtifactCache, FuncArtifactStore, QueryArtifactStore,
)
from repro.service.requests import AnalysisRequest, QueryRequest
from repro.service.runner import QueryRunner, run_degraded, run_full

#: The signals whose handlers a shard must not inherit from its parent.
_PARENT_SIGNALS = {signal.SIGINT, signal.SIGTERM}


# -- worker-process side ----------------------------------------------------


def _response_body(request: AnalysisRequest, digest: str, artifact,
                   cache_state: str, seconds: float,
                   attempts: int = 1) -> Dict[str, object]:
    """The response body for one analyze answer. It carries the
    artifact payload digest, so clients (and the load-test harness)
    can check bit-identity against batch oracles without shipping the
    whole artifact."""
    body: Dict[str, object] = {
        "name": request.name,
        "digest": digest,
        "status": "degraded" if artifact.degraded else "ok",
        "cache": cache_state,
        "seconds": round(seconds, 6),
        "attempts": attempts,
        "summary": dict(artifact.summary),
        "payload_digest": artifact.payload_digest(),
    }
    if artifact.degraded:
        body["degraded_reason"] = artifact.degraded_reason
    if request.request_id is not None:
        body["span"] = request.request_id
    return body


class _ShardState:
    """Everything one worker process keeps warm between requests."""

    def __init__(self, shard_id: int, options: Dict[str, object]) -> None:
        self.shard_id = shard_id
        cache_root = options.get("cache_root")
        max_bytes = options.get("cache_max_bytes")
        self.cache = ArtifactCache(cache_root, max_bytes=max_bytes) \
            if cache_root else None
        self.funcstore = FuncArtifactStore(cache_root) \
            if cache_root and options.get("incremental", True) else None
        self.cache_root = cache_root
        # Built by the first query job, so a shard that answers no
        # queries reports no query-store tallies.
        self.queryrunner: Optional[QueryRunner] = None
        self.querystore: Optional[QueryArtifactStore] = None

    def flush_stores(self, obs: Observer) -> None:
        if self.cache is not None:
            self.cache.flush_obs(obs)
        if self.funcstore is not None:
            self.funcstore.flush_obs(obs)
        if self.querystore is not None:
            self.querystore.flush_obs(obs)


def _run_analyze(state: _ShardState, msg: Dict[str, object], conn) -> None:
    """One analyze job: answer from the artifact cache when it can,
    else run the pipeline and store the artifact; reply with a
    response body."""
    jid = msg["jid"]
    request = AnalysisRequest.from_payload(msg["payload"])
    digest = request.digest()
    start = time.perf_counter()
    if state.cache is not None:
        artifact = state.cache.get(digest)
        if artifact is not None:
            conn.send({"jid": jid, "kind": "result", "final": True,
                       "body": _response_body(
                           request, digest, artifact, "hit",
                           time.perf_counter() - start, attempts=0)})
            return

    # Cold: run the pipeline, streaming the Andersen preview when
    # asked.  The preview artifact doubles as the degraded answer if
    # the budget exhausts mid-solve — the ladder's partial result.
    preview: List[object] = []

    def on_preanalysis(module, andersen) -> None:
        pre = artifact_from_andersen(request.name, module, andersen,
                                     reason="preview")
        preview.append(pre)
        body = _response_body(request, digest, pre, "miss",
                              time.perf_counter() - start)
        body["status"] = "preview"
        body.pop("degraded_reason", None)
        conn.send({"jid": jid, "kind": "andersen", "final": False,
                   "body": body})

    obs = Observer(name=request.request_id or request.name,
                   track_memory=False)
    try:
        artifact = run_full(request, obs, funcstore=state.funcstore,
                            on_preanalysis=on_preanalysis
                            if msg.get("stream") else None)
    except AnalysisTimeout:
        if preview:
            artifact = preview[0]
            artifact.degraded_reason = "budget-exhausted"
        else:
            artifact = run_degraded(request)
    if state.cache is not None:
        state.cache.put(digest, artifact)   # degraded never stored
    body = _response_body(request, digest, artifact, "miss",
                          time.perf_counter() - start)
    conn.send({"jid": jid, "kind": "result", "final": True, "body": body,
               "obs": obs.to_metrics_dict()})


def _run_query(state: _ShardState, msg: Dict[str, object], conn) -> None:
    jid = msg["jid"]
    payload = msg["payload"]
    request = AnalysisRequest.from_payload(payload["request"])
    query = QueryRequest(request=request, var=payload["var"],
                         line=payload.get("line"),
                         obj=bool(payload.get("obj", False)))
    if state.queryrunner is None:
        if state.cache_root:
            state.querystore = QueryArtifactStore(state.cache_root)
        state.queryrunner = QueryRunner(querystore=state.querystore)
    # The job's span, shipped back as an analyze job's is.
    obs = Observer(name=request.request_id or request.name,
                   track_memory=False)
    state.queryrunner.obs = obs
    body = state.queryrunner.run(query)
    if request.request_id is not None:
        body["span"] = request.request_id
    conn.send({"jid": jid, "kind": "result", "final": True, "body": body,
               "obs": obs.to_metrics_dict()})


def _close_inherited_sockets(keep_fd: int) -> None:
    """Close every socket fd the fork copied from the parent except
    our own pipe.  A forked worker otherwise holds duplicates of the
    gateway's listener, live client connections, and the other shards'
    pipes — so a client never sees EOF while any worker (especially
    one respawned mid-connection) keeps its socket alive."""
    import os
    import stat
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # pragma: no cover - non-Linux fallback
        fds = list(range(3, 256))
    for fd in fds:
        if fd == keep_fd or fd < 3:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def shard_worker_main(conn, shard_id: int,
                      options: Dict[str, object]) -> None:
    """Worker-process entry: serve jobs from the pipe until shutdown
    (or pipe EOF — a vanished parent must not leave orphans).

    Whatever handlers the parent had when it forked (an asyncio loop's
    ``add_signal_handler``, say), a shard dies on
    SIGTERM — the deadline kill — and ignores SIGINT: the parent owns
    the graceful drain. The parent blocks both signals across the fork,
    so a kill sent before this reset stays pending until it is done."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.set_wakeup_fd(-1)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _PARENT_SIGNALS)
    _close_inherited_sockets(conn.fileno())
    state = _ShardState(shard_id, options)
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg.get("op")
            if op == "shutdown":
                obs = Observer(name=f"shard{shard_id}", track_memory=False)
                state.flush_stores(obs)
                try:
                    conn.send({"op": "bye", "shard": shard_id,
                               "obs": obs.to_metrics_dict()})
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass
                break
            if op != "job":
                continue
            try:
                if msg.get("job_kind") == "query":
                    _run_query(state, msg, conn)
                else:
                    _run_analyze(state, msg, conn)
            except Exception as exc:  # noqa: BLE001 - reported upstream
                from repro.gateway.protocol import error_body
                try:
                    conn.send({"jid": msg.get("jid"), "kind": "error",
                               "final": True, "body": error_body(exc)})
                except (BrokenPipeError, OSError):  # pragma: no cover
                    break
    finally:
        conn.close()


# -- parent (asyncio) side --------------------------------------------------


class ShardHandle:
    """Parent-side state of one shard worker."""

    __slots__ = ("shard_id", "proc", "conn", "reader", "alive",
                 "inflight", "timer", "generation", "kill_reason")

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.proc = None
        self.conn = None
        self.reader: Optional[threading.Thread] = None
        self.alive = False
        self.inflight = None            # the caller's job object
        self.timer = None               # the in-flight job's kill timer
        self.generation = 0
        self.kill_reason: Optional[str] = None


class ShardPool:
    """N persistent shard workers under an asyncio parent.

    The pool is transport- and policy-free: its parent owns routing,
    queues, coalescing, and retries, and registers callbacks —
    ``on_event(shard_id, jid, kind, body, final, obs)`` for
    worker answers, ``on_shard_down(shard_id, jobs, reason)`` when a
    worker dies (with whatever was in flight), and
    ``on_shard_up(shard_id)`` after a (re)spawn.
    """

    def __init__(self, workers: int,
                 options: Optional[Dict[str, object]] = None) -> None:
        if workers < 1:
            raise ValueError(f"need at least one shard, got {workers}")
        self.workers = workers
        self.options = dict(options or {})
        self.handles: Dict[int, ShardHandle] = {
            shard_id: ShardHandle(shard_id) for shard_id in range(workers)}
        self.on_event: Callable = lambda *a, **k: None
        self.on_shard_down: Callable = lambda *a, **k: None
        self.on_shard_up: Callable = lambda *a, **k: None
        self.respawns = 0
        self._loop = None
        self._closing = False
        self._bye_obs: List[Dict[str, object]] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        import asyncio
        self._loop = asyncio.get_running_loop()
        for handle in self.handles.values():
            self._spawn(handle)
            self.on_shard_up(handle.shard_id)

    def _spawn(self, handle: ShardHandle) -> None:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        proc = multiprocessing.Process(
            target=shard_worker_main,
            args=(child_conn, handle.shard_id, self.options),
            daemon=True)
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _PARENT_SIGNALS)
        try:
            proc.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        child_conn.close()
        handle.proc = proc
        handle.conn = parent_conn
        handle.alive = True
        handle.inflight = None
        handle.generation += 1
        generation = handle.generation
        reader = threading.Thread(
            target=self._read_loop, args=(handle, generation),
            name=f"shard{handle.shard_id}-reader", daemon=True)
        handle.reader = reader
        reader.start()

    def _read_loop(self, handle: ShardHandle, generation: int) -> None:
        """Blocking pipe reader (daemon thread): posts every worker
        message onto the event loop; EOF/reset means the worker died."""
        conn = handle.conn
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                self._post(self._handle_death, handle, generation, None)
                return
            if msg.get("op") == "bye":
                self._post(self._handle_bye, handle, generation, msg)
                return
            self._post(self._handle_message, handle, generation, msg)

    def _post(self, fn, *args) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(fn, *args)
            except RuntimeError:  # pragma: no cover - loop torn down
                pass

    # -- event-loop callbacks ----------------------------------------------

    @staticmethod
    def _disarm(handle: ShardHandle) -> None:
        if handle.timer is not None:
            handle.timer.cancel()
            handle.timer = None

    def _handle_message(self, handle: ShardHandle, generation: int,
                        msg: Dict[str, object]) -> None:
        if generation != handle.generation:
            return  # stale incarnation
        jid = msg.get("jid")
        final = bool(msg.get("final"))
        if final:
            self._disarm(handle)
            handle.inflight = None
        self.on_event(handle.shard_id, jid, msg.get("kind"),
                      msg.get("body"), final, msg.get("obs"))

    def _handle_death(self, handle: ShardHandle, generation: int,
                      _msg) -> None:
        if generation != handle.generation or self._closing:
            return
        self._disarm(handle)
        handle.alive = False
        lost = handle.inflight
        handle.inflight = None
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass
        if handle.proc is not None:
            handle.proc.join(timeout=1.0)
        reason = handle.kill_reason or "worker-crash"
        handle.kill_reason = None
        self.on_shard_down(handle.shard_id,
                           [lost] if lost is not None else [], reason)
        # Respawn immediately: the ring re-adds the shard via
        # on_shard_up, ending the rebalance window.
        self.respawns += 1
        self._spawn(handle)
        self.on_shard_up(handle.shard_id)

    def _handle_bye(self, handle: ShardHandle, generation: int,
                    msg: Dict[str, object]) -> None:
        if msg.get("obs") is not None:
            self._bye_obs.append(msg["obs"])
        handle.alive = False

    # -- job dispatch ------------------------------------------------------

    def submit(self, shard_id: int, jid: int, job,
               message: Dict[str, object],
               timeout: Optional[float] = None) -> None:
        """Send one job message to *shard_id* (the caller guarantees
        the shard is idle).  With a wall-clock *timeout*, a job still
        running that many seconds later has its shard killed; the loss
        reaches ``on_shard_down`` as ``wall-clock-timeout``.  Raises
        ``BrokenPipeError`` when the shard just died — the caller
        treats it like a crash."""
        handle = self.handles[shard_id]
        if not handle.alive or handle.conn is None:
            raise BrokenPipeError(f"shard {shard_id} is down")
        handle.inflight = job
        message = dict(message)
        message["op"] = "job"
        message["jid"] = jid
        try:
            handle.conn.send(message)
        except (BrokenPipeError, OSError):
            handle.inflight = None
            raise BrokenPipeError(f"shard {shard_id} pipe broke") from None
        if timeout is not None:
            handle.timer = self._loop.call_later(
                timeout, self._expire, handle, handle.generation)

    def _expire(self, handle: ShardHandle, generation: int) -> None:
        """Kill timer: death flows through the reader thread's EOF like
        any crash, tagged with the reason."""
        handle.timer = None
        if generation != handle.generation or not handle.alive:
            return
        handle.kill_reason = "wall-clock-timeout"
        handle.proc.terminate()

    def idle(self, shard_id: int) -> bool:
        handle = self.handles[shard_id]
        return handle.alive and handle.inflight is None

    # -- shutdown ----------------------------------------------------------

    async def shutdown(self, timeout: float = 5.0
                       ) -> List[Dict[str, object]]:
        """Graceful stop: ask every live shard to flush + exit, join
        the processes, and return the collected ``bye`` telemetry
        snapshots (one ``repro.metrics/1`` doc per shard)."""
        import asyncio
        self._closing = True
        for handle in self.handles.values():
            if handle.alive and handle.conn is not None:
                try:
                    handle.conn.send({"op": "shutdown"})
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + timeout
        for handle in self.handles.values():
            if handle.proc is None:
                continue
            # The reader ends at the shard's bye (or EOF).  Join it
            # before closing the pipe under it, so the bye is
            # delivered, not lost; a shard still busy past the
            # deadline is killed.
            await asyncio.to_thread(handle.reader.join,
                                    max(0.0, deadline - time.monotonic()))
            if handle.reader.is_alive():
                handle.proc.terminate()
                await asyncio.to_thread(handle.reader.join, 1.0)
            handle.proc.join(1.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        # Run the callbacks the readers posted: their bye snapshots.
        await asyncio.sleep(0)
        return list(self._bye_obs)
