"""End-to-end gateway tests: transports, streaming, hardening,
admission, routing/rebalance, degradation, metrics, shutdown."""

import asyncio
import json

import pytest

from repro.gateway.admission import TenantPolicy
from repro.gateway.protocol import validate_gwframe_stream
from repro.gateway.server import Gateway, GatewayOptions
from repro.obs import validate_metrics, validate_metrics_stream
from repro.service.requests import request_from_entry
from repro.service.runner import run_request_inline
from repro.service.shards import ShardPool


def _run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


async def _jsonl(port, entries):
    """Send entries over one connection; returns all response frames."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for entry in entries:
        payload = entry if isinstance(entry, (bytes, str)) \
            else json.dumps(entry)
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        writer.write(payload + b"\n")
    await writer.drain()
    writer.write_eof()
    frames = []
    while True:
        line = await reader.readline()
        if not line:
            break
        frames.append(json.loads(line))
    writer.close()
    return frames


async def _http(port, raw):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    response = await reader.read()
    writer.close()
    return response


def _frames_for(frames, request_id):
    return sorted((f for f in frames if f.get("id") == request_id),
                  key=lambda f: f["seq"])


def _tiny(n):
    return {"source": f"int main() {{ return {n}; }}", "name": f"t{n}",
            "id": n}


class TestTransports:
    def test_jsonl_cold_then_hot(self, tmp_path):
        _run(self._cold_then_hot(tmp_path))

    async def _cold_then_hot(self, tmp_path):
        gateway = Gateway(GatewayOptions(
            workers=1, cache_root=str(tmp_path / "cache")))
        await gateway.start()
        try:
            cold = await _jsonl(gateway.port,
                                [{"workload": "word_count", "id": 1}])
            assert cold[0]["body"]["status"] == "ok"
            assert cold[0]["body"]["cache"] == "miss"
            validate_gwframe_stream(cold)
            hot = await _jsonl(gateway.port,
                               [{"workload": "word_count", "id": 2}])
            assert hot[0]["body"]["cache"] == "hot"
            assert hot[0]["body"]["payload_digest"] \
                == cold[0]["body"]["payload_digest"]
        finally:
            await gateway.shutdown()

    def test_bit_identity_with_inline_oracle(self, tmp_path):
        _run(self._bit_identity(tmp_path))

    async def _bit_identity(self, tmp_path):
        # The acceptance criterion: gateway responses are bit-identical
        # to what the batch/inline runner computes for the same entry.
        request = request_from_entry({"workload": "word_count"})
        oracle = run_request_inline(request)
        gateway = Gateway(GatewayOptions(
            workers=1, cache_root=str(tmp_path / "cache")))
        await gateway.start()
        try:
            frames = await _jsonl(gateway.port,
                                  [{"workload": "word_count"}])
            body = frames[0]["body"]
            assert body["digest"] == oracle.digest
            assert body["payload_digest"] \
                == oracle.artifact.payload_digest()
        finally:
            await gateway.shutdown()

    def test_streaming_andersen_before_result(self, tmp_path):
        _run(self._streaming(tmp_path))

    async def _streaming(self, tmp_path):
        gateway = Gateway(GatewayOptions(
            workers=1, cache_root=str(tmp_path / "cache")))
        await gateway.start()
        try:
            frames = await _jsonl(
                gateway.port,
                [{"workload": "word_count", "id": 9, "stream": True}])
            validate_gwframe_stream(_frames_for(frames, 9))
            kinds = [frame["kind"] for frame in frames]
            assert kinds == ["andersen", "result"]
            preview, result = frames[0]["body"], frames[1]["body"]
            assert preview["status"] == "preview"
            assert result["status"] == "ok"
            # The preview is the Andersen artifact: flow-insensitive
            # facts only, so its payload differs from the full result.
            assert preview["payload_digest"] != result["payload_digest"]
        finally:
            await gateway.shutdown()

    def test_http_analyze_and_endpoints(self, tmp_path):
        _run(self._http_endpoints(tmp_path))

    async def _http_endpoints(self, tmp_path):
        gateway = Gateway(GatewayOptions(
            workers=1, cache_root=str(tmp_path / "cache")))
        await gateway.start()
        try:
            body = json.dumps({"workload": "word_count"}).encode()
            raw = await _http(
                gateway.port,
                b"POST /analyze HTTP/1.1\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\n\r\n" + body)
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK")
            frame = json.loads(payload)
            assert frame["body"]["status"] == "ok"

            raw = await _http(gateway.port, b"GET /healthz HTTP/1.1\r\n\r\n")
            assert b'"status": "ok"' in raw

            raw = await _http(gateway.port, b"GET /metrics HTTP/1.1\r\n\r\n")
            metrics = json.loads(raw.partition(b"\r\n\r\n")[2])
            validate_metrics(metrics)
            assert metrics["counters"]["gateway.requests"] >= 1

            raw = await _http(gateway.port, b"GET /nope HTTP/1.1\r\n\r\n")
            assert raw.startswith(b"HTTP/1.1 404")
            raw = await _http(gateway.port, b"PUT /analyze HTTP/1.1\r\n\r\n")
            assert raw.startswith(b"HTTP/1.1 405")
        finally:
            await gateway.shutdown()

    def test_http_chunked_streaming(self, tmp_path):
        _run(self._http_streaming(tmp_path))

    async def _http_streaming(self, tmp_path):
        gateway = Gateway(GatewayOptions(
            workers=1, cache_root=str(tmp_path / "cache")))
        await gateway.start()
        try:
            body = json.dumps({"workload": "word_count"}).encode()
            raw = await _http(
                gateway.port,
                b"POST /analyze?stream=1 HTTP/1.1\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\n\r\n" + body)
            head, _, stream = raw.partition(b"\r\n\r\n")
            assert b"Transfer-Encoding: chunked" in head
            # De-chunk and parse the frames.
            frames = []
            rest = stream
            while rest:
                size_line, _, rest = rest.partition(b"\r\n")
                size = int(size_line, 16)
                if size == 0:
                    break
                frames.append(json.loads(rest[:size]))
                rest = rest[size + 2:]
            kinds = [frame["kind"] for frame in frames]
            assert kinds == ["andersen", "result"]
        finally:
            await gateway.shutdown()


class TestAnswerCache:
    """The gateway's response LRU is the only in-memory answer cache: a
    repeat it has evicted goes to its shard with the whole request and
    is answered from disk, or recomputed when there is no cache root."""

    PROGRAMS = {
        "a": "int x; int *p; int main() { p = &x; return 0; }",
        "b": "int y; int *q; int main() { q = &y; return 0; }",
    }

    @pytest.mark.parametrize("cached, repeat_state",
                             [(True, "hit"), (False, "miss")])
    def test_evicted_repeat_is_served_by_its_shard(
            self, tmp_path, monkeypatch, cached, repeat_state):
        monkeypatch.setattr("repro.gateway.server.HOT_RESPONSES", 1)
        messages = []
        real_submit = ShardPool.submit

        def spy(pool, shard_id, jid, job, message, timeout=None):
            messages.append(message)
            return real_submit(pool, shard_id, jid, job, message,
                               timeout=timeout)

        monkeypatch.setattr(ShardPool, "submit", spy)
        root = str(tmp_path / "cache") if cached else None
        first, second, third = _run(self._a_b_a(root))
        assert [body["cache"] for body in (first, second, third)] \
            == ["miss", "miss", repeat_state]
        assert third["payload_digest"] == first["payload_digest"]
        assert second["payload_digest"] != first["payload_digest"]
        sources = [message["payload"]["source"] for message in messages
                   if message["job_kind"] == "analyze"]
        assert sources == [self.PROGRAMS[key] for key in "aba"]

    async def _a_b_a(self, cache_root):
        gateway = Gateway(GatewayOptions(workers=1, cache_root=cache_root))
        await gateway.start()
        try:
            bodies = []
            for n, key in enumerate("aba"):
                frames = await _jsonl(gateway.port, [
                    {"source": self.PROGRAMS[key], "name": key, "id": n}])
                bodies.append(frames[0]["body"])
            counters = gateway.metrics()["counters"]
            assert counters.get("gateway.hot_hits", 0) == 0
            assert counters["gateway.dispatched"] == 3
        finally:
            await gateway.shutdown()
        return bodies


class TestHardening:
    def test_refusals(self, tmp_path):
        _run(self._refusals(tmp_path))

    async def _refusals(self, tmp_path):
        gateway = Gateway(GatewayOptions(
            workers=1, max_request_bytes=512))
        await gateway.start()
        try:
            frames = await _jsonl(gateway.port, [b"{nope"])
            assert frames[0]["body"]["error"]["type"] == "BadRequest"

            deep = b"[" * 80 + b"]" * 80
            frames = await _jsonl(gateway.port, [deep])
            assert frames[0]["body"]["error"]["type"] == "RequestTooDeep"

            big = json.dumps({"source": "x" * 2048, "name": "big"})
            frames = await _jsonl(gateway.port, [big])
            assert frames[0]["body"]["error"]["type"] == "RequestTooLarge"
            assert frames[0]["body"]["error"]["code"] == 413

            frames = await _jsonl(gateway.port,
                                  [{"workload": "no_such_workload"}])
            assert frames[0]["body"]["error"]["type"] == "BadRequest"

            frames = await _jsonl(gateway.port,
                                  [{"workload": "word_count",
                                    "op": "transmogrify"}])
            assert frames[0]["body"]["error"]["type"] == "BadRequest"

            # HTTP: an oversized Content-Length is refused up front.
            raw = await _http(
                gateway.port,
                b"POST /analyze HTTP/1.1\r\nContent-Length: 99999\r\n"
                b"\r\n")
            assert raw.startswith(b"HTTP/1.1 413")
        finally:
            await gateway.shutdown()

    def test_oversized_line_keeps_the_connection(self, tmp_path):
        _run(self._oversized(tmp_path))

    async def _oversized(self, tmp_path):
        # A line past the reader's buffer limit is refused and skipped;
        # the connection goes on, whether or not it is the first line.
        gateway = Gateway(GatewayOptions(
            workers=1, max_request_bytes=512,
            cache_root=str(tmp_path / "cache")))
        await gateway.start()
        try:
            huge = json.dumps({"source": "x" * 200_000, "name": "huge"})
            frames = await _jsonl(gateway.port, [
                huge, {"workload": "kmeans", "id": "c"}, huge,
                {"workload": "word_count", "id": "d"}])
            refused = [frame for frame in frames if "id" not in frame]
            assert [frame["body"]["error"]["type"] for frame in refused] \
                == ["RequestTooLarge", "RequestTooLarge"]
            assert _frames_for(frames, "c")[-1]["body"]["status"] == "ok"
            assert _frames_for(frames, "d")[-1]["body"]["status"] == "ok"
        finally:
            await gateway.shutdown()


class TestAdmission:
    def test_rate_limited_tenant_gets_429(self, tmp_path):
        _run(self._rate_limit(tmp_path))

    async def _rate_limit(self, tmp_path):
        gateway = Gateway(GatewayOptions(
            workers=1, cache_root=str(tmp_path / "cache"),
            tenants={"slow": TenantPolicy("slow", rate=0.001, burst=1)}))
        await gateway.start()
        try:
            ok = await _jsonl(gateway.port,
                              [{"workload": "word_count",
                                "tenant": "slow", "id": 1}])
            assert ok[0]["body"].get("status") in ("ok", "degraded")
            refused = await _jsonl(gateway.port,
                                   [{"workload": "word_count",
                                     "tenant": "slow", "id": 2}])
            error = refused[0]["body"]["error"]
            assert error["type"] == "RateLimited"
            assert error["code"] == 429
            metrics = gateway.metrics()
            assert metrics["counters"]["gateway.rate_limited"] == 1
        finally:
            await gateway.shutdown()

    def test_queue_overflow_sheds_lowest_priority(self, tmp_path):
        _run(self._shed(tmp_path))

    async def _shed(self, tmp_path):
        import os
        import signal
        gateway = Gateway(GatewayOptions(
            workers=1, max_queue=1,
            cache_root=str(tmp_path / "cache"),
            tenants={
                "vip": TenantPolicy("vip", priority=5),
                "bulk": TenantPolicy("bulk", priority=1),
            }))
        await gateway.start()
        paused = None
        try:
            async def one(name, tenant, rid):
                return await _jsonl(gateway.port,
                                    [{"workload": name, "tenant": tenant,
                                      "id": rid}])

            async def until(predicate, timeout=20.0):
                loop = asyncio.get_event_loop()
                deadline = loop.time() + timeout
                while not predicate():
                    assert loop.time() < deadline, "condition never held"
                    await asyncio.sleep(0.02)

            # Occupy the single shard, freeze the worker so the job
            # cannot finish, fill the 1-slot queue with bulk work, then
            # push vip work past the high-water mark: the queued bulk
            # request must be shed with a 429 record.
            first = asyncio.ensure_future(one("word_count", "bulk", 1))
            await until(lambda: any(
                handle.inflight is not None
                for handle in gateway.pool.handles.values()))
            paused = next(handle.proc.pid
                          for handle in gateway.pool.handles.values()
                          if handle.inflight is not None)
            os.kill(paused, signal.SIGSTOP)
            second = asyncio.ensure_future(one("kmeans", "bulk", 2))
            await until(lambda: sum(
                len(q) for q in gateway.queues.values()) == 1)
            third = asyncio.ensure_future(one("automount", "vip", 3))
            await until(lambda: gateway.metrics()["counters"]
                        .get("gateway.shed", 0) == 1)
            os.kill(paused, signal.SIGCONT)
            paused = None
            results = await asyncio.gather(first, second, third)
            by_id = {frames[0]["id"]: frames[0] for frames in results}
            assert by_id[1]["body"]["status"] in ("ok", "degraded")
            assert by_id[3]["body"]["status"] in ("ok", "degraded")
            error = by_id[2]["body"]["error"]
            assert error["type"] == "QueueFull"
            assert error["code"] == 429
            assert gateway.metrics()["counters"]["gateway.shed"] == 1
        finally:
            if paused is not None:
                import os
                import signal
                os.kill(paused, signal.SIGCONT)
            await gateway.shutdown()


    def test_pipelined_connection_is_paced_not_shed(self, tmp_path):
        _run(self._paced(tmp_path))

    async def _paced(self, tmp_path):
        # One connection pipelines more distinct requests than the
        # queue holds: reading pauses instead of shedding its own work.
        gateway = Gateway(GatewayOptions(
            workers=1, max_queue=2, cache_root=str(tmp_path / "cache")))
        await gateway.start()
        try:
            frames = await asyncio.wait_for(
                _jsonl(gateway.port, [_tiny(n) for n in range(6)]),
                timeout=60)
            assert sorted(frame["id"] for frame in frames) == list(range(6))
            assert all(frame["body"]["status"] == "ok" for frame in frames)
            assert gateway.metrics()["counters"].get("gateway.shed", 0) == 0
        finally:
            await gateway.shutdown()


class TestTelemetry:
    def test_query_jobs_ship_their_span(self, tmp_path):
        _run(self._query_span(tmp_path))

    async def _query_span(self, tmp_path):
        gateway = Gateway(GatewayOptions(workers=1))
        await gateway.start()
        try:
            # Two objects of one program: the second query runs on the
            # warm pipeline the first one built, under its own span.
            for n, var in enumerate(("bucket_0", "bucket_1")):
                frames = await _jsonl(gateway.port, [
                    {"op": "query", "workload": "word_count", "var": var,
                     "obj": True, "id": n}])
                assert frames[0]["body"]["status"] == "ok"
            metrics = gateway.metrics()
            assert metrics["counters"]["query.requests"] == 2
            assert metrics["histograms"]["query.request_seconds"][
                "count"] == 2
        finally:
            await gateway.shutdown()

    def test_metrics_interval_rule(self, tmp_path):
        for interval, snapshots in ((0, 3), (3600, 1)):
            assert len(_run(self._interval(interval))) == snapshots

    async def _interval(self, interval):
        # After an answered request, a snapshot once the interval has
        # passed since the last; the final one at shutdown.
        import io
        stream = io.StringIO()
        gateway = Gateway(GatewayOptions(
            workers=1, metrics_interval=interval, metrics_stream=stream))
        await gateway.start()
        try:
            await _jsonl(gateway.port, [_tiny(0), _tiny(1)])
        finally:
            await gateway.shutdown()
        docs = [json.loads(line) for line in stream.getvalue().splitlines()]
        validate_metrics_stream(docs)
        assert docs[-1]["counters"]["gateway.requests"] == 2
        return docs


class TestResilience:
    def test_worker_death_respawns_and_retries(self, tmp_path):
        _run(self._death(tmp_path))

    async def _death(self, tmp_path):
        gateway = Gateway(GatewayOptions(
            workers=2, cache_root=str(tmp_path / "cache")))
        await gateway.start()
        try:
            # scale 3 keeps the job in flight for ~1s — a wide window
            # to terminate the shard mid-computation.
            task = asyncio.ensure_future(_jsonl(
                gateway.port,
                [{"workload": "raytrace", "scale": 3, "id": 1}]))
            loop = asyncio.get_event_loop()
            deadline = loop.time() + 20.0
            victims = []
            while not victims:
                assert loop.time() < deadline, "job never dispatched"
                victims = [handle
                           for handle in gateway.pool.handles.values()
                           if handle.inflight is not None]
                if not victims:
                    await asyncio.sleep(0.005)
            victims[0].proc.terminate()
            frames = await asyncio.wait_for(task, timeout=60)
            body = frames[0]["body"]
            # Crash -> retried once on a surviving/respawned shard.
            assert body["status"] == "ok"
            assert body["attempts"] == 2
            assert gateway.pool.respawns >= 1
            metrics = gateway.metrics()
            assert metrics["counters"]["gateway.shard_deaths"] >= 1
            assert metrics["counters"]["gateway.retries"] >= 1
            assert len(gateway.ring) == 2  # respawn re-added the arc
        finally:
            await gateway.shutdown()

    def test_wall_clock_deadline_degrades_with_preview(self, tmp_path):
        _run(self._deadline(tmp_path))

    async def _deadline(self, tmp_path):
        gateway = Gateway(GatewayOptions(
            workers=1, cache_root=str(tmp_path / "cache")))
        await gateway.start()
        try:
            # raytrace@6 runs ~3.4s with its Andersen preview ready at
            # ~0.6s, so a 1.5s deadline lands squarely between the two.
            frames = await asyncio.wait_for(_jsonl(
                gateway.port,
                [{"workload": "raytrace", "scale": 6, "id": 5,
                  "stream": True, "timeout": 1.5}]), timeout=120)
            mine = _frames_for(frames, 5)
            validate_gwframe_stream(mine)
            final = mine[-1]["body"]
            assert final["status"] == "degraded"
            assert final["degraded_reason"] == "wall-clock-timeout"
            # The degraded answer reuses the streamed Andersen preview
            # when one arrived before the kill.
            if len(mine) > 1:
                assert mine[0]["kind"] == "andersen"
                assert final["payload_digest"] \
                    == mine[0]["body"]["payload_digest"]
        finally:
            await gateway.shutdown()


class TestShutdown:
    def test_graceful_drain(self, tmp_path):
        _run(self._drain(tmp_path))

    async def _drain(self, tmp_path):
        import io
        metrics_stream = io.StringIO()
        gateway = Gateway(GatewayOptions(
            workers=1, cache_root=str(tmp_path / "cache"),
            metrics_stream=metrics_stream))
        await gateway.start()
        serve = asyncio.ensure_future(gateway.serve_forever())
        task = asyncio.ensure_future(_jsonl(
            gateway.port, [{"workload": "word_count", "id": 1}]))
        await asyncio.sleep(0.1)  # in flight
        gateway.begin_shutdown()
        frames = await asyncio.wait_for(task, timeout=60)
        # In-flight work drains to a real response, not an error.
        assert frames[0]["body"]["status"] == "ok"
        await asyncio.wait_for(serve, timeout=30)
        # New work is refused while draining/closed.
        with pytest.raises(Exception):
            await asyncio.wait_for(_jsonl(
                gateway.port, [{"workload": "word_count"}]), timeout=5)
        # The final metrics snapshot was flushed on the way out.
        final = json.loads(metrics_stream.getvalue().strip()
                           .splitlines()[-1])
        validate_metrics(final)
        assert final["counters"]["gateway.requests"] == 1
