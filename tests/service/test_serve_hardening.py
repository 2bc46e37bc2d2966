"""Input hardening, graceful shutdown and shard respawn for
``repro serve``."""

import json
import os
import signal
import subprocess

from tests.service.serving import frame_reader, serve, spawn


class TestHardening:
    def test_oversized_line_refused_and_loop_survives(self):
        # One line over --max-request-bytes, one also over the
        # reader's buffer limit (discarded unread), then a request.
        over = json.dumps({"source": "x" * 4096, "name": "over"})
        huge = json.dumps({"source": "x" * 200_000, "name": "huge"})
        session = serve([over, huge, '{"workload": "word_count", "id": 2}'],
                        max_request_bytes=1024)
        errors = [frame["body"]["error"] for frame in session.finals
                  if "id" not in frame]
        assert [error["type"] for error in errors] \
            == ["RequestTooLarge", "RequestTooLarge"]
        assert all(error["code"] == 413 for error in errors)
        assert session.answer(2)["status"] == "ok"

    def test_oversized_line_without_newline_at_eof(self):
        for size in (4096, 100_000):
            session = serve(data=b"{" + b"a" * size, max_request_bytes=256)
            (frame,) = session.frames
            assert frame["body"]["error"]["type"] == "RequestTooLarge"

    def test_deep_nesting_refused_before_parse(self):
        # 200 levels, over the one 64-level limit.
        hostile = "[" * 200 + "]" * 200
        session = serve([hostile, '{"workload": "word_count", "id": 1}'])
        (refused,) = [frame for frame in session.finals
                      if "id" not in frame]
        assert refused["body"]["error"]["type"] == "RequestTooDeep"
        assert session.answer(1)["status"] == "ok"

    def test_depth_limit_allows_reasonable_nesting(self):
        entry = json.dumps({"workload": "word_count", "id": 1,
                            "config": {"value_flow": True}})
        session = serve([entry])
        assert session.answer(1)["status"] == "ok"

    def test_invalid_json_error_type_is_preserved(self):
        # The size and depth pre-scans must not change what a small
        # malformed line reports: a JSON error, typed BadRequest.
        session = serve(["{nope", '{"workload": "word_count", "id": 1}'])
        (refused,) = [frame for frame in session.finals
                      if "id" not in frame]
        assert refused["body"]["error"]["type"] == "BadRequest"
        assert "not valid JSON" in refused["body"]["error"]["message"]
        assert session.answer(1)["status"] == "ok"

    def test_scale_is_bounded_before_generation(self, monkeypatch):
        # A workload's source is generated before the scanner bounds
        # its size, so an oversized or non-integer scale is refused
        # first: raytrace at scale 8000 would generate ~50 MB of source.
        from repro.service.requests import MAX_SCALE
        from repro.workloads.base import Workload
        generate = Workload.source

        def bounded(workload, scale=0):
            assert 0 <= scale <= MAX_SCALE, scale
            return generate(workload, scale)

        monkeypatch.setattr(Workload, "source", bounded)
        session = serve([
            '{"workload": "raytrace", "scale": 8000, "id": 1}',
            '{"workload": "kmeans", "scale": true, "id": 2}',
            '{"workload": "kmeans", "scale": -1, "id": 3}',
            '{"workload": "word_count", "scale": 1, "id": 4}',
        ])
        for request_id in (1, 2, 3):
            error = session.answer(request_id)["error"]
            assert (error["type"], error["code"]) == ("BadRequest", 400)
            assert "scale" in error["message"]
        assert session.answer(4)["status"] == "ok"

    def test_deeply_nested_source_is_a_parse_error(self):
        source = ("int main() { int x; x = " + "(" * 5000 + "1"
                  + ")" * 5000 + "; return 0; }")
        entry = json.dumps({"source": source, "name": "deep", "id": 1})
        session = serve([entry, '{"workload": "word_count", "id": 2}'])
        assert session.answer(1)["status"] == "error"
        assert session.answer(1)["error"]["type"] == "ParseError"
        assert session.answer(2)["status"] == "ok"


class TestSignalSubprocess:
    def _drain_and_signal(self, signum):
        # The signal lands while the request is in flight (its Andersen
        # preview is out, the solve is not) and stdin is still open:
        # the request must finish, and the session must end without
        # waiting for EOF.
        proc = spawn("--metrics-interval", "0")
        next_frame = frame_reader(proc)
        try:
            proc.stdin.write('{"workload": "raytrace", "scale": 3, '
                             '"stream": true, "id": 1}\n')
            proc.stdin.flush()
            preview = next_frame()
            assert preview["kind"] == "andersen" and not preview["final"]
            proc.send_signal(signum)
            frame = next_frame()
            assert frame["id"] == 1 and frame["final"]
            assert frame["body"]["status"] == "ok"
            assert proc.wait(timeout=30) == 0
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.stdin.close()
            proc.stderr.close()
        # Final repro.metrics/1 snapshot flushed to stderr on the way out.
        snapshots = [json.loads(text) for text in err.splitlines()
                     if text.startswith("{")]
        assert snapshots and snapshots[-1]["schema"] == "repro.metrics/1"
        assert snapshots[-1]["counters"]["gateway.requests"] == 1

    def test_sigterm_drains_and_exits_zero(self):
        self._drain_and_signal(signal.SIGTERM)

    def test_sigint_drains_and_exits_zero(self):
        self._drain_and_signal(signal.SIGINT)

    def test_pooled_deadline_kill_answers_degraded(self):
        """``serve --workers 2`` installs its SIGTERM drain handler
        before a shard's deadline fires; the deadline's terminate()
        must still kill the shard, and the request must answer
        degraded."""
        proc = spawn("--workers", "2")
        lines = ('{"workload": "word_count", "id": 1}\n'
                 '{"workload": "raytrace", "scale": 4, "timeout": 0.2, '
                 '"id": 2}\n')
        try:
            out, err = proc.communicate(lines, timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        assert proc.returncode == 0, err
        frames = {frame["id"]: frame["body"]
                  for frame in map(json.loads, out.splitlines())}
        assert frames[1]["status"] == "ok"
        assert frames[2]["status"] == "degraded"
        assert frames[2]["degraded_reason"] == "wall-clock-timeout"
        assert frames[2]["attempts"] == 1

    def test_respawned_shard_answers_while_stdin_idles(self):
        """The deadline kill respawns the one shard while the session
        is blocked reading an idle stdin; the new shard must serve. (A
        shard forked while a thread blocks in ``sys.stdin.readline()``
        hangs in its child-side ``sys.stdin.close()``.)"""
        proc = spawn("--workers", "1")
        next_frame = frame_reader(proc)
        try:
            proc.stdin.write('{"workload": "raytrace", "scale": 4, '
                             '"timeout": 0.2, "id": "late"}\n')
            proc.stdin.flush()
            late = next_frame()
            assert late["id"] == "late"
            assert late["body"]["degraded_reason"] == "wall-clock-timeout"
            proc.stdin.write('{"workload": "word_count", "id": "next"}\n')
            proc.stdin.flush()
            following = next_frame()
            assert following["id"] == "next"
            assert following["body"]["status"] == "ok"
            proc.stdin.close()
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
            proc.stdin.close()
            proc.stderr.close()

    def test_in_process_serve_restores_dispositions(self, monkeypatch,
                                                    capsys):
        """``main(["serve"])`` must leave SIGINT/SIGTERM exactly as it
        found them.  A leaked handler is inherited by every process
        forked afterwards in the same interpreter."""
        from repro.cli import main

        before = (signal.getsignal(signal.SIGINT),
                  signal.getsignal(signal.SIGTERM))
        with open(os.devnull) as stdin:
            monkeypatch.setattr("sys.stdin", stdin)
            assert main(["serve"]) == 0
        capsys.readouterr()
        after = (signal.getsignal(signal.SIGINT),
                 signal.getsignal(signal.SIGTERM))
        assert after == before
