"""Input hardening and graceful shutdown for the serve loop."""

import io
import json
import os
import signal
import subprocess
import sys
import time

from repro.service.serve import ShutdownFlag, serve_loop

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _serve(lines, **kwargs):
    out = io.StringIO()
    served = serve_loop(io.StringIO("\n".join(lines) + "\n"), out, **kwargs)
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    return served, responses


class TestHardening:
    def test_oversized_line_refused_and_loop_survives(self):
        huge = json.dumps({"source": "x" * 4096, "name": "huge"})
        served, responses = _serve(
            [huge, '{"workload": "word_count", "id": 2}'],
            max_request_bytes=1024)
        assert served == 1
        assert responses[0]["status"] == "error"
        assert responses[0]["error"]["type"] == "RequestTooLarge"
        assert responses[1]["status"] == "ok"
        assert responses[1]["id"] == 2

    def test_oversized_line_without_newline_at_eof(self):
        out = io.StringIO()
        served = serve_loop(io.StringIO("{" + "a" * 4096), out,
                            max_request_bytes=256)
        assert served == 0
        record = json.loads(out.getvalue().splitlines()[0])
        assert record["error"]["type"] == "RequestTooLarge"

    def test_deep_nesting_refused_before_parse(self):
        hostile = "[" * 200 + "]" * 200
        served, responses = _serve(
            [hostile, '{"workload": "word_count"}'], max_json_depth=32)
        assert served == 1
        assert responses[0]["error"]["type"] == "RequestTooDeep"
        assert responses[1]["status"] == "ok"

    def test_depth_limit_allows_reasonable_nesting(self):
        entry = json.dumps(
            {"workload": "word_count", "config": {"value_flow": True}})
        served, responses = _serve([entry], max_json_depth=32)
        assert served == 1
        assert responses[0]["status"] == "ok"

    def test_invalid_json_error_type_is_preserved(self):
        # The pre-scan must not change what malformed-but-small lines
        # report: clients match on JSONDecodeError.
        _, responses = _serve(["{nope", '{"workload": "word_count"}'])
        assert responses[0]["error"]["type"] == "JSONDecodeError"

    def test_deeply_nested_source_is_a_parse_error(self):
        source = ("int main() { int x; x = " + "(" * 5000 + "1"
                  + ")" * 5000 + "; return 0; }")
        entry = json.dumps({"source": source, "name": "deep"})
        _, responses = _serve([entry, '{"workload": "word_count"}'])
        assert responses[0]["status"] == "error"
        assert responses[0]["error"]["type"] == "ParseError"
        assert responses[1]["status"] == "ok"

    def test_no_limit_accepts_large_lines(self):
        big = json.dumps({"workload": "word_count",
                          "name": "n" * 4096, "id": 1})
        served, responses = _serve([big], max_request_bytes=None)
        assert served == 1
        assert responses[0]["status"] == "ok"


class TestShutdownFlag:
    def test_requested_flag_breaks_loop_between_requests(self):
        shutdown = ShutdownFlag()
        shutdown.requested = True
        served, responses = _serve(['{"workload": "word_count"}'],
                                   shutdown=shutdown)
        assert served == 0 and responses == []

    def test_trigger_while_reading_interrupts(self):
        class Hanging(io.StringIO):
            def __init__(self, flag):
                super().__init__()
                self.flag = flag

            def readline(self, *args):
                # Simulate a signal arriving while blocked in the read.
                self.flag.trigger()
                raise AssertionError("trigger should have interrupted")

        shutdown = ShutdownFlag()
        out = io.StringIO()
        metrics = io.StringIO()
        served = serve_loop(Hanging(shutdown), out, shutdown=shutdown,
                            metrics_stream=metrics)
        assert served == 0
        assert shutdown.requested
        # The final metrics snapshot still went out.
        final = json.loads(metrics.getvalue().splitlines()[-1])
        assert final["schema"] == "repro.metrics/1"

    def test_trigger_outside_read_defers(self):
        shutdown = ShutdownFlag()
        shutdown.trigger()  # not reading: must not raise
        assert shutdown.requested


class TestSignalSubprocess:
    def _spawn(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--metrics-interval", "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env, text=True)

    def _drain_and_signal(self, proc, signum):
        proc.stdin.write('{"workload": "word_count", "id": 1}\n')
        proc.stdin.flush()
        line = proc.stdout.readline()
        assert json.loads(line)["status"] == "ok"
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        # Final repro.metrics/1 snapshot flushed to stderr on the way out.
        snapshots = [json.loads(text) for text in err.splitlines()
                     if text.startswith("{")]
        assert snapshots and snapshots[-1]["schema"] == "repro.metrics/1"
        assert snapshots[-1]["counters"]["serve.requests"] == 1

    def test_sigterm_drains_and_exits_zero(self):
        self._drain_and_signal(self._spawn(), signal.SIGTERM)

    def test_sigint_drains_and_exits_zero(self):
        self._drain_and_signal(self._spawn(), signal.SIGINT)

    def test_in_process_serve_restores_dispositions(self, monkeypatch,
                                                    capsys):
        """``main(["serve"])`` must leave SIGINT/SIGTERM exactly as it
        found them.  A leaked cooperative handler is inherited by every
        process forked afterwards in the same interpreter, where it
        turns ``Process.terminate()`` into a no-op — the worker pool
        then joins a child that will never die."""
        import io

        from repro.cli import main

        before = (signal.getsignal(signal.SIGINT),
                  signal.getsignal(signal.SIGTERM))
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve"]) == 0
        capsys.readouterr()
        after = (signal.getsignal(signal.SIGINT),
                 signal.getsignal(signal.SIGTERM))
        assert after == before
