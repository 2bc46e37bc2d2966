"""Run ``repro serve`` sessions for tests: in-process (the gateway's
stdio transport, with a temporary file standing in for stdin) or as a
subprocess talked to over pipes."""

import asyncio
import io
import json
import os
import queue
import subprocess
import sys
import tempfile
import threading

from repro.gateway.server import Gateway, GatewayOptions

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


class Session:
    """A finished session: the gateway, its stdout frames in order,
    and its metrics stream (the final snapshot last)."""

    def __init__(self, gateway, out: str, metrics: str) -> None:
        self.gateway = gateway
        self.frames = [json.loads(line) for line in out.splitlines()]
        self.metrics = [json.loads(line) for line in metrics.splitlines()]

    @property
    def finals(self):
        return [frame for frame in self.frames if frame["final"]]

    @property
    def counters(self):
        return self.metrics[-1]["counters"]

    def answer(self, request_id):
        """The body of the one final frame echoing *request_id*."""
        (frame,) = [frame for frame in self.finals
                    if frame.get("id") == request_id]
        return frame["body"]


def serve(lines=(), data=None, **options) -> Session:
    """Serve *lines* (or raw *data* bytes) through
    ``GatewayOptions(**options)``, one shard unless ``workers`` says
    otherwise."""
    options.setdefault("workers", 1)
    out, metrics = io.StringIO(), io.StringIO()
    gateway = Gateway(GatewayOptions(metrics_stream=metrics, **options))
    if data is None:
        data = "".join(line + "\n" for line in lines).encode("utf-8")

    with tempfile.TemporaryFile() as stdin:
        stdin.write(data)
        stdin.seek(0)
        asyncio.run(asyncio.wait_for(
            gateway.serve_stdio(stdin.fileno(), out), timeout=120))
    return Session(gateway, out.getvalue(), metrics.getvalue())


def spawn(*flags):
    """Start ``python -m repro serve *flags`` with text pipes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *flags],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, text=True)


def frame_reader(proc):
    """A function returning *proc*'s next stdout frame, which raises
    ``queue.Empty`` instead of hanging when none comes in time."""
    lines: queue.Queue = queue.Queue()

    def pump() -> None:
        with proc.stdout:
            for line in proc.stdout:
                lines.put(line)

    threading.Thread(target=pump, daemon=True).start()
    return lambda timeout=60.0: json.loads(lines.get(timeout=timeout))
