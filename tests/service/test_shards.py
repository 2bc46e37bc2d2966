"""The shard pool's process lifecycle: signal dispositions and
shutdown telemetry."""

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time

from repro.service.shards import ShardPool

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


class TestSignals:
    def test_shard_forked_after_add_signal_handler_dies_on_terminate(self):
        # A shard the gateway (re)spawns after installing its loop
        # signal handlers must still die on the deadline's terminate().
        async def scenario():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, lambda: None)
            pool = ShardPool(1)
            try:
                await pool.start()
                proc = pool.handles[0].proc
                proc.terminate()
                deadline = time.monotonic() + 10.0
                while proc.is_alive() and time.monotonic() < deadline:
                    await asyncio.sleep(0.02)
                return proc.exitcode
            finally:
                loop.remove_signal_handler(signal.SIGTERM)
                await pool.shutdown()

        assert _run(scenario()) == -signal.SIGTERM

    def test_shard_ignores_sigint(self):
        # Ctrl-C reaches the whole process group; the parent owns the
        # drain, so a shard survives SIGINT and still says bye.
        async def scenario():
            pool = ShardPool(1)
            await pool.start()
            os.kill(pool.handles[0].proc.pid, signal.SIGINT)
            await asyncio.sleep(0.3)
            alive = pool.handles[0].proc.is_alive()
            respawns = pool.respawns
            byes = await pool.shutdown()
            return alive, respawns, byes

        alive, respawns, byes = _run(scenario())
        assert alive and respawns == 0
        assert len(byes) == 1


class TestShutdown:
    def test_every_bye_arrives_when_a_reader_lags(self, monkeypatch):
        # Hold every reader thread back until the shards have said bye
        # and exited: shutdown must wait for the readers rather than
        # close the pipes under them.
        release = threading.Event()
        real_read_loop = ShardPool._read_loop

        def lagging_read_loop(self, handle, generation):
            release.wait(10.0)
            real_read_loop(self, handle, generation)

        errors = []
        monkeypatch.setattr(ShardPool, "_read_loop", lagging_read_loop)
        monkeypatch.setattr(threading, "excepthook", errors.append)

        async def scenario():
            pool = ShardPool(2)
            await pool.start()
            timer = threading.Timer(0.5, release.set)
            timer.start()
            try:
                return await pool.shutdown()
            finally:
                timer.cancel()
                release.set()

        byes = _run(scenario())
        assert len(byes) == 2
        assert errors == []


class TestImports:
    def test_service_import_loads_neither_asyncio_nor_the_gateway(self):
        # Batch, serve and every consumer of repro.service.artifacts
        # import the package; asyncio and the gateway server load only
        # when a pool or the gateway actually runs.
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.service; "
             "print(sorted(m for m in ('asyncio', 'repro.gateway.server') "
             "if m in sys.modules))"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert loaded.stdout.strip() == "[]"
