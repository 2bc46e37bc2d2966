"""``repro serve``: the gateway's framed-JSONL session over
stdin/stdout."""

import json
import os

import pytest

from repro.frontend import compile_source
from repro.fsam import FSAM, FSAMConfig
from repro.gateway.coalesce import InflightJob
from repro.gateway.server import Gateway
from repro.service import shards
from repro.service.artifacts import artifact_from_result
from tests.service.serving import frame_reader, serve, spawn

FIG1A = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                     "examples", "fig1a.mc")


def _tiny(n: int, request_id=None) -> str:
    entry = {"source": f"int main() {{ return {n}; }}", "name": f"t{n}"}
    if request_id is not None:
        entry["id"] = request_id
    return json.dumps(entry)


class TestServeLoop:
    def test_workload_request(self):
        session = serve(['{"workload": "word_count", "id": 1}'])
        body = session.answer(1)
        assert body["name"] == "word_count"
        assert body["status"] == "ok"
        assert body["cache"] == "miss"
        assert body["summary"]["points_to_entries"] > 0
        assert all(frame["schema"] == "repro.gwframe/1"
                   for frame in session.frames)

    def test_id_echoed_back(self):
        session = serve(['{"workload": "word_count", "id": 42}'])
        assert [frame["id"] for frame in session.frames] == [42]

    def test_second_request_hits_cache(self, tmp_path):
        # A second session on the same cache answers from disk.
        cache_root = str(tmp_path / "cache")
        first = serve(['{"workload": "word_count", "id": 1}'],
                      cache_root=cache_root).answer(1)
        second = serve(['{"workload": "word_count", "id": 2}'],
                       cache_root=cache_root).answer(2)
        assert [first["cache"], second["cache"]] == ["miss", "hit"]
        assert first["digest"] == second["digest"]
        assert first["payload_digest"] == second["payload_digest"]

    def test_cached_miss_keeps_no_function_store(self, tmp_path):
        cache_root = tmp_path / "cache"
        body = serve(['{"workload": "word_count", "id": 1}'],
                     cache_root=str(cache_root)).answer(1)
        assert body["cache"] == "miss"
        assert "incremental" not in body["summary"]
        assert cache_root.is_dir()
        assert not (cache_root / "func").exists()

    def test_malformed_line_does_not_kill_the_loop(self):
        session = serve([
            'this is not json',
            '{"no_program": true, "id": "after"}',
            '{"workload": "word_count", "id": "ok"}',
        ])
        assert len(session.finals) == 3
        (garbage,) = [frame for frame in session.finals
                      if "id" not in frame]
        assert garbage["kind"] == "error"
        assert session.answer("after")["status"] == "error"
        assert session.answer("ok")["status"] == "ok"

    def test_badly_typed_entries_answer_bad_request(self):
        # A field of the wrong type (int(None), set(5)) is a malformed
        # entry like any other: a typed error frame echoing the id.
        session = serve([
            '{"workload": "kmeans", "scale": null, "id": 1}',
            '{"workload": "kmeans", "config": 5, "id": 2}',
            '{"workload": "word_count", "id": 3}',
        ])
        assert len(session.finals) == 3
        for request_id in (1, 2):
            assert session.answer(request_id)["status"] == "error"
            assert session.answer(request_id)["error"]["type"] \
                == "BadRequest"
        assert session.answer(3)["status"] == "ok"

    def test_intake_failure_still_answers_its_line(self, monkeypatch):
        """An exception intake does not expect still ends the line
        with one final error frame echoing its id."""
        resolve = Gateway._resolve

        def broken_resolve(self, entry):
            if entry.get("id") == "boom":
                raise RuntimeError("intake bug")
            return resolve(self, entry)

        monkeypatch.setattr(Gateway, "_resolve", broken_resolve)
        session = serve(['{"workload": "word_count", "id": "boom"}',
                         '{"workload": "word_count", "id": "ok"}'])
        assert session.answer("boom")["error"] == {
            "type": "RuntimeError", "message": "intake bug", "code": 500}
        assert session.answer("ok")["status"] == "ok"
        assert session.counters["gateway.errors"] == 1

    def test_error_record_is_structured(self):
        """Garbage then a valid request: the garbage line yields a
        typed error frame, the valid line is still served."""
        session = serve([
            '<<< not json >>>',
            '{"workload": "word_count", "id": 3}',
        ])
        (err,) = [frame["body"] for frame in session.finals
                  if "id" not in frame]
        assert err["status"] == "error"
        assert err["error"]["type"] == "BadRequest"
        assert err["error"]["code"] == 400
        assert "not valid JSON" in err["error"]["message"]
        assert session.answer(3)["status"] == "ok"

    def test_unserializable_response_degrades_to_error_record(
            self, monkeypatch):
        """A body json cannot encode still answers its request, as an
        error frame with the same id."""
        def fake_submit(self, entry):
            job = InflightJob("k", "analyze")
            job.publish("result", {"weird": object()}, final=True)
            return job

        monkeypatch.setattr(Gateway, "submit", fake_submit)
        session = serve(['{"workload": "word_count", "id": 9}'])
        (frame,) = session.frames
        assert frame["id"] == 9 and frame["final"]
        assert frame["kind"] == "error"
        assert frame["body"]["error"]["type"] == "TypeError"
        assert "JSON serializable" in frame["body"]["error"]["message"]
        assert session.counters["gateway.errors"] == 1

    def test_blank_lines_skipped(self):
        session = serve(["", '{"workload": "word_count", "id": 1}', ""])
        assert len(session.frames) == 1

    def test_file_entry_uses_base_dir(self, tmp_path):
        (tmp_path / "tiny.mc").write_text("int main() { return 0; }")
        session = serve(['{"file": "tiny.mc", "id": 1}'],
                        base_dir=str(tmp_path))
        assert session.answer(1)["name"] == "tiny.mc"
        assert session.answer(1)["status"] == "ok"

    def test_edited_file_is_read_afresh(self, tmp_path):
        """A ``file`` entry is read on every request: after an edit, the
        same entry analyses the new program, not the hot answer for the
        old one."""
        program = tmp_path / "p.mc"
        program.write_text("int main() { return 0; }")
        proc = spawn("--base-dir", str(tmp_path))
        next_frame = frame_reader(proc)
        try:
            proc.stdin.write('{"file": "p.mc", "id": 1}\n')
            proc.stdin.flush()
            before = next_frame()
            program.write_text("int main() { int x; x = 1; return x; }")
            proc.stdin.write('{"file": "p.mc", "id": 2}\n')
            proc.stdin.flush()
            after = next_frame()
            proc.stdin.close()
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
            proc.stdin.close()
            proc.stderr.close()
        assert [before["id"], after["id"]] == [1, 2]
        before, after = before["body"], after["body"]
        assert [before["cache"], after["cache"]] == ["miss", "miss"]
        assert before["digest"] != after["digest"]

    @pytest.mark.parametrize("config", [{"solver_mode": "demand"},
                                        {"trace": True}],
                             ids=["solver_mode", "trace"])
    def test_run_mode_request_cannot_poison_the_cache(self, config,
                                                      tmp_path):
        """A request whose config names a run mode is refused as an
        unknown field, so it stores nothing under the full analysis's
        key: the default request for the same source that follows it
        in the same ``--cache`` session is a miss answered with the
        reference engine's fixpoint."""
        with open(FIG1A) as handle:
            source = handle.read()
        proc = spawn("--cache", str(tmp_path / "cache"))
        next_frame = frame_reader(proc)
        answers = []
        try:
            for request_id, extra in (("mode", {"config": config}),
                                      ("default", {})):
                entry = {"source": source, "name": "fig1a",
                         "id": request_id, **extra}
                proc.stdin.write(json.dumps(entry) + "\n")
                proc.stdin.flush()
                answers.append(next_frame())
            proc.stdin.close()
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
            proc.stdin.close()
            proc.stderr.close()
        refused, default = (frame["body"] for frame in answers)
        assert refused["status"] == "error"
        assert refused["error"]["type"] == "BadRequest"
        assert refused["error"]["code"] == 400
        assert next(iter(config)) in refused["error"]["message"]
        oracle = FSAM(compile_source(source, name="fig1a"),
                      FSAMConfig(solver_engine="reference")).run()
        assert default["status"] == "ok"
        assert default["cache"] == "miss"
        assert default["payload_digest"] == \
            artifact_from_result("fig1a", oracle).payload_digest()

    def test_obs_counters(self, tmp_path):
        session = serve(['{"workload": "word_count", "id": 1}', 'garbage'],
                        cache_root=str(tmp_path / "cache"))
        assert session.counters["gateway.requests"] == 1
        assert session.counters["gateway.refused"] == 1
        # The shard's store tallies arrive with its shutdown.
        assert session.counters["cache.stores"] == 1

    def test_degraded_request_served(self):
        session = serve(['{"workload": "raytrace", "id": 1, '
                         '"config": {"time_budget": 1e-9}}'])
        assert session.answer(1)["status"] == "degraded"
        assert session.answer(1)["degraded_reason"] == "budget-exhausted"


class TestServeDispatch:
    def test_timeout_degrades_with_wall_clock_timeout(self):
        # --workers 1 is one shard process, so --timeout is a
        # wall-clock deadline there too: the shard is killed.
        session = serve(['{"workload": "raytrace", "id": 1}'],
                        timeout=1e-6)
        body = session.answer(1)
        assert body["status"] == "degraded"
        assert body["degraded_reason"] == "wall-clock-timeout"
        assert session.counters["gateway.deadline_kills"] == 1

    def test_analysis_error_type_same_inline_and_pooled(self):
        # One shard or two: a program that does not parse answers the
        # same typed error, and the session goes on.
        bad = '{"source": "int main( { return 0; }", "name": "bad", "id": 4}'
        for workers in (1, 2):
            session = serve([bad, '{"workload": "word_count", "id": 5}'],
                            workers=workers)
            assert session.answer(4)["status"] == "error"
            assert session.answer(4)["error"]["type"] == "ParseError"
            assert session.answer(5)["status"] == "ok"
            assert session.counters["gateway.errors"] == 1

    def test_second_crash_degrades_after_two_attempts(self, monkeypatch):
        # The shards fork from this process, so they run the patch.
        monkeypatch.setattr(shards, "_run_analyze",
                            lambda state, msg, conn: os._exit(1))
        session = serve(['{"workload": "word_count", "id": 1}'], workers=2)
        body = session.answer(1)
        assert body["status"] == "degraded"
        assert body["degraded_reason"] == "worker-crash"
        assert body["attempts"] == 2
        assert session.counters["gateway.retries"] == 1

    def test_lone_shard_crash_is_retried_on_its_respawn(self, monkeypatch,
                                                        tmp_path):
        # One shard: the crashed job and the one queued behind it wait
        # for the respawn instead of finding no shard.
        marker = str(tmp_path / "crashed")
        real_run_analyze = shards._run_analyze

        def crash_once(state, msg, conn):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return real_run_analyze(state, msg, conn)
            os._exit(1)

        monkeypatch.setattr(shards, "_run_analyze", crash_once)
        session = serve([_tiny(1, 1), _tiny(2, 2)])
        assert session.answer(1)["status"] == "ok"
        assert session.answer(1)["attempts"] == 2
        assert session.answer(2)["status"] == "ok"
        assert session.answer(2)["attempts"] == 1
        assert session.counters["gateway.retries"] == 1


class TestOneGatewaySession:
    def test_session_starts_its_shards_once(self):
        session = serve([_tiny(n, n) for n in range(5)], workers=2)
        assert all(session.answer(n)["status"] == "ok" for n in range(5))
        handles = session.gateway.pool.handles.values()
        assert [handle.generation for handle in handles] == [1, 1]
        assert session.gateway.pool.respawns == 0

    def test_answers_may_arrive_out_of_order(self):
        session = serve(['{"workload": "raytrace", "scale": 2, '
                         '"id": "slow"}', 'garbage'])
        assert [frame.get("id") for frame in session.frames] \
            == [None, "slow"]

    def test_entry_memo_holds_workloads_only(self):
        # An inline source already carries its text; memoizing it would
        # hold the source twice.
        session = serve([_tiny(1, 1), _tiny(2, 2), _tiny(1, 3)])
        assert len(session.gateway._entry_memo) == 0
        session = serve(['{"workload": "word_count", "id": "a"}',
                         '{"workload": "word_count", "id": "b"}'])
        assert len(session.gateway._entry_memo) == 1
        assert session.counters["gateway.entry_memo_hits"] == 1

    def test_identical_requests_in_flight_run_once(self):
        session = serve(['{"workload": "word_count", "id": "a"}',
                         '{"workload": "word_count", "id": "b"}'])
        assert session.answer("a") == session.answer("b")
        assert session.counters["gateway.coalesced"] == 1
        assert session.counters["gateway.dispatched"] == 1

    def test_repeat_answers_hot(self):
        # max_queue=1 reads the next line only once the last is
        # answered, so the repeat finds the first answer hot.
        session = serve(['{"workload": "word_count", "id": "a"}',
                         '{"workload": "word_count", "id": "b"}'],
                        max_queue=1)
        assert session.answer("a")["cache"] == "miss"
        assert session.answer("b")["cache"] == "hot"
        assert session.answer("b")["payload_digest"] \
            == session.answer("a")["payload_digest"]
