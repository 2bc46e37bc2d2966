"""The shard lifecycle through batch sessions: requests spread over
shards, deadlines, the crash retry, degradation, terminal errors."""

import os

import pytest

from repro.fsam.config import FSAMConfig
from repro.service import shards
from repro.service.batch import run_batch
from repro.service.requests import AnalysisRequest
from repro.service.runner import run_degraded, run_request_inline
from repro.workloads import get_workload

SMALL = ("word_count", "kmeans", "automount")
BAD_SOURCE = "int main( { return 0; }"


def _requests(names=SMALL, **config_kwargs):
    config = FSAMConfig(**config_kwargs)
    return [AnalysisRequest(name=name,
                            source=get_workload(name).source(1),
                            config=config)
            for name in names]


def _run(requests, workers, **kwargs):
    report = run_batch(requests, workers=workers, **kwargs)
    return report.outcomes, report.counters


class TestPoolHappyPath:
    def test_pooled_matches_inline(self):
        requests = _requests()
        outcomes, counters = _run(requests, 2)
        assert [o.name for o in outcomes] == list(SMALL)
        for outcome, request in zip(outcomes, requests):
            inline = run_request_inline(request)
            assert outcome.status == "ok"
            assert outcome.body["payload_digest"] == \
                inline.artifact.payload_digest()
            assert outcome.attempts == 1
            assert outcome.seconds > 0 and outcome.queue_seconds >= 0
        assert counters["gateway.dispatched"] == len(SMALL)
        assert "gateway.degraded" not in counters
        assert "gateway.retries" not in counters

    def test_more_workers_than_requests(self):
        outcomes, _ = _run(_requests(("word_count",)), 8)
        assert len(outcomes) == 1
        assert outcomes[0].status == "ok"

    def test_results_in_request_order(self):
        # raytrace takes much longer than word_count; order must not
        # follow completion order.
        outcomes, _ = _run(_requests(("raytrace", "word_count")), 2)
        assert [o.name for o in outcomes] == ["raytrace", "word_count"]


class TestPoolDegradation:
    def test_budget_exhaustion_degrades_without_retry(self):
        # The cooperative in-process budget is deterministic, so the
        # shard degrades at once instead of walking the retry rung.
        outcomes, counters = _run(
            _requests(("raytrace",), time_budget=1e-9), 2)
        assert outcomes[0].status == "degraded"
        assert outcomes[0].body["degraded_reason"] == "budget-exhausted"
        assert outcomes[0].attempts == 1
        assert "gateway.retries" not in counters
        assert counters["batch.degraded"] == 1

    def test_wall_clock_timeout_retries_then_degrades(self):
        # A 1ms wall-clock deadline kills the shard before it can
        # finish. A kill is not retried: the request falls back to the
        # Andersen-only artifact at once instead of failing the batch.
        request = AnalysisRequest(name="raytrace",
                                  source=get_workload("raytrace").source(1),
                                  timeout=0.001)
        outcomes, counters = _run([request], 1)
        assert outcomes[0].status == "degraded"
        assert outcomes[0].body["degraded_reason"] == "wall-clock-timeout"
        # Andersen survives; no memory states, no solver work.
        assert outcomes[0].body["payload_digest"] == run_degraded(
            request, reason="wall-clock-timeout").payload_digest()
        assert outcomes[0].solver_iterations() == 0
        assert counters["gateway.deadline_kills"] == 1
        assert "gateway.retries" not in counters
        assert outcomes[0].attempts == 1

    def test_mixed_batch_never_fails(self):
        # One doomed request among healthy ones: everyone gets a
        # terminal outcome, in order.
        doomed = AnalysisRequest(name="doomed",
                                 source=get_workload("raytrace").source(1),
                                 config=FSAMConfig(time_budget=1e-9))
        requests = _requests(("word_count",)) + [doomed] \
            + _requests(("kmeans",))
        outcomes, _ = _run(requests, 2)
        assert [o.status for o in outcomes] == ["ok", "degraded", "ok"]


class TestTerminalErrors:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_malformed_request_does_not_abort_the_batch(self, workers):
        requests = _requests(("word_count",)) + [
            AnalysisRequest(name="bad", source=BAD_SOURCE)]
        report = run_batch(requests, workers=workers)
        assert [o.status for o in report.outcomes] == ["ok", "error"]
        assert report.outcomes[1].error["type"] == "ParseError"
        assert "summary" not in report.to_dict()["requests"][1]
        assert report.counters["batch.errors"] == 1
        # One dispatch per request: the doomed one is not retried.
        assert report.counters["gateway.dispatched"] == 2
        assert "gateway.retries" not in report.counters

    def test_worker_exception_is_dispatched_once(self):
        outcomes, counters = _run(
            [AnalysisRequest(name="bad", source=BAD_SOURCE)], 2)
        assert outcomes[0].error["type"] == "ParseError"
        assert outcomes[0].attempts == 1
        assert counters["gateway.dispatched"] == 1
        assert "gateway.retries" not in counters


_real_run_analyze = shards._run_analyze


def _answer_then_exit(state, msg, conn):
    """A shard that sends its final answer and exits at once, so the
    parent reads the message and the pipe's EOF back to back."""
    _real_run_analyze(state, msg, conn)
    os._exit(0)


def _exit_without_answer(state, msg, conn):
    os._exit(1)


class TestShardSendExitRace:
    def test_final_message_then_eof_yields_the_result(self, monkeypatch):
        # The shards fork from this process, so they run the patch. A
        # final message followed by EOF on the same pipe is an answer,
        # not a crash: no retry, no degradation.
        monkeypatch.setattr(shards, "_run_analyze", _answer_then_exit)
        request = _requests(("word_count",))[0]
        outcomes, counters = _run([request], 2)
        assert outcomes[0].status == "ok"
        assert outcomes[0].body["payload_digest"] == \
            run_request_inline(request).artifact.payload_digest()
        assert outcomes[0].attempts == 1
        assert "gateway.retries" not in counters

    def test_exit_without_message_is_a_crash(self, monkeypatch):
        # EOF with no final message: retried once on a live shard,
        # then degraded.
        monkeypatch.setattr(shards, "_run_analyze", _exit_without_answer)
        outcomes, counters = _run(_requests(("word_count",)), 2)
        assert outcomes[0].status == "degraded"
        assert outcomes[0].body["degraded_reason"] == "worker-crash"
        assert outcomes[0].attempts == 2
        assert counters["gateway.retries"] == 1
        assert counters["gateway.shard_deaths"] == 2


class TestPoolObs:
    def test_flush_obs(self):
        _, counters = _run(_requests(("word_count",)), 2)
        assert counters["gateway.dispatched"] == 1
        assert "gateway.degraded" not in counters
