"""Admission-control units (repro.gateway.admission)."""

import pytest

from repro.gateway.admission import (
    AdmissionController, PendingQueue, TenantPolicy, TokenBucket,
    policies_from_config,
)
from repro.gateway.protocol import BadRequest, RateLimited


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestPolicies:
    def test_from_config(self):
        policies = policies_from_config({
            "ide": {"rate": 200, "burst": 400, "priority": 5},
            "batch": {"rate": None, "priority": 0},
        })
        assert policies["ide"] == TenantPolicy("ide", 200.0, 400, 5)
        assert policies["batch"].rate is None
        assert policies["batch"].burst == 64

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            policies_from_config({"t": {"rate": 1, "color": "red"}})

    def test_rejects_non_objects(self):
        with pytest.raises(ValueError):
            policies_from_config(["not", "a", "dict"])
        with pytest.raises(ValueError):
            policies_from_config({"t": 7})

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TenantPolicy("t", rate=-1.0)
        with pytest.raises(ValueError):
            TenantPolicy("t", burst=0)


class TestTokenBucket:
    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        bucket.try_take(), bucket.try_take()
        assert not bucket.try_take()
        clock.advance(0.5)  # 1 token back at 2/s
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=3, clock=clock)
        clock.advance(60.0)
        taken = sum(1 for _ in range(10) if bucket.try_take())
        assert taken == 3

    def test_unlimited(self):
        bucket = TokenBucket(rate=None, burst=1, clock=FakeClock())
        assert all(bucket.try_take() for _ in range(100))


class TestAdmissionController:
    def test_rate_limit_raises_with_count(self):
        clock = FakeClock()
        controller = AdmissionController(
            {"t": TenantPolicy("t", rate=1.0, burst=1)}, clock=clock)
        assert controller.admit("t").priority == 1
        with pytest.raises(RateLimited):
            controller.admit("t")
        assert controller.rate_limited == 1
        clock.advance(1.0)
        controller.admit("t")

    def test_unknown_tenant_inherits_default_limits(self):
        clock = FakeClock()
        controller = AdmissionController(
            {"default": TenantPolicy("default", rate=1.0, burst=1,
                                     priority=3)}, clock=clock)
        policy = controller.admit("stranger")
        assert policy.priority == 3
        with pytest.raises(RateLimited):
            controller.admit("stranger")
        # Buckets are still per-tenant: another stranger has its own.
        controller.admit("other-stranger")

    def test_none_tenant_is_default(self):
        controller = AdmissionController(clock=FakeClock())
        assert controller.admit(None).name == "default"

    def test_non_string_tenant_refused(self):
        controller = AdmissionController(clock=FakeClock())
        with pytest.raises(BadRequest):
            controller.admit(7)
        with pytest.raises(BadRequest):
            controller.admit("")


def _everything(_item):
    return True


class TestPendingQueue:
    def test_pops_highest_priority_oldest_first(self):
        queue = PendingQueue(limit=4)
        queue.push(1, 0, "low-old")
        queue.push(5, 1, "high-a")
        queue.push(5, 2, "high-b")
        queue.push(1, 3, "low-new")
        assert [queue.pop_first(_everything) for _ in range(4)] == [
            "high-a", "high-b", "low-old", "low-new"]
        assert queue.pop_first(_everything) is None

    def test_pop_first_skips_what_the_taker_may_not_run(self):
        queue = PendingQueue(limit=4)
        queue.push(5, 0, "query@1")
        queue.push(1, 1, "analysis")
        queue.push(1, 2, "query@0")
        mine = {"analysis", "query@0"}
        assert queue.pop_first(mine.__contains__) == "analysis"
        assert queue.pop_first(mine.__contains__) == "query@0"
        assert queue.pop_first(mine.__contains__) is None
        assert len(queue) == 1

    def test_shed_tail_takes_lowest_newest(self):
        queue = PendingQueue(limit=3)
        queue.push(1, 0, "low-old")
        queue.push(1, 1, "low-new")
        queue.push(5, 2, "high")
        assert queue.push(3, 3, "incoming") == "low-new"
        assert len(queue) == 3
        assert [queue.pop_first(_everything) for _ in range(3)] == [
            "high", "incoming", "low-old"]


class TestShedLowest:
    """The shedding rule of the gateway's one queue, past its limit."""

    def test_picks_queue_with_lowest_tail(self):
        queue = PendingQueue(limit=2)
        queue.push(5, 0, "hi")
        queue.push(1, 1, "lo")
        assert queue.push(3, 2, "incoming") == "lo"
        assert [queue.pop_first(_everything) for _ in range(2)] == [
            "hi", "incoming"]

    def test_incoming_loses_ties(self):
        queue = PendingQueue(limit=1)
        queue.push(3, 0, "queued")
        assert queue.push(3, 1, "incoming") == "incoming"
        assert queue.pop_first(_everything) == "queued"
        assert len(queue) == 0

    def test_incoming_below_everything_is_refused(self):
        queue = PendingQueue(limit=1)
        queue.push(5, 0, "queued")
        assert queue.push(1, 1, "incoming") == "incoming"
        assert len(queue) == 1

    def test_empty_queues(self):
        queue = PendingQueue(limit=0)
        assert queue.push(1, 0, "incoming") == "incoming"
        assert len(queue) == 0
