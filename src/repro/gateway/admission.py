"""Per-tenant admission control: token buckets + the gateway's one
bounded priority queue.

Every gateway request names a ``tenant`` (defaulting to
``"default"``).  Each tenant has a :class:`TenantPolicy` — a
token-bucket rate limit and a scheduling priority — loaded from the
``--tenants-config`` JSON document::

    {
      "default": {"rate": null, "burst": 64, "priority": 1},
      "ide":     {"rate": 200,  "burst": 400, "priority": 5},
      "batch":   {"rate": 20,   "burst": 40,  "priority": 0}
    }

Two independent gates, both shedding with structured 429-style error
records instead of silently dropping work:

- **rate**: a classic token bucket per tenant (``rate`` tokens/second
  refill, ``burst`` capacity; ``rate: null`` = unlimited).  An empty
  bucket raises :class:`~repro.gateway.protocol.RateLimited`.
- **queue depth**: the gateway keeps one priority-ordered
  :class:`PendingQueue`; past the configured high-water mark the
  lowest-priority newest queued request is shed with
  :class:`~repro.gateway.protocol.QueueFull` — unless the incoming
  request's priority is not above it, in which case the incoming
  request is refused directly. Backpressure is visible as the
  ``gateway.queue_depth`` gauge and the ``gateway.shed`` counter in
  the ``repro.metrics/1`` feed.

Clocks are injectable (``clock=``) so tests drive refill
deterministically.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.gateway.protocol import BadRequest, RateLimited

#: Tenant used when a request names none.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's admission parameters."""

    name: str
    rate: Optional[float] = None    # tokens/second; None = unlimited
    burst: int = 64                 # bucket capacity
    priority: int = 1               # higher = scheduled first, shed last

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate < 0:
            raise ValueError(f"tenant {self.name!r}: rate must be >= 0")
        if self.burst < 1:
            raise ValueError(f"tenant {self.name!r}: burst must be >= 1")


def policies_from_config(doc: object) -> Dict[str, TenantPolicy]:
    """Parse a ``--tenants-config`` document (tenant name ->
    {rate, burst, priority})."""
    if not isinstance(doc, dict):
        raise ValueError("tenants config is not a JSON object")
    policies: Dict[str, TenantPolicy] = {}
    for name, fields in doc.items():
        if not isinstance(fields, dict):
            raise ValueError(f"tenant {name!r} config is not an object")
        unknown = set(fields) - {"rate", "burst", "priority"}
        if unknown:
            raise ValueError(
                f"tenant {name!r}: unknown field(s) {sorted(unknown)}")
        rate = fields.get("rate")
        if rate is not None and not isinstance(rate, (int, float)):
            raise ValueError(f"tenant {name!r}: rate is not a number")
        policies[name] = TenantPolicy(
            name=name,
            rate=float(rate) if rate is not None else None,
            burst=int(fields.get("burst", 64)),
            priority=int(fields.get("priority", 1)),
        )
    return policies


class TokenBucket:
    """Continuous-refill token bucket."""

    def __init__(self, rate: Optional[float], burst: int,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.rate = rate
        self.burst = burst
        self.clock = clock
        self.tokens = float(burst)
        self._last = clock()

    def _refill(self) -> None:
        now = self.clock()
        elapsed = max(0.0, now - self._last)
        self._last = now
        if self.rate is not None:
            self.tokens = min(float(self.burst),
                              self.tokens + elapsed * self.rate)

    def try_take(self) -> bool:
        """Consume one token; False when the bucket is empty."""
        if self.rate is None:
            return True
        self._refill()
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Maps tenants to policies and enforces their token buckets."""

    def __init__(self, policies: Optional[Dict[str, TenantPolicy]] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.policies = dict(policies or {})
        self.policies.setdefault(DEFAULT_TENANT,
                                 TenantPolicy(name=DEFAULT_TENANT))
        self.clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self.rate_limited = 0

    def policy(self, tenant: str) -> TenantPolicy:
        """The tenant's policy; unknown tenants inherit the default
        policy's limits (so a typo cannot escape admission control)."""
        if tenant in self.policies:
            return self.policies[tenant]
        default = self.policies[DEFAULT_TENANT]
        return TenantPolicy(name=tenant, rate=default.rate,
                            burst=default.burst, priority=default.priority)

    def admit(self, tenant: object) -> TenantPolicy:
        """Charge one request to *tenant*'s bucket.  Returns the
        policy (the scheduler needs its priority); raises
        :class:`~repro.gateway.protocol.RateLimited` on an empty
        bucket and :class:`~repro.gateway.protocol.BadRequest` for a
        non-string tenant."""
        if tenant is None:
            tenant = DEFAULT_TENANT
        if not isinstance(tenant, str) or not tenant:
            raise BadRequest(f"tenant is not a non-empty string: {tenant!r}")
        policy = self.policy(tenant)
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(policy.rate, policy.burst, clock=self.clock)
            self._buckets[tenant] = bucket
        if not bucket.try_take():
            self.rate_limited += 1
            raise RateLimited(
                f"tenant {tenant!r} exceeded {policy.rate:g} requests/s "
                f"(burst {policy.burst})")
        return policy


class PendingQueue:
    """The gateway's one priority-ordered pending queue, bounded at
    *limit* entries.

    Kept sorted by ``(-priority, seq)``: index 0 is the
    highest-priority oldest entry, the tail is the lowest-priority
    newest entry (first to shed).  Items are opaque to the queue; the
    scheduler stores its job objects.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._entries: List[Tuple[int, int, object]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, priority: int, seq: int, item: object) -> Optional[object]:
        """Queue *item*; returns the entry shed to stay within the
        limit, or None.  A full queue sheds its tail when *priority* is
        above the tail's; otherwise it sheds *item* itself, unqueued:
        the incoming request loses ties, because queued work has
        already waited."""
        shed = None
        if len(self._entries) >= self.limit:
            if not self._entries or priority <= -self._entries[-1][0]:
                return item
            shed = self._entries.pop()[2]
        bisect.insort(self._entries, (-priority, seq, item))
        return shed

    def pop_first(self, runnable: Callable[[object], bool]
                  ) -> Optional[object]:
        """Remove and return the first entry *runnable* accepts (None
        when it accepts none)."""
        for i, (_, _, item) in enumerate(self._entries):
            if runnable(item):
                del self._entries[i]
                return item
        return None
