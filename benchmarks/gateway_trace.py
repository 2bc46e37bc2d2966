"""Synthetic request traces for gateway load testing.

A trace is a list of serve/gateway request entries drawn from a fixed
program catalogue with a **zipfian digest distribution**: the
rank-``r`` program is requested with probability proportional to
``1 / r**s``.  That is the shape of real analysis-as-a-service
traffic — most submissions are re-analyses of a few hot programs —
and it is exactly the regime the gateway's coalescing, its response
LRU, the shards' artifact cache and each program's warm home shard
for queries are built for.

Everything is driven by one seeded :class:`random.Random`, so a trace
is a pure function of ``(programs, n, seed, s, tenants,
query_fraction)`` — the load-test harness pregenerates it, replays it
byte-identically, and the CI smoke job replays a miniature one.  No
wall-clock anywhere.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

#: Default skew exponent: mildly steeper than classic zipf(1.0), a
#: common fit for content-addressed request logs.
DEFAULT_SKEW = 1.1


def zipf_weights(n: int, s: float = DEFAULT_SKEW) -> List[float]:
    """Normalized zipf(s) probabilities for ranks ``1..n``."""
    if n < 1:
        raise ValueError(f"need at least one rank, got {n}")
    raw = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def _cumulative(weights: Sequence[float]) -> List[float]:
    out: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        out.append(acc)
    out[-1] = 1.0  # close the rounding gap so draws never fall off
    return out


class TraceGenerator:
    """Deterministic zipfian request-trace generator.

    *programs* is the rank-ordered catalogue (rank 1 = hottest): each
    entry is a serve-style program reference such as ``{"workload":
    "raytrace"}`` or ``{"file": "x.mc"}`` plus optional ``config``.
    *tenants* cycle through the draws deterministically weighted by
    their share entries, and *query_fraction* of the requests are
    emitted as demand queries against the drawn program, using the
    per-program ``query_vars`` hints when present.
    """

    def __init__(self, programs: Sequence[Dict[str, object]],
                 seed: int = 0, s: float = DEFAULT_SKEW,
                 tenants: Sequence[str] = ("default",),
                 query_fraction: float = 0.0) -> None:
        if not programs:
            raise ValueError("trace needs a non-empty program catalogue")
        if not tenants:
            raise ValueError("trace needs at least one tenant")
        if not 0.0 <= query_fraction <= 1.0:
            raise ValueError("query_fraction must be within [0, 1]")
        self.programs = [dict(p) for p in programs]
        self.seed = seed
        self.s = s
        self.tenants = list(tenants)
        self.query_fraction = query_fraction
        self._cdf = _cumulative(zipf_weights(len(self.programs), s))

    def _draw_rank(self, rng: random.Random) -> int:
        u = rng.random()
        lo, hi = 0, len(self._cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def generate(self, n: int) -> List[Dict[str, object]]:
        """The first *n* trace entries.  Rerunning with the same
        constructor arguments yields the identical list."""
        rng = random.Random(self.seed)
        tenant_cycle = itertools.cycle(self.tenants)
        entries: List[Dict[str, object]] = []
        for i in range(n):
            rank = self._draw_rank(rng)
            program = self.programs[rank]
            entry: Dict[str, object] = {
                key: value for key, value in program.items()
                if key != "query_vars"
            }
            query_vars = program.get("query_vars")
            if query_vars and rng.random() < self.query_fraction:
                entry["op"] = "query"
                entry["var"] = rng.choice(list(query_vars))  # type: ignore[arg-type]
            entry["tenant"] = next(tenant_cycle)
            entry["id"] = i
            entries.append(entry)
        return entries

    def rank_counts(self, entries: Sequence[Dict[str, object]]
                    ) -> List[int]:
        """Requests per catalogue rank in *entries* (diagnostics and
        the skew test)."""
        index: Dict[str, int] = {}
        for rank, program in enumerate(self.programs):
            index[_program_key(program)] = rank
        counts = [0] * len(self.programs)
        for entry in entries:
            counts[index[_program_key(entry)]] += 1
        return counts


def _program_key(entry: Dict[str, object]) -> str:
    for key in ("workload", "file", "source"):
        if key in entry:
            return f"{key}:{entry[key]}:{entry.get('scale', 0)}"
    raise ValueError(f"entry names no program: {entry!r}")


def skew_error(counts: Sequence[int], s: float = DEFAULT_SKEW,
               top: Optional[int] = None) -> float:
    """Largest relative error between the observed rank frequencies
    and the ideal zipf(s) weights over the *top* ranks (defaults to
    the head half — tail ranks of a finite sample are noise).  The
    trace tests pin this under a tolerance for a fixed seed."""
    total = sum(counts)
    if total == 0:
        raise ValueError("empty trace")
    weights = zipf_weights(len(counts), s)
    top = top if top is not None else max(1, len(counts) // 2)
    worst = 0.0
    for rank in range(top):
        observed = counts[rank] / total
        ideal = weights[rank]
        worst = max(worst, abs(observed - ideal) / ideal)
    return worst


def catalogue_from_workloads(names: Sequence[str],
                             scale: int = 1) -> List[Dict[str, object]]:
    """A rank-ordered catalogue of registered workloads (rank order =
    the given name order)."""
    return [{"workload": name, "scale": scale} for name in names]
