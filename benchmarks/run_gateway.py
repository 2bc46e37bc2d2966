"""Gateway load test: zipfian trace replay -> ``BENCH_10.json``.

Drives a real in-process :class:`repro.gateway.server.Gateway` (TCP,
framed JSONL, persistent shard workers) with a seeded zipfian trace
(``benchmarks/gateway_trace.py``) whose ranks are ordered by *cold* cost —
the most expensive workloads are the hottest, the regime the gateway's
consistent-hash routing + coalescing + layered caches target. Reports,
per workload, client-observed p50/p99 latency and the speedup over the
cold no-cache baseline (``run_request_inline`` on a fresh process
state), plus coalesce/cache-hit rates, a streamed-frames ordering
check on the two most expensive workloads (the Andersen preview frame
must arrive before the FSAM result), a warm re-run, and a bit-identity
sweep of every ok analyze response against the inline oracle digests.

Usage::

    PYTHONPATH=src python benchmarks/run_gateway.py --out BENCH_10.json
    PYTHONPATH=src python benchmarks/run_gateway.py --mini --out report.json

``--mini`` is the CI smoke shape: 200 requests, smoke scales, two
tenants — and the run *asserts* (exit 1 on failure) that no response
was dropped, that the coalesce counter moved, and that a warm re-run
of the trace head is served from the hot caches.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from gateway_trace import DEFAULT_SKEW, TraceGenerator, skew_error
from repro.gateway.server import Gateway, GatewayOptions
from repro.harness.scales import BENCH_SCALES, SMOKE_SCALES
from repro.service.requests import request_from_entry
from repro.service.runner import run_request_inline
from repro.workloads import workload_names

SCHEMA = "repro.gwbench/1"


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def cold_baselines(scales: Dict[str, int]) -> Dict[str, Dict[str, object]]:
    """One cold, cache-free inline run per workload: the latency
    baseline the gateway must beat, and the bit-identity oracle."""
    out: Dict[str, Dict[str, object]] = {}
    for name in sorted(scales):
        request = request_from_entry({"workload": name,
                                      "scale": scales[name]})
        start = time.perf_counter()
        outcome = run_request_inline(request)
        seconds = time.perf_counter() - start
        out[name] = {
            "seconds": round(seconds, 4),
            "digest": outcome.digest,
            "payload_digest": outcome.artifact.payload_digest(),
        }
        print(f"  cold {name}: {seconds:.2f}s", file=sys.stderr)
    return out


async def _request(reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter,
                   entry: Dict[str, object]
                   ) -> Tuple[Optional[Dict[str, object]],
                              List[Tuple[str, float]], float]:
    """One closed-loop request: returns (final_frame, [(kind, at)],
    latency_seconds). final_frame None = connection dropped."""
    start = time.perf_counter()
    writer.write((json.dumps(entry) + "\n").encode("utf-8"))
    await writer.drain()
    kinds: List[Tuple[str, float]] = []
    while True:
        line = await reader.readline()
        if not line:
            return None, kinds, time.perf_counter() - start
        frame = json.loads(line)
        kinds.append((frame.get("kind"), time.perf_counter() - start))
        if frame.get("final"):
            return frame, kinds, time.perf_counter() - start


async def streaming_checks(port: int, names: List[str],
                           scales: Dict[str, int]
                           ) -> Dict[str, Dict[str, object]]:
    """Cold streamed analyze per workload: the Andersen preview frame
    must land strictly before the FSAM result frame."""
    out: Dict[str, Dict[str, object]] = {}
    for name in names:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        entry = {"workload": name, "scale": scales[name], "stream": True}
        final, kinds, seconds = await _request(reader, writer, entry)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass
        order = [kind for kind, _ in kinds]
        preview_at = next((at for kind, at in kinds if kind == "andersen"),
                          None)
        out[name] = {
            "frames": order,
            "order_ok": order[:1] == ["andersen"] and order[-1] == "result",
            "preview_seconds": round(preview_at, 4)
            if preview_at is not None else None,
            "total_seconds": round(seconds, 4),
            "status": (final or {}).get("body", {}).get("status"),
        }
        print(f"  stream {name}: preview at {preview_at:.2f}s of "
              f"{seconds:.2f}s", file=sys.stderr)
    return out


async def replay(port: int, trace: List[Dict[str, object]],
                 connections: int,
                 oracles: Dict[str, Dict[str, object]]
                 ) -> Dict[str, object]:
    """Replay *trace* over *connections* persistent closed-loop JSONL
    clients; returns latency/fidelity tallies."""
    latencies: Dict[str, List[float]] = defaultdict(list)
    statuses: Dict[str, int] = defaultdict(int)
    mismatches = 0
    checked = 0
    dropped = 0

    async def client(entries: List[Dict[str, object]]) -> None:
        nonlocal mismatches, checked, dropped
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for entry in entries:
            final, _, seconds = await _request(reader, writer, entry)
            if final is None:
                dropped += 1
                return
            body = final.get("body", {})
            name = str(entry["workload"])
            latencies[name].append(seconds)
            if "error" in body:
                statuses["error"] += 1
                continue
            statuses[str(body.get("status"))] += 1
            if body.get("status") == "ok" \
                    and entry.get("op", "analyze") == "analyze":
                checked += 1
                if body.get("payload_digest") \
                        != oracles[name]["payload_digest"]:
                    mismatches += 1
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass

    start = time.perf_counter()
    await asyncio.gather(*[
        client(trace[i::connections]) for i in range(connections)])
    wall = time.perf_counter() - start
    return {
        "latencies": latencies,
        "statuses": dict(statuses),
        "dropped": dropped,
        "bit_identity": {"checked": checked, "mismatches": mismatches},
        "wall_seconds": round(wall, 3),
        "throughput_rps": round(len(trace) / wall, 1) if wall else 0.0,
    }


async def run(args: argparse.Namespace) -> int:
    scales = dict(SMOKE_SCALES if args.mini else BENCH_SCALES)
    names = [name for name in workload_names() if name in scales]
    tenants = ("ci-a", "ci-b") if args.mini else ("default",)

    print("cold no-cache baselines:", file=sys.stderr)
    baselines = cold_baselines(scales)
    # Rank order: most expensive first — the zipf head lands on the
    # programs where warm serving matters most.
    ranked = sorted(names, key=lambda n: -baselines[n]["seconds"])
    catalogue = [{"workload": name, "scale": scales[name]}
                 for name in ranked]
    generator = TraceGenerator(catalogue, seed=args.seed, s=args.skew,
                               tenants=tenants)
    trace = generator.generate(args.requests)

    cache_root = tempfile.mkdtemp(prefix="gwbench-cache-")
    gateway = Gateway(GatewayOptions(
        workers=args.workers, cache_root=cache_root,
        max_queue=max(64, 2 * args.connections)))
    await gateway.start()
    try:
        print(f"gateway up on port {gateway.port} "
              f"({args.workers} shards)", file=sys.stderr)
        streaming = await streaming_checks(gateway.port, ranked[:2],
                                           scales)
        print(f"replaying {len(trace)} requests over "
              f"{args.connections} connections...", file=sys.stderr)
        result = await replay(gateway.port, trace, args.connections,
                              baselines)
        # Snapshot before the warm re-run so the replay's rates are
        # not polluted by the rerun's own hits.
        metrics = gateway.metrics()
        counters = dict(metrics.get("counters", {}))

        head = trace[:min(200, len(trace))]
        rerun = await replay(gateway.port, head, args.connections,
                             baselines)
        rerun_counters = gateway.metrics().get("counters", {})
    finally:
        await gateway.shutdown()

    requests_total = len(trace)
    coalesced = counters.get("gateway.coalesced", 0)
    hot_hits = counters.get("gateway.hot_hits", 0)
    worker_cache = {state: counters.get(f"gateway.worker_cache_{state}", 0)
                    for state in ("hot", "hit", "warm", "miss")}
    served_warm = hot_hits + coalesced + worker_cache["hot"] \
        + worker_cache["hit"] + worker_cache["warm"]
    rerun_hot = rerun_counters.get("gateway.hot_hits", 0) - hot_hits

    workloads: Dict[str, Dict[str, object]] = {}
    for name in ranked:
        series = result["latencies"].get(name, [])
        p50 = _percentile(series, 0.50)
        p99 = _percentile(series, 0.99)
        cold = baselines[name]["seconds"]
        workloads[name] = {
            "rank": ranked.index(name) + 1,
            "requests": len(series),
            "p50_ms": round(p50 * 1000, 3),
            "p99_ms": round(p99 * 1000, 3),
            "cold_seconds": cold,
            "p50_speedup_vs_cold": round(cold / p50, 1) if p50 else None,
        }

    top2 = ranked[:2]
    top2_speedups = {name: workloads[name]["p50_speedup_vs_cold"]
                     for name in top2}
    criterion = all(speedup is not None and speedup >= 5.0
                    for speedup in top2_speedups.values())
    streamed_ok = all(record["order_ok"] for record in streaming.values())

    doc = {
        "schema": SCHEMA,
        "pr": args.pr,
        "scales": "smoke" if args.mini else "bench",
        "requests": requests_total,
        "workers": args.workers,
        "connections": args.connections,
        "trace": {
            "seed": args.seed,
            "skew": args.skew,
            "tenants": list(tenants),
            "skew_error": round(skew_error(
                generator.rank_counts(trace), s=args.skew), 4),
        },
        "streaming": streaming,
        "workloads": workloads,
        "replay": {
            "wall_seconds": result["wall_seconds"],
            "throughput_rps": result["throughput_rps"],
            "dropped": result["dropped"],
            "statuses": result["statuses"],
            "coalesced": coalesced,
            "coalesce_rate": round(coalesced / requests_total, 4),
            "hot_hits": hot_hits,
            "worker_cache": worker_cache,
            "warm_rate": round(served_warm / requests_total, 4),
            "shed": counters.get("gateway.shed", 0),
            "retries": counters.get("gateway.retries", 0),
            "shard_deaths": counters.get("gateway.shard_deaths", 0),
        },
        "warm_rerun": {
            "requests": len(head),
            "wall_seconds": rerun["wall_seconds"],
            "statuses": rerun["statuses"],
            "dropped": rerun["dropped"],
            "hot_hits": rerun_hot,
        },
        "bit_identity": result["bit_identity"],
        "criteria": {
            "p50_speedup_top2": top2_speedups,
            "p50_speedup_top2_geq_5x": criterion,
            "streamed_preview_before_result": streamed_ok,
            "bit_identical": result["bit_identity"]["mismatches"] == 0,
        },
    }
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    for name in top2:
        print(f"  {name}: cold {workloads[name]['cold_seconds']}s -> warm "
              f"p50 {workloads[name]['p50_ms']}ms "
              f"({top2_speedups[name]}x)", file=sys.stderr)
    print(f"  coalesce_rate={doc['replay']['coalesce_rate']} "
          f"warm_rate={doc['replay']['warm_rate']} "
          f"dropped={result['dropped']}", file=sys.stderr)

    failures = []
    if result["dropped"]:
        failures.append(f"{result['dropped']} responses dropped")
    if result["bit_identity"]["mismatches"]:
        failures.append("gateway responses diverged from inline oracle")
    if not streamed_ok:
        failures.append("Andersen preview did not precede the result")
    if args.mini:
        if not coalesced:
            failures.append("coalesce counter never moved")
        warm_errors = rerun["statuses"].get("error", 0)
        if warm_errors or rerun["dropped"]:
            failures.append("warm re-run had errors/drops")
        if rerun_hot < 0.9 * len(head):
            failures.append(
                f"warm re-run not served hot ({rerun_hot}/{len(head)})")
    elif not criterion:
        failures.append(
            f"p50 speedup under 5x on the top workloads: {top2_speedups}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_10.json")
    parser.add_argument("--pr", default="10")
    parser.add_argument("--requests", type=int, default=100_000)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--connections", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skew", type=float, default=DEFAULT_SKEW)
    parser.add_argument("--mini", action="store_true",
                        help="CI shape: 200 requests, smoke scales, "
                        "two tenants, smoke assertions")
    args = parser.parse_args()
    if args.mini:
        args.requests = min(args.requests, 200)
        args.workers = min(args.workers, 2)
        args.connections = min(args.connections, 8)
    return asyncio.run(run(args))


if __name__ == "__main__":
    sys.exit(main())
