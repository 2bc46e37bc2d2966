"""Machine-readable benchmark snapshots: ``BENCH_<n>.json``.

Runs every workload under both solver engines (the optimised delta/
topological engine and the retained naive reference engine) and
emits one ``repro.bench/1`` JSON document per run with deterministic
work counts and memory, no wall clocks (timings come from
``perfbench/``):

- one traced measurement per engine (solver work counters, peak
  traced memory, points-to entry counts) plus the delta/reference
  ``iteration_ratio``; and
- a **query section** (``--queries N``, default 4): N seeded-random +
  N hot (most-SSA-versioned) top-level variables, each answered once
  by a *fresh* demand QueryEngine (a cold slice — no warm-answer
  accumulation), recording slice sizes and solver iterations.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py --pr 6 --out BENCH_6.json
    PYTHONPATH=src python benchmarks/run_bench.py --out BENCH_ci.json \
        --workloads radiosity,word_count --compare BENCH_4.json

``--compare`` re-reads a previous snapshot and flags any workload
whose delta-engine ``solver.iterations`` grew by more than the
threshold (default 20%); the process exits non-zero so CI can surface
the regression (the bench job itself is non-blocking). It also exits
non-zero when no workload was comparable at all (a baseline taken at
other scales, or without the delta engine): a check that compared
nothing must not read as a pass.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys

from repro.fsam import FSAM
from repro.fsam.config import FSAMConfig
from repro.frontend import compile_source
from repro.harness.measure import Measurement, measure_fsam
from repro.harness.scales import BENCH_SCALES, SMOKE_SCALES
from repro.schemas import BENCH_SCHEMA as SCHEMA
from repro.workloads import get_workload, source_loc, workload_names
ENGINES = ("delta", "reference")

# The counters/gauges a snapshot records per engine run.
COUNTERS = ("solver.iterations", "solver.node_revisits",
            "solver.delta_propagations", "solver.seeded_nodes",
            "valueflow.mhp_cache_hits", "mhp.pair_queries")
GAUGES = ("solver.sccs",)


def _engine_record(m: Measurement) -> dict:
    counters = (m.profile or {}).get("counters", {})
    gauges = (m.profile or {}).get("gauges", {})
    record = {
        "peak_memory_mb": round(m.peak_memory_mb, 3),
        "points_to_entries": m.points_to_entries,
        "oot": m.oot,
    }
    for name in COUNTERS:
        if name in counters:
            record[name] = counters[name]
    for name in GAUGES:
        if name in gauges:
            record[name] = gauges[name]
    return record


def _query_targets(module, count: int):
    """``count`` seeded-random + ``count`` hot variable names.

    "Hot" = the names with the most SSA-ish versions (temps sharing
    the name): many definition sites mean many slice roots, biasing
    toward the demand engine's worst case. The random half keeps the
    sample honest."""
    from repro.ir.values import Temp

    versions: dict = {}
    for fn in module.functions.values():
        for param in fn.params:
            versions[param.name] = versions.get(param.name, 0) + 1
        for instr in fn.instructions():
            dst = getattr(instr, "dst", None)
            if isinstance(dst, Temp):
                versions[dst.name] = versions.get(dst.name, 0) + 1
    names = sorted(versions)
    if not names:
        return []
    rng = random.Random(0x95A)
    picks = rng.sample(names, min(count, len(names)))
    hot = sorted(names, key=lambda n: (-versions[n], n))[:count]
    targets = []
    for name in picks + hot:
        if name not in targets:
            targets.append(name)
    return targets


def _query_section(result, count: int) -> dict | None:
    """Answer ``2*count`` demand queries against the shared pipeline.

    Every query uses a *fresh* QueryEngine so each answer is a cold
    slice-and-solve (the engine otherwise accumulates solved slices
    and later queries come back warm with zero iterations, which is
    the serving win but not the work this section records)."""
    from repro.fsam.query import QueryEngine

    targets = _query_targets(result.module, count)
    if not targets:
        return None
    rows = []
    for var in targets:
        engine = QueryEngine(result.module, result.dug, result.builder,
                             result.andersen, config=result.solver.config)
        answer = engine.query(var)
        rows.append({
            "var": var,
            "slice_nodes": answer.slice_nodes,
            "slice_fraction": round(answer.slice_fraction, 6),
            "iterations": answer.iterations,
        })
    slice_sizes = [row["slice_nodes"] for row in rows]
    return {
        "count": len(rows),
        "slice_nodes_min": min(slice_sizes),
        "slice_nodes_p50": int(statistics.median(slice_sizes)),
        "slice_nodes_max": max(slice_sizes),
        "slice_fraction_p50": round(statistics.median(
            [row["slice_fraction"] for row in rows]), 6),
        "queries": rows,
    }


def run_snapshot(names, scales, engines=ENGINES, queries=4,
                 verbose=True) -> dict:
    workloads = {}
    for name in names:
        scale = scales[name]
        source = get_workload(name).source(scale)
        entry = {"scale": scale, "loc": source_loc(source), "engines": {}}
        for engine in engines:
            m = measure_fsam(name, source,
                             config=FSAMConfig(solver_engine=engine))
            entry["engines"][engine] = _engine_record(m)
            if verbose:
                rec = entry["engines"][engine]
                print(f"  {name:>14} [{engine:>9}] "
                      f"iters={rec.get('solver.iterations', '-'):>7} "
                      f"revisits={rec.get('solver.node_revisits', '-'):>7} "
                      f"pts={rec['points_to_entries']}")
        if queries > 0:
            result = FSAM(compile_source(source, name=name)).run()
            qrec = _query_section(result, queries)
            if qrec is not None:
                entry["query"] = qrec
                if verbose:
                    print(f"  {name:>14} [{'query':>9}] "
                          f"{qrec['count']} queries, "
                          f"slice p50={qrec['slice_nodes_p50']} nodes")
        if "delta" in entry["engines"] and "reference" in entry["engines"]:
            d, r = entry["engines"]["delta"], entry["engines"]["reference"]
            entry["iteration_ratio"] = round(
                d["solver.iterations"] / max(r["solver.iterations"], 1), 3)
        workloads[name] = entry
    return workloads


def compare(baseline: dict, current: dict, threshold: float):
    """Workloads whose delta-engine solver.iterations regressed, and
    the number of workloads that were comparable at all."""
    regressions = []
    compared = 0
    for name, entry in sorted(current.items()):
        old = baseline.get("workloads", {}).get(name, {})
        old_rec = old.get("engines", {}).get("delta")
        new_rec = entry.get("engines", {}).get("delta")
        if not old_rec or not new_rec:
            continue
        if old.get("scale") != entry.get("scale"):
            continue  # different problem size — not comparable
        old_it = old_rec.get("solver.iterations")
        new_it = new_rec.get("solver.iterations")
        if not old_it or new_it is None:
            continue
        compared += 1
        ratio = new_it / old_it
        if ratio > 1.0 + threshold:
            regressions.append((name, old_it, new_it, ratio))
    return regressions, compared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH.json",
                        help="output JSON path")
    parser.add_argument("--pr", default=None,
                        help="PR number recorded in the snapshot")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--scales", choices=("smoke", "bench"),
                        default="smoke",
                        help="generator scales: smoke (CI-sized, default) "
                             "or bench (Table 2-sized)")
    parser.add_argument("--engines", default="delta,reference",
                        help="comma-separated engines to run")
    parser.add_argument("--compare", default=None, metavar="BASELINE.json",
                        help="flag delta-engine solver.iterations "
                             "regressions against a previous snapshot")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="regression threshold for --compare "
                             "(default 0.20 = +20%%)")
    parser.add_argument("--queries", type=int, default=4,
                        help="demand-query section size: N random + N "
                             "hot variables per workload (default 4; "
                             "0 skips the query section)")
    args = parser.parse_args(argv)

    names = (args.workloads.split(",") if args.workloads
             else list(workload_names()))
    scales = SMOKE_SCALES if args.scales == "smoke" else BENCH_SCALES
    engines = tuple(args.engines.split(","))

    print(f"bench: {len(names)} workloads, scales={args.scales}, "
          f"engines={','.join(engines)}")
    workloads = run_snapshot(names, scales, engines, queries=args.queries)
    doc = {
        "schema": SCHEMA,
        "pr": args.pr,
        "scales": args.scales,
        "workloads": workloads,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
        regressions, compared = compare(baseline, workloads, args.threshold)
        if not compared:
            print(f"\nno workload comparable with {args.compare} "
                  "(different scales, or no delta-engine record)")
            return 1
        if regressions:
            print(f"\nsolver.iterations regressions vs {args.compare} "
                  f"(>{args.threshold:.0%}):")
            for name, old_it, new_it, ratio in regressions:
                print(f"  {name}: {old_it} -> {new_it} ({ratio:.2f}x)")
            return 1
        print(f"no solver.iterations regressions vs {args.compare} "
              f"({compared} workload(s) compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
