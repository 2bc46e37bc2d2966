"""Incremental-analysis benchmark: warm-vs-cold solver iterations.

For each workload a cold run populates the per-function artifact
store, one function receives an IR-visible single-function edit (an
address-taken store through a fresh local), and the edited source is
then analyzed twice:

- **cold** (default config, empty store) — the baseline;
- **warm** — the same config plus the populated per-function store:
  unchanged functions' fixpoints are preloaded, only DUG nodes
  downstream of the edit are re-solved.

The snapshot records, per workload, both iteration counts, the
reduction factor (cold / warm), the per-function hit rate, the
seeded-node count against the DUG size, and whether the warm fixpoint
was bit-identical to the cold one (payload digest over objects,
``pts_top``, ``mem``, and store classes). The section is merged into
an existing ``BENCH_<n>.json`` produced by ``run_bench.py`` when
``--out`` names one, so one snapshot carries both the engine bench and
the incremental bench.

Usage::

    PYTHONPATH=src python benchmarks/run_incremental.py \
        --pr 7 --out BENCH_7.json
    PYTHONPATH=src python benchmarks/run_incremental.py \
        --workloads raytrace,x264 --targets raytrace=intersect_shape_7

``--min-reduction`` (default 5.0) makes the process exit non-zero when
any of the ``--require`` workloads (default ``raytrace,x264``) falls
below the bar, so CI can surface an incremental-reuse regression.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

from repro.fsam.config import FSAMConfig
from repro.harness.scales import BENCH_SCALES, SMOKE_SCALES
from repro.service.cache import FuncArtifactStore
from repro.service.requests import AnalysisRequest
from repro.service.runner import run_request_inline
from repro.workloads import get_workload, source_loc, workload_names

#: Top-level MiniC function headers (return type at column 0).
_HEADER = re.compile(r"^[A-Za-z_][\w \*]*?([A-Za-z_]\w*)\s*\(.*\)\s*\{\s*$")

#: Address-taken so mem2reg/DCE cannot erase it: the edited function's
#: canonical IR is guaranteed to change.
STORE_EDIT = "    int z_q; int *p_q; p_q = &z_q; *p_q = 1;"


def _functions(source: str):
    return [m.group(1) for line in source.split("\n")
            if (m := _HEADER.match(line))]


def _edit(source: str, fn: str) -> str:
    lines = source.split("\n")
    for i, line in enumerate(lines):
        m = _HEADER.match(line)
        if m and m.group(1) == fn:
            return "\n".join(lines[:i + 1] + [STORE_EDIT] + lines[i + 1:])
    raise SystemExit(f"error: function {fn!r} not found "
                     f"(have: {', '.join(_functions(source))})")


def _run(source: str, name: str, config: FSAMConfig, store=None):
    request = AnalysisRequest(name=name, source=source, config=config)
    return run_request_inline(request, funcstore=store)


def bench_workload(name: str, scale: int, target=None,
                   verbose: bool = True) -> dict:
    base = get_workload(name).source(scale)
    fn = target or next(f for f in _functions(base) if f != "main")
    edited = _edit(base, fn)
    config = FSAMConfig()

    with tempfile.TemporaryDirectory() as root:
        store = FuncArtifactStore(root)
        _run(base, name, config, store)                 # populate the store
        warm = _run(edited, name, config, store)
    cold = _run(edited, name, config)

    incr = warm.artifact.summary["incremental"]
    warm_iters = warm.artifact.summary["solver_iterations"]
    cold_iters = cold.artifact.summary["solver_iterations"]
    record = {
        "scale": scale,
        "loc": source_loc(base),
        "edited_function": fn,
        "cold_iterations": cold_iters,
        "warm_iterations": warm_iters,
        "iteration_reduction": round(cold_iters / max(warm_iters, 1), 1),
        "functions": incr["functions"],
        "func_hits": incr["func_hits"],
        "seeded_nodes": incr["seeded_nodes"],
        "frozen_nodes": incr["frozen_nodes"],
        "dug_nodes": incr["dug_nodes"],
        "cold_seconds": round(cold.seconds, 4),
        "warm_seconds": round(warm.seconds, 4),
        "bit_identical": warm.artifact.payload_digest()
            == cold.artifact.payload_digest(),
    }
    if verbose:
        print(f"  {name:>14} edit {fn}: "
              f"cold={cold_iters} warm={warm_iters} "
              f"({record['iteration_reduction']}x fewer), "
              f"hits={incr['func_hits']}/{incr['functions']}, "
              f"seeded={incr['seeded_nodes']}/{incr['dug_nodes']}, "
              f"identical={record['bit_identical']}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_incremental.json",
                        help="snapshot path; an existing run_bench.py "
                             "snapshot is merged into, not overwritten")
    parser.add_argument("--pr", default=None,
                        help="PR number recorded in a fresh snapshot")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--scales", choices=("smoke", "bench"),
                        default="smoke")
    parser.add_argument("--targets", default=None,
                        help="comma-separated name=function overrides "
                             "for the edited function (default: the "
                             "first non-main function)")
    parser.add_argument("--require", default="raytrace,x264",
                        help="workloads that must meet --min-reduction "
                             "(default: raytrace,x264)")
    parser.add_argument("--min-reduction", type=float, default=5.0,
                        help="minimum cold/warm iteration factor for "
                             "--require workloads (default 5.0)")
    args = parser.parse_args(argv)

    names = (args.workloads.split(",") if args.workloads
             else list(workload_names()))
    scales = SMOKE_SCALES if args.scales == "smoke" else BENCH_SCALES
    targets = dict(pair.split("=", 1)
                   for pair in (args.targets or "").split(",") if pair)

    print(f"incremental bench: {len(names)} workloads, "
          f"scales={args.scales}")
    section = {"edit": "single-function address-taken store",
               "baseline": "cold delta engine, empty function store",
               "workloads": {}}
    for name in names:
        section["workloads"][name] = bench_workload(
            name, scales[name], target=targets.get(name))

    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
        print(f"merging incremental section into existing {args.out}")
    else:
        doc = {"schema": "repro.bench/1", "pr": args.pr,
               "scales": args.scales, "workloads": {}}
    doc["incremental"] = section
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    failed = []
    for name in args.require.split(","):
        record = section["workloads"].get(name)
        if record is None:
            continue
        if not record["bit_identical"]:
            failed.append(f"{name}: warm fixpoint not bit-identical")
        if record["iteration_reduction"] < args.min_reduction:
            failed.append(f"{name}: {record['iteration_reduction']}x < "
                          f"{args.min_reduction}x iteration reduction")
    for line in failed:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
