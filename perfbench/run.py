"""Cold-first, oracle-checked benchmark of the FSAM pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload cold_suite --seed 1 --seconds 40 \\
        --trace 0 [--out record.json]
    python3 perfbench/run.py --compare before.json after.json

Workloads (see ``perfbench/manifest.json`` for why each was chosen and
which layer metric should move which end-to-end metric):

- ``cold_suite``   the ten Table-1 programs, compiled and analysed cold;
- ``query_stream`` zipfian demand queries over prebuilt pipelines;
- ``gateway_mix``  analyze repeats, queries and edits through the gateway;
- ``edit_replay``  single-function edits re-analysed incrementally.

BENCHMARK.json gates the first two. The other two repeat too loosely
from run to run on a shared host to gate (see the manifest's
``why_not_gated``); run them by name for their layer breakdowns.

With ``--trace 0`` the last output line carries the end-to-end metrics
of untraced operations; with ``--trace 1`` it carries the per-layer
metrics of a traced run (rounds alternate traced and untraced, so the
tracing overhead is reported too). Every operation's output is checked
against the reference engine; the program sources and the seeded
operation sequence are hashed, and a run whose sources or sequence
generator differ from the pins in ``manifest.json`` is refused
(``--pin`` records new pins instead).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "manifest.json"
#: Where traced runs write their spans, relative to the working directory.
SPANS_DIR = ".perfbench_out"

#: ``(name, unit)`` of every end-to-end metric, printed with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p10_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units():
    """``name -> unit`` of every per-layer metric, printed with
    --trace 1 (zero where a workload does not exercise the layer)."""
    from perfbench.spans import LAYER_COUNTS, LAYER_TIMES
    units = {name: "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update({
        "incremental.func_hit_ratio": "ratio",
        "incremental.seeded_ratio": "ratio",
        "incremental.cold_fallback_ratio": "ratio",
        "query.slice_nodes_p50": "count",
        "query.warm_ratio": "ratio",
        "gateway.hot_ratio": "ratio",
        "gateway.queue_wait_ms": "ms",
        "gateway.shard_run_ms": "ms",
        "gateway.coalesced": "count",
        "gateway.retries": "count",
        "unattributed_s": "s",
        "unattributed_share": "ratio",
        "trace.op_s": "s",
        "trace.overhead_ratio": "ratio",
        "failed_ratio": "ratio",
    })
    return units


def end_to_end(workload: str, report) -> dict:
    """The end-to-end metrics, plus the median, tail and throughput,
    which are printed as named metrics but not gated: the host runs
    this benchmark's vCPUs at two speeds about 1.6x apart, in episodes
    of seconds to minutes, and those move every mean-like figure of a
    run by 20-40%. Contention only ever slows an operation, so a low
    percentile tracks the program's own cost and repeats within a few
    percent."""
    from perfbench.stats import geomean, peak_rss_mb, percentile, tail
    groups = [v for v in report.latencies.values() if v]

    def per_group(pct: float) -> float:
        # Every program (or request kind) counts equally.
        return geomean([percentile(v, pct) for v in groups]) * 1000

    pct, value = tail(report.all_latencies())
    report.named["op_p50_ms"] = (per_group(50.0), "ms")
    report.named["op_tail_ms"] = (value * 1000, "ms")
    report.named["ops_per_s"] = (report.attempted / report.busy_s, "1/s")
    report.notes["op_tail_percentile"] = pct
    report.notes["op_samples"] = len(report.all_latencies())
    report.notes["group_p50_ms"] = {
        name: round(percentile(series, 50.0) * 1000, 3)
        for name, series in sorted(report.latencies.items())}
    values = {
        "setup_s": report.setup_s,
        "op_p10_ms": per_group(10.0),
        "peak_rss_mb": peak_rss_mb(include_children=workload
                                   == "gateway_mix"),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(report) -> dict:
    from perfbench.spans import LAYER_TIMES
    layers = dict(report.layers)
    op_s = layers.get("trace.op_s", 0.0)
    total = sum(layers.get(name, 0.0) for name in LAYER_TIMES) \
        + layers.get("unattributed_s", 0.0)
    if not math.isclose(total, op_s, rel_tol=1e-9, abs_tol=1e-12):
        raise RuntimeError(f"layer self times sum to {total}, "
                           f"operation time is {op_s}")
    layers["unattributed_share"] = \
        layers.get("unattributed_s", 0.0) / op_s if op_s else 0.0
    layers["failed_ratio"] = report.failed / max(report.attempted, 1)
    return {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in per_layer_units().items()}


def check_pins(workload, manifest: dict, fingerprint: dict) -> list:
    """Differences between this run's inputs and the pinned ones."""
    from perfbench.workloads import fingerprint as fingerprint_of
    pinned = manifest["workloads"][workload.name]["inputs"]
    problems = []
    if fingerprint["sources"] != pinned["sources"]:
        problems.append("program sources differ from the pinned hashes")
    generator = fingerprint_of(workload, pinned["seed"])
    if generator["sequence_sha256"] != pinned["sequence_sha256"]:
        problems.append(f"the operation sequence for pinned seed "
                        f"{pinned['seed']} differs")
    return problems


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    fa, fb = a["fingerprint"], b["fingerprint"]
    same_seed = fa["seed"] == fb["seed"]
    if fa["workload"] != fb["workload"] or fa["sources"] != fb["sources"] \
            or a["generator_sha256"] != b["generator_sha256"] \
            or (same_seed and fa["sequence_sha256"]
                != fb["sequence_sha256"]):
        print("refusing to compare: the two runs analysed different "
              "inputs (a changed generator or scale is a new workload)",
              file=sys.stderr)
        return 2
    for name, metric in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / metric["value"] if metric["value"] else \
            float("nan")
        print(f"{name:32s} {metric['value']:14.6g} {other['value']:14.6g} "
              f"{metric['unit']:6s} x{ratio:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full run record here")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's inputs as the pins")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    with open(MANIFEST) as handle:
        manifest = json.load(handle)

    workload = WORKLOADS[args.workload](args.seed)
    report = workload.run(args.seconds, bool(args.trace))
    problems = check_pins(workload, manifest, report.fingerprint)
    if problems and not args.pin:
        for problem in problems:
            print(f"error: {problem}; this is a new workload, not a "
                  f"speed change (re-pin with --pin)", file=sys.stderr)
        return 3

    metrics = per_layer(report) if args.trace else \
        end_to_end(args.workload, report)
    failed_ratio = report.failed / max(report.attempted, 1)
    for name, (value, unit) in sorted(report.named.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {failed_ratio:.6g} "
          f"({report.failed}/{report.attempted})")
    for key, value in sorted(report.notes.items()):
        print(f"note {key} = {value}")
    baseline = manifest["workloads"][args.workload].get(
        "unattributed_share")
    if args.trace and baseline is not None and \
            metrics["unattributed_share"]["value"] > baseline + 0.05:
        print(f"warning: unattributed share grew from {baseline:.3f} to "
              f"{metrics['unattributed_share']['value']:.3f}; a layer may "
              f"be running outside the trace")
    if report.recorder is not None:
        os.makedirs(SPANS_DIR, exist_ok=True)
        report.recorder.write(os.path.join(
            SPANS_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))

    if args.pin:
        from perfbench.workloads import fingerprint as fingerprint_of
        generator = fingerprint_of(workload, 0)
        manifest["workloads"][args.workload]["inputs"] = {
            "seed": 0, "sources": generator["sources"],
            "sequence_sha256": generator["sequence_sha256"]}
        with open(MANIFEST, "w") as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")
    if args.out:
        pinned = manifest["workloads"][args.workload]["inputs"]
        record = {"fingerprint": report.fingerprint,
                  "generator_sha256": pinned["sequence_sha256"],
                  "trace": args.trace, "seconds": args.seconds,
                  "metrics": metrics,
                  "named": {k: {"value": v, "unit": u}
                            for k, (v, u) in report.named.items()},
                  "notes": report.notes,
                  "attempted": report.attempted, "failed": report.failed}
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=2, default=str)
            handle.write("\n")

    print(json.dumps({"correct": report.failed == 0,
                      "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
