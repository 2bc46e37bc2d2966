"""Command-line interface.

::

    python -m repro analyze   prog.mc        # points-to summary
    python -m repro races     prog.mc        # data race report
    python -m repro deadlocks prog.mc        # lock-order cycles
    python -m repro tsan      prog.mc        # instrumentation reduction
    python -m repro escape    prog.mc        # thread-escape classes
    python -m repro threads   prog.mc        # thread model dump
    python -m repro ir        prog.mc        # partial-SSA IR dump
    python -m repro dot       prog.mc --what dug > out.dot
    python -m repro bench     --table 2      # regenerate a paper table
    python -m repro compare   prog.mc        # FSAM vs NONSPARSE
    python -m repro explain   prog.mc x      # derivation chains for x
    python -m repro query     prog.mc p      # demand points-to query for p
    python -m repro trace     prog.mc        # repro.trace/1 JSONL dump
    python -m repro diff-profile A.json B.json   # profile regression diff
    python -m repro batch     spec.json --workers 4 --cache .repro-cache
    python -m repro serve     --workers 4    # the gateway over stdin/stdout
    python -m repro gateway   --port 8377    # TCP gateway (JSONL + HTTP)

Reports can also be emitted as JSON (``--json``) for downstream
tooling.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.baseline import NonSparseAnalysis
from repro.frontend import compile_source
from repro.fsam import FSAM, FSAMConfig
from repro.gateway.protocol import DEFAULT_MAX_REQUEST_BYTES
from repro.ir import Load, print_module
from repro.minic.errors import MiniCError
from repro.obs import NULL_OBS, Observer
from repro.trace import Tracer


def _load_module(path: str, obs: Observer = NULL_OBS):
    """Compile the MiniC file at *path*, timing the frontend as the
    ``compile`` phase of *obs* (the phase a service span records)."""
    with open(path) as handle:
        source = handle.read()
    with obs.phase("compile"):
        return compile_source(source, name=path, obs=obs)


def _config_from(args) -> FSAMConfig:
    return FSAMConfig(
        interleaving=not getattr(args, "no_interleaving", False),
        value_flow=not getattr(args, "no_value_flow", False),
        lock_analysis=not getattr(args, "no_lock", False),
        time_budget=getattr(args, "budget", None),
    )


#: The flag groups :func:`_run_fsam` reads.
_RUN_FSAM_FLAGS = ("config", "profile", "trace")


def _add_file(parser: argparse.ArgumentParser, *groups: str) -> None:
    """The ``file`` argument plus the flag *groups*, given only to the
    subcommands whose handler reads them: ``json`` (``--json``),
    ``config`` (the Figure 12 switches and ``--budget``), ``profile``
    (``--profile OUT``) and ``trace`` (``--trace OUT``)."""
    parser.add_argument("file", help="MiniC source file")
    if "json" in groups:
        parser.add_argument("--json", action="store_true", help="emit JSON")
    if "config" in groups:
        parser.add_argument("--no-interleaving", action="store_true")
        parser.add_argument("--no-value-flow", action="store_true")
        parser.add_argument("--no-lock", action="store_true")
        parser.add_argument("--budget", type=float, default=None,
                            help="time budget in seconds")
    if "profile" in groups:
        parser.add_argument("--profile", metavar="OUT", default=None,
                            help="write the run's observability profile "
                                 "(repro.obs/1 JSON) to this file")
    if "trace" in groups:
        parser.add_argument("--trace", metavar="OUT", default=None,
                            help="enable event tracing and write the "
                                 "run's repro.trace/1 JSONL to this file")


def _maybe_write_profile(result, args) -> None:
    """Write the FSAM result's profile document when --profile asked."""
    path = getattr(args, "profile", None)
    if not path or result is None:
        return
    with open(path, "w") as handle:
        handle.write(result.obs.to_json())
        handle.write("\n")


def _maybe_write_trace(result, args) -> None:
    """Write the FSAM result's event trace when --trace asked."""
    path = getattr(args, "trace", None)
    if not path or result is None:
        return
    tracer = getattr(result, "tracer", None)
    if tracer is None or not tracer.enabled:
        return
    with open(path, "w") as handle:
        tracer.write_jsonl(handle)


def _run_fsam(args, trace: bool = False):
    """Compile ``args.file`` and run FSAM on it; the run's phase tree
    starts with the frontend's ``compile`` phase. The run is traced
    when *trace* is set or ``--trace OUT`` was given."""
    obs = Observer(name="fsam")
    tracer = Tracer(name="fsam") \
        if trace or getattr(args, "trace", None) is not None else None
    module = _load_module(args.file, obs)
    result = FSAM(module, _config_from(args), obs=obs, tracer=tracer).run()
    _maybe_write_profile(result, args)
    _maybe_write_trace(result, args)
    return result


def cmd_analyze(args) -> int:
    result = _run_fsam(args)
    module = result.module
    if args.json:
        payload = {
            "stats": _jsonable(result.stats()),
            "loads": [
                {"line": i.line, "text": repr(i),
                 "pts": sorted(o.name for o in result.pts(i.dst))}
                for i in module.all_instructions() if isinstance(i, Load)
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"analysed {args.file}")
    for key, value in result.stats().items():
        print(f"  {key}: {value}")
    print("\npoints-to at loads:")
    for instr in module.all_instructions():
        if isinstance(instr, Load):
            pts = sorted(o.name for o in result.pts(instr.dst))
            print(f"  line {instr.line}: {instr!r} -> {pts}")
    return 0


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def cmd_races(args) -> int:
    from repro.clients import RaceDetector
    detector = RaceDetector(_load_module(args.file), _config_from(args))
    races = detector.run()
    _maybe_write_profile(detector.result, args)
    if args.json:
        print(json.dumps([{"object": r.obj.name,
                           "kind": "write-write" if r.is_write_write else "write-read",
                           "store_line": r.store.line,
                           "access_line": r.access.line} for r in races], indent=2))
        return 2 if races else 0
    print(f"{len(races)} race candidate(s)")
    for race in races:
        print(f"  {race.describe()}")
    return 2 if races else 0


def cmd_deadlocks(args) -> int:
    from repro.clients import DeadlockDetector
    detector = DeadlockDetector(_load_module(args.file), _config_from(args))
    candidates = detector.run()
    _maybe_write_profile(detector.result, args)
    if args.json:
        print(json.dumps([{"first": c.first.name, "second": c.second.name,
                           "site1_line": c.site_holding_first.line,
                           "site2_line": c.site_holding_second.line}
                          for c in candidates], indent=2))
        return 2 if candidates else 0
    print(f"{len(candidates)} potential deadlock(s)")
    for candidate in candidates:
        print(f"  {candidate.describe()}")
    return 2 if candidates else 0


def cmd_tsan(args) -> int:
    from repro.clients import AccessClass, InstrumentationReducer
    reducer = InstrumentationReducer(_load_module(args.file), _config_from(args))
    report = reducer.run()
    _maybe_write_profile(reducer.result, args)
    if args.json:
        print(json.dumps({
            "total": report.total,
            "racy": report.count(AccessClass.RACY),
            "locked": report.count(AccessClass.LOCKED),
            "local": report.count(AccessClass.LOCAL),
            "reduction": report.reduction,
        }, indent=2))
        return 0
    print(report.summary())
    return 0


def cmd_escape(args) -> int:
    from repro.clients import classify_escapes
    report = classify_escapes(_load_module(args.file))
    if args.json:
        print(json.dumps({report.objects[k].name: v.value
                          for k, v in report.classes.items()}, indent=2))
        return 0
    print(report.summary())
    for obj_id, cls in sorted(report.classes.items(),
                              key=lambda kv: report.objects[kv[0]].name):
        print(f"  {report.objects[obj_id].name}: {cls.value}")
    return 0


def cmd_threads(args) -> int:
    result = _run_fsam(args)
    model = result.thread_model
    print(f"{len(model.threads)} abstract thread(s)")
    for thread in model.threads:
        joined = sorted(model.fully_joined.get(thread.id, ()))
        states = len(model.state_graphs[thread.id].state_info)
        print(f"  {thread!r} states={states} fully-joins={joined}")
    if model.symmetric_pairs:
        print("symmetric fork/join loops:")
        for pair in model.symmetric_pairs.values():
            print(f"  {pair!r}")
    return 0


def cmd_ir(args) -> int:
    module = _load_module(args.file)
    print(print_module(module))
    return 0


def cmd_dot(args) -> int:
    from repro import viz
    result = _run_fsam(args)
    if args.what == "dug":
        print(viz.dug_to_dot(result.dug))
    elif args.what == "icfg":
        from repro.cfg import ICFG
        print(viz.icfg_to_dot(ICFG(result.module,
                                   result.andersen.callgraph)))
    else:
        print(viz.thread_tree_to_dot(result.thread_model))
    return 0


def cmd_explain(args) -> int:
    """Print the recorded derivation chains of the facts named by
    ``VAR [--obj OBJ]`` or by ``--line N --target OBJ``."""
    if args.var is None and (args.line is None or args.target is None):
        print("explain needs either a variable name or --line/--target",
              file=sys.stderr)
        return 2
    from repro.fsam.explain import explain_at_line, explain_fact
    result = _run_fsam(args, trace=True)
    if args.var is not None:
        chains = explain_fact(result, args.var, obj_name=args.obj)
        wanted = f" pointing to {args.obj!r}" if args.obj else ""
        missing = f"no recorded fact for {args.var!r}{wanted}"
    else:
        chains = explain_at_line(result, args.line, args.target)
        missing = f"no load at line {args.line} reads {args.target!r}"
    if not chains:
        print(missing)
        return 1
    print("\n\n".join(chains))
    return 0


def cmd_query(args) -> int:
    """Demand-driven points-to query: answer what one variable (or
    abstract object, with ``--obj``) may point to by solving only the
    backward DUG slice that can reach it — bit-identical to the
    whole-program fixpoint, usually a small fraction of the work."""
    from repro.service.cache import QueryArtifactStore
    from repro.service.requests import AnalysisRequest, QueryRequest
    from repro.service.runner import QueryRunner

    var = args.var
    line = None
    if "@" in var:
        var, _, line_text = var.rpartition("@")
        try:
            line = int(line_text)
        except ValueError:
            print(f"bad query target {args.var!r}: expected VAR or "
                  "VAR@LINE", file=sys.stderr)
            return 2
    with open(args.file) as handle:
        source = handle.read()
    request = AnalysisRequest(name=args.file, source=source,
                              config=_config_from(args))
    query = QueryRequest(request=request, var=var, line=line, obj=args.obj)
    store = QueryArtifactStore(args.cache) if args.cache else None
    runner = QueryRunner(querystore=store,
                         obs=Observer(name="query", track_memory=False))
    try:
        payload = runner.run(query)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    kind = "object" if args.obj else "variable"
    where = f"@{line}" if line is not None else ""
    print(f"{kind} {var}{where} in {args.file}")
    names = payload["pts"]
    print(f"  points-to ({len(names)}): "
          f"{', '.join(names) if names else '(empty)'}")
    print(f"  cache: {payload['cache']}"
          f"  slice: {payload['slice_nodes']} nodes"
          f" ({payload['slice_fraction'] * 100:.1f}% of DUG)"
          f"  iterations: {payload['iterations']}"
          f"  {payload['seconds'] * 1000:.1f} ms")
    return 0


def cmd_trace(args) -> int:
    """Run FSAM with tracing on; dump the repro.trace/1 JSONL."""
    result = _run_fsam(args, trace=True)
    text = result.trace_jsonl()
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as handle:
            handle.write(text)
        kinds = result.tracer.kinds()
        print(f"wrote {sum(kinds.values())} event(s) to {out}")
        for kind in sorted(kinds):
            print(f"  {kind}: {kinds[kind]}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_diff_profile(args) -> int:
    """Compare two repro.obs/1 profiles or repro.metrics/1 snapshots
    (report-only)."""
    from repro.harness import diff_profiles, render_profile_diff
    with open(args.baseline) as handle:
        a = json.load(handle)
    with open(args.current) as handle:
        b = json.load(handle)
    diff = diff_profiles(a, b)
    if args.json:
        print(json.dumps({
            "name_a": diff.name_a, "name_b": diff.name_b,
            "total_seconds_a": diff.total_seconds_a,
            "total_seconds_b": diff.total_seconds_b,
            "phases": [{
                "path": d.path, "status": d.status,
                "seconds_a": d.seconds_a, "seconds_b": d.seconds_b,
                "peak_kb_a": d.peak_kb_a, "peak_kb_b": d.peak_kb_b,
                "seconds_ratio": d.seconds_ratio,
            } for d in diff.phases],
            "counter_drift": {k: list(v)
                              for k, v in diff.changed_counters().items()},
            "gauge_drift": {k: list(v)
                            for k, v in diff.changed_gauges().items()},
            "histogram_drift": {k: list(v)
                                for k, v
                                in diff.changed_histograms().items()},
        }, indent=2))
    else:
        print(render_profile_diff(diff))
    # Report-only by design: regressions are for a human (or the CI
    # log reader) to judge, so the exit code never blocks.
    return 0


def cmd_compare(args) -> int:
    module = _load_module(args.file)
    start = time.perf_counter()
    fsam = FSAM(module, _config_from(args)).run()
    fsam_time = time.perf_counter() - start
    _maybe_write_profile(fsam, args)
    module2 = _load_module(args.file)
    start = time.perf_counter()
    baseline = NonSparseAnalysis(module2, _config_from(args)).run()
    base_time = time.perf_counter() - start
    print(f"FSAM:      {fsam_time:8.3f}s  {fsam.points_to_entries():10d} entries")
    print(f"NONSPARSE: {base_time:8.3f}s  {baseline.points_to_entries():10d} entries")
    print(f"speedup {base_time / max(fsam_time, 1e-9):.1f}x, "
          f"state ratio {baseline.points_to_entries() / max(fsam.points_to_entries(), 1):.1f}x")
    return 0


#: ``stats`` flags that only steer a run: (attribute, flag).
_STATS_RUN_FLAGS = (("trace", "--trace"), ("profile", "--profile"),
                    ("budget", "--budget"),
                    ("no_interleaving", "--no-interleaving"),
                    ("no_value_flow", "--no-value-flow"),
                    ("no_lock", "--no-lock"))


def cmd_stats(args) -> int:
    """Render an observability profile: either re-analyse a MiniC
    source, or pretty-print an existing ``--profile`` JSON document."""
    from repro.obs import profile_to_csv, render_profile, validate_profile
    if args.file.endswith(".json"):
        unread = [flag for attr, flag in _STATS_RUN_FLAGS
                  if getattr(args, attr) is not None
                  and getattr(args, attr) is not False]
        if unread:
            print(f"repro stats: {', '.join(unread)} only apply when "
                  "profiling a MiniC file, not a saved profile",
                  file=sys.stderr)
            return 2
        with open(args.file) as handle:
            doc = json.load(handle)
        validate_profile(doc)
    else:
        doc = _run_fsam(args).profile()
    if args.chrome:
        from repro.trace import profile_to_chrome
        print(json.dumps(profile_to_chrome(doc), indent=2))
    elif args.json:
        print(json.dumps(doc, indent=2))
    elif args.csv:
        sys.stdout.write(profile_to_csv(doc))
    else:
        print(render_profile(doc))
    return 0


def cmd_bench(args) -> int:
    from repro.harness import (
        render_figure12, render_table1, render_table2, run_figure12,
        run_table1, run_table2,
    )
    if args.table == 1:
        print(render_table1(run_table1()))
    elif args.table == 2:
        print(render_table2(run_table2()))
    else:
        print(render_figure12(run_figure12()))
    return 0


def cmd_batch(args) -> int:
    """Run a batch spec on one gateway session (shard workers +
    artifact cache) and print one ``repro.batch/1`` report. A spec
    that cannot be read or parsed fails before any shard starts, with
    one line and exit 2."""
    import os

    from repro.service import (
        ArtifactCache, render_batch_report, run_batch, validate_batch_report,
    )
    from repro.service.requests import requests_from_spec

    try:
        with open(args.spec) as handle:
            spec = json.load(handle)
        requests, options = requests_from_spec(
            spec, base_dir=os.path.dirname(os.path.abspath(args.spec)))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"repro batch: {args.spec}: {exc}", file=sys.stderr)
        return 2
    workers = args.workers if args.workers is not None \
        else options.get("workers", 1)
    timeout = args.timeout if args.timeout is not None \
        else options.get("timeout")
    cache_dir = args.cache if args.cache is not None else options.get("cache")
    cache = ArtifactCache(cache_dir, max_bytes=_cache_max_bytes(args)) \
        if cache_dir else None

    report = run_batch(requests, workers=workers, cache=cache,
                       timeout=timeout,
                       name=os.path.basename(args.spec),
                       incremental=not args.no_incremental,
                       slow_ms=args.slow_ms,
                       queries=options.get("queries"))
    doc = validate_batch_report(report.to_dict())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.csv:
        from repro.harness import batch_report_to_csv
        sys.stdout.write(batch_report_to_csv(doc))
    else:
        print(render_batch_report(doc))
    # The availability contract: degraded and failed requests are
    # reported, not fatal. Exit 3 flags them for callers that want to
    # notice.
    failed = any(row["status"] == "error" for row in doc["requests"])
    return 3 if doc["aggregate"]["degraded"] or failed else 0


def _positive(kind):
    """An argparse type: a positive ``int`` or ``float``."""
    noun = "integer" if kind is int else "number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not value > 0:
            raise argparse.ArgumentTypeError(
                f"not a positive {noun}: {text!r}")
        return value
    return parse


def _cache_max_bytes(args) -> Optional[int]:
    mb = getattr(args, "cache_max_mb", None)
    return int(mb * 1024 * 1024) if mb is not None else None


def _run_gateway(args, stdio: bool, **transport) -> int:
    """Run the gateway until it shuts down: over TCP (``repro
    gateway``), or as one framed-JSONL session over stdin/stdout
    (``repro serve``). Both build their options here from the flags
    they share. SIGINT/SIGTERM drain in-flight work, write the final
    metrics snapshot, and exit 0; the dispositions the command found
    are restored afterwards."""
    import asyncio
    import signal

    from repro.gateway.server import Gateway, GatewayOptions

    # Live telemetry: repro.metrics/1 snapshots to --metrics-out, or to
    # stderr, keeping stdout pure frames.
    metrics_stream = None
    if args.metrics_out:
        metrics_stream = open(args.metrics_out, "w")
    elif args.metrics_interval is not None:
        metrics_stream = sys.stderr
    options = GatewayOptions(
        workers=args.workers, cache_root=args.cache,
        cache_max_bytes=_cache_max_bytes(args), timeout=args.timeout,
        max_request_bytes=args.max_request_bytes,
        metrics_interval=args.metrics_interval,
        metrics_stream=metrics_stream, base_dir=args.base_dir,
        incremental=not args.no_incremental, **transport)
    in_fd = sys.stdin.fileno() if stdio else None

    async def _main() -> None:
        gateway = Gateway(options)
        if stdio:
            gateway.install_signal_handlers()
            await gateway.serve_stdio(in_fd, sys.stdout)
            return
        await gateway.start()
        print(f"gateway listening on {options.host}:{gateway.port} "
              f"({options.workers} shard(s))", file=sys.stderr, flush=True)
        gateway.install_signal_handlers()
        await gateway.serve_forever()

    previous = {sig: signal.getsignal(sig)
                for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        asyncio.run(_main())
    finally:
        for sig, handler in previous.items():
            if handler is not None:
                signal.signal(sig, handler)
        if args.metrics_out and metrics_stream is not None:
            metrics_stream.close()
    return 0


def cmd_serve(args) -> int:
    """The gateway's framed-JSONL session over stdin/stdout."""
    return _run_gateway(args, stdio=True)


def cmd_gateway(args) -> int:
    """The asyncio multi-tenant analysis gateway (JSONL + HTTP on one
    TCP port; see :mod:`repro.gateway`)."""
    from repro.gateway.admission import policies_from_config

    tenants = None
    if args.tenants_config:
        with open(args.tenants_config) as handle:
            tenants = policies_from_config(json.load(handle))
    return _run_gateway(args, stdio=False, host=args.host, port=args.port,
                        max_queue=args.max_queue, tenants=tenants)


def cmd_report(args) -> int:
    """Render the telemetry view of a batch report or a metrics JSONL
    stream: per-phase p50/p99, cache hit rates, degradation/retry
    counts, and the slowest requests with their dominant phase."""
    from repro.harness import load_telemetry, render_telemetry_report
    source = load_telemetry(args.file)
    if args.json:
        print(json.dumps(source.metrics, indent=2, sort_keys=True))
    else:
        print(render_telemetry_report(source, top=args.top))
    return 0


def _add_metrics_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metrics-interval", type=float, default=None,
                   metavar="N",
                   help="after an answered request, emit a cumulative "
                        "repro.metrics/1 JSONL snapshot once N seconds "
                        "have passed since the last (0 = after every "
                        "request); goes to stderr unless --metrics-out "
                        "is given")
    p.add_argument("--metrics-out", metavar="OUT", default=None,
                   help="write the metrics JSONL stream to this file "
                        "(final snapshot at shutdown even without "
                        "--metrics-interval)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FSAM: sparse flow-sensitive pointer analysis for "
                    "multithreaded programs (CGO'16 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, helptext, groups in [
        ("analyze", cmd_analyze, "run FSAM and print points-to results",
         ("json",) + _RUN_FSAM_FLAGS),
        ("races", cmd_races, "detect data races",
         ("json", "config", "profile")),
        ("deadlocks", cmd_deadlocks, "detect lock-order cycles",
         ("json", "config", "profile")),
        ("tsan", cmd_tsan, "instrumentation-reduction report",
         ("json", "config", "profile")),
        ("escape", cmd_escape, "thread-escape classification", ("json",)),
        ("threads", cmd_threads, "dump the thread model", _RUN_FSAM_FLAGS),
        ("ir", cmd_ir, "dump the partial-SSA IR", ()),
        ("compare", cmd_compare, "FSAM vs the NONSPARSE baseline",
         ("config", "profile")),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_file(p, *groups)
        p.set_defaults(handler=fn)

    p = sub.add_parser("explain",
                       help="provenance: why does a variable point to "
                            "an object? (recorded derivation chains, "
                            "each walked to its AddrOf root)")
    _add_file(p, *_RUN_FSAM_FLAGS)
    p.add_argument("var", nargs="?", default=None,
                   help="variable whose points-to facts to explain")
    p.add_argument("--obj", default=None,
                   help="restrict VAR's facts to this pointed-to object")
    p.add_argument("--line", type=int, default=None,
                   help="instead of VAR: explain the loads on this "
                        "source line (needs --target)")
    p.add_argument("--target", default=None,
                   help="with --line: the pointed-to object to explain")
    p.set_defaults(handler=cmd_explain)

    p = sub.add_parser("query",
                       help="demand points-to query over a backward "
                            "DUG slice (bit-identical to the "
                            "whole-program answer)")
    p.add_argument("file", help="MiniC source file")
    p.add_argument("var", help="top-level variable to query, "
                               "optionally VAR@LINE to pick one "
                               "definition site")
    p.add_argument("--obj", action="store_true",
                   help="query the contents of the abstract object "
                        "named VAR instead of a variable")
    p.add_argument("--cache", default=None,
                   help="artifact cache directory (query sub-results "
                        "land under <cache>/query)")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--no-interleaving", action="store_true")
    p.add_argument("--no-value-flow", action="store_true")
    p.add_argument("--no-lock", action="store_true")
    p.set_defaults(handler=cmd_query)

    p = sub.add_parser("trace",
                       help="run with event tracing on; dump "
                            "repro.trace/1 JSONL")
    _add_file(p, *_RUN_FSAM_FLAGS)
    p.add_argument("--out", metavar="OUT", default=None,
                   help="write JSONL here instead of stdout "
                        "(prints a per-kind summary)")
    p.set_defaults(handler=cmd_trace)

    p = sub.add_parser("diff-profile",
                       help="compare two repro.obs/1 profiles or "
                            "repro.metrics/1 snapshots (report-only)")
    p.add_argument("baseline", help="baseline profile/metrics JSON (A)")
    p.add_argument("current", help="current profile/metrics JSON (B)")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(handler=cmd_diff_profile)

    p = sub.add_parser("dot", help="export DOT graphs")
    _add_file(p, *_RUN_FSAM_FLAGS)
    p.add_argument("--what", choices=["dug", "icfg", "threads"], default="dug")
    p.set_defaults(handler=cmd_dot)

    p = sub.add_parser("stats",
                       help="profile a run (or render a --profile JSON)")
    _add_file(p, "json", *_RUN_FSAM_FLAGS)
    p.add_argument("--csv", action="store_true",
                   help="emit flattened kind,name,value CSV")
    p.add_argument("--chrome", action="store_true",
                   help="emit Chrome trace-event JSON of the phase "
                        "tree (chrome://tracing / Perfetto)")
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("bench", help="regenerate a paper table/figure")
    p.add_argument("--table", type=int, choices=[1, 2, 12], default=2,
                   help="1 = Table 1, 2 = Table 2, 12 = Figure 12")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("batch",
                       help="run a batch spec on one gateway session "
                            "(shard workers and artifact cache)")
    p.add_argument("spec", help="batch spec JSON (see repro.service."
                                "requests for the format)")
    p.add_argument("--workers", type=_positive(int), default=None,
                   help="shard worker processes (overrides the spec; "
                        "default 1)")
    p.add_argument("--cache", default=None,
                   help="artifact cache directory (overrides the spec)")
    p.add_argument("--timeout", type=_positive(float), default=None,
                   help="default per-request wall-clock seconds "
                        "(overrides the spec)")
    p.add_argument("--no-incremental", action="store_true",
                   help="disable per-function incremental reuse "
                        "(cold-solve every cache miss)")
    p.add_argument("--out", metavar="OUT", default=None,
                   help="also write the repro.batch/1 report JSON here")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON instead of text")
    p.add_argument("--csv", action="store_true",
                   help="print per-request CSV rows instead of text")
    p.add_argument("--slow-ms", type=float, default=None,
                   help="capture the per-phase profile of requests "
                        "slower than this as exemplars in the report")
    p.add_argument("--cache-max-mb", type=float, default=None,
                   help="bound the artifact cache to this many MiB "
                        "(LRU eviction; default unbounded)")
    p.set_defaults(handler=cmd_batch)

    p = sub.add_parser("serve",
                       help="serve analysis requests from stdin (one "
                            "JSON per line; repro.gwframe/1 frames on "
                            "stdout, matched by id)")
    p.add_argument("--workers", type=_positive(int), default=1,
                   help="shard worker processes (default 1)")
    p.add_argument("--cache", default=None,
                   help="artifact cache directory")
    p.add_argument("--timeout", type=_positive(float), default=None,
                   help="default per-request wall-clock seconds")
    p.add_argument("--base-dir", default=".",
                   help="base directory for 'file' request entries")
    p.add_argument("--no-incremental", action="store_true",
                   help="disable per-function incremental reuse")
    _add_metrics_flags(p)
    p.add_argument("--max-request-bytes", type=int,
                   default=DEFAULT_MAX_REQUEST_BYTES,
                   help="refuse request lines larger than this "
                        "(default 1 MiB)")
    p.add_argument("--cache-max-mb", type=float, default=None,
                   help="bound the artifact cache to this many MiB "
                        "(LRU eviction; default unbounded)")
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser("gateway",
                       help="asyncio multi-tenant analysis gateway "
                            "(JSONL + HTTP on one TCP port, warm "
                            "shard workers, coalescing, streaming)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8377,
                   help="TCP port (0 = pick an ephemeral port; "
                        "default 8377)")
    p.add_argument("--workers", type=_positive(int), default=2,
                   help="persistent shard worker processes (default 2)")
    p.add_argument("--max-queue", type=int, default=64,
                   help="global queued-request high-water mark before "
                        "lowest-priority shedding (default 64)")
    p.add_argument("--tenants-config", metavar="JSON", default=None,
                   help="per-tenant admission policies: JSON object "
                        "of name -> {rate, burst, priority}")
    p.add_argument("--cache", default=None,
                   help="artifact cache directory (shared by all "
                        "shards)")
    p.add_argument("--cache-max-mb", type=float, default=None,
                   help="bound the artifact cache to this many MiB "
                        "(LRU eviction; default unbounded)")
    p.add_argument("--timeout", type=_positive(float), default=None,
                   help="default per-request wall-clock seconds "
                        "(mid-stream expiry degrades to the already-"
                        "streamed Andersen frame)")
    p.add_argument("--max-request-bytes", type=int,
                   default=DEFAULT_MAX_REQUEST_BYTES,
                   help="refuse request lines/bodies larger than this "
                        "(default 1 MiB)")
    p.add_argument("--base-dir", default=".",
                   help="base directory for 'file' request entries")
    p.add_argument("--no-incremental", action="store_true",
                   help="disable per-function incremental reuse in "
                        "the shard workers")
    _add_metrics_flags(p)
    p.set_defaults(handler=cmd_gateway)

    p = sub.add_parser("report",
                       help="render service telemetry from a "
                            "repro.batch/1 report or a repro.metrics/1 "
                            "JSONL stream")
    p.add_argument("file", help="batch report JSON, metrics snapshot "
                                "JSON, or metrics JSONL stream")
    p.add_argument("--top", type=int, default=5,
                   help="slowest requests to list (default 5)")
    p.add_argument("--json", action="store_true",
                   help="print the final repro.metrics/1 snapshot as "
                        "JSON instead of the rendered report")
    p.set_defaults(handler=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except MiniCError as exc:
        # A diagnostic in the user's source, not a crash: one located
        # line, ``<file>:<line>:<col>: <Type>: <message>``.
        where = ":".join(str(part) for part in
                         (getattr(args, "file", "<source>"), exc.line, exc.col)
                         if part is not None)
        print(f"{where}: {type(exc).__name__}: {exc.message}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
