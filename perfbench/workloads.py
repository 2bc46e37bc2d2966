"""The four workloads.

Each workload's :meth:`run` sets up (timed as ``setup_s``), measures
for the requested seconds, checks every output against its oracle and
tears down, returning a :class:`Report`. Three workloads are one
closed-loop client calling the pipeline in-process; ``gateway_mix``
drives an in-process gateway over two persistent connections.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import multiprocessing
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from perfbench import inputs, oracle, spans
from perfbench.stats import assert_untraced, geomean, median, tail

ALL_PROGRAMS = ("word_count", "kmeans", "radiosity", "automount", "ferret",
                "bodytrack", "httpd_server", "mt_daapd", "raytrace", "x264")
EDIT_PROGRAMS = ("x264", "mt_daapd", "httpd_server")
QUERY_PROGRAMS = ("raytrace", "x264")
GATEWAY_EDIT_PROGRAMS = ("automount", "httpd_server", "mt_daapd")
GATEWAY_QUERY_PROGRAMS = ("x264", "mt_daapd")


@dataclass
class Report:
    """What one run measured. Latencies are seconds, grouped by the
    item each operation worked on (program, or request kind)."""

    setup_s: float = 0.0
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    busy_s: float = 0.0              # time the measured operations took
    attempted: int = 0
    failed: int = 0
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    fingerprint: Dict[str, object] = field(default_factory=dict)
    recorder: Optional[spans.SpanRecorder] = None  # of the traced rounds

    def add(self, group: Optional[str], seconds: float, ok: bool) -> None:
        """Count one operation; its latency joins *group* unless that
        is None."""
        if group is not None:
            self.latencies.setdefault(group, []).append(seconds)
        self.busy_s += seconds
        self.attempted += 1
        self.failed += 0 if ok else 1

    def all_latencies(self) -> List[float]:
        return [s for series in self.latencies.values() for s in series]


def _same(entry):
    return entry


def fingerprint(workload, seed: int) -> Dict[str, object]:
    """Hashes of a set-up workload's program sources and of the first
    entries of its operation sequence under *seed*."""
    entries, describe = workload.sequence(seed)
    return {"workload": workload.name, "seed": seed,
            "sources": inputs.source_hashes(workload.sources),
            "sequence_sha256": inputs.sequence_hash(entries, describe)}


def incremental_ratios(stats: List[Dict[str, object]]) -> Dict[str, float]:
    """Useful-work ratios over the ``incremental`` artifact summaries of
    a run's edits."""
    if not stats:
        return {}
    functions = sum(int(s.get("functions", 0)) for s in stats)
    dug = sum(int(s.get("dug_nodes", 0)) for s in stats)
    return {
        "incremental.func_hit_ratio": sum(
            int(s.get("func_hits", 0)) for s in stats) / max(functions, 1),
        "incremental.seeded_ratio": sum(
            int(s.get("seeded_nodes", 0)) for s in stats) / max(dug, 1),
        "incremental.cold_fallback_ratio": sum(
            s.get("mode") != "warm" for s in stats) / len(stats),
    }


SCRATCH = ".perfbench_tmp"


def scratch_dir(prefix: str) -> str:
    """A temporary directory inside the working directory (the
    benchmark writes nowhere else)."""
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)


def remove_scratch(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(SCRATCH)
    except OSError:
        pass                         # absent, or another run's dirs


def timed_op(fn: Callable[[], object],
             recorder: Optional[spans.SpanRecorder]
             ) -> Tuple[float, object]:
    """Run one operation; returns ``(seconds, output or exception)``."""
    assert_untraced()
    if recorder is not None:
        recorder.begin_op()
    start = time.perf_counter()
    try:
        output = fn()
    except Exception as exc:  # noqa: BLE001 - an error is a failed op
        output = exc
    seconds = time.perf_counter() - start
    if recorder is not None:
        recorder.end_op()
    assert_untraced()
    return seconds, output


class ClosedLoop:
    """Base of the in-process workloads: one client, next operation
    only after the previous one returned.

    Subclasses implement :meth:`setup`, :meth:`rounds` (an endless
    iterator of rounds, each a list of ``(group, thunk, check)`` where
    ``check(output) -> bool`` runs untimed), and optionally
    :meth:`verify` (deferred checks after the timed window) and
    :meth:`teardown`.
    """

    name = ""
    collect_each_op = True           # gc.collect() before each operation

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.root: Optional[str] = None  # scratch directory, if any

    def setup(self) -> None:
        raise NotImplementedError

    def rounds(self) -> Iterator[list]:
        raise NotImplementedError

    def verify(self, report: Report) -> None:
        pass

    def teardown(self) -> None:
        if self.root is not None:
            remove_scratch(self.root)

    def summarize(self, report: Report, round_times: List[float]) -> None:
        pass

    def run(self, seconds: float, trace: bool) -> Report:
        report = Report()
        start = time.perf_counter()
        try:
            self.setup()
            report.setup_s = time.perf_counter() - start
            report.fingerprint = fingerprint(self, self.seed)
            round_times = self._measure(report, seconds, trace)
            self.verify(report)
            self.summarize(report, round_times)
        finally:
            self.teardown()
        return report

    def _measure(self, report: Report, seconds: float, trace: bool
                 ) -> List[float]:
        """Whole rounds until *seconds* have passed, or until one more
        round as long as the last would overshoot them by over 15%.
        Under *trace*, rounds alternate between untraced and traced, so
        the tracing overhead is measured on the same operation mix."""
        rounds = self.rounds()
        round_times: List[float] = []
        traced_times: List[float] = []
        recorder = spans.SpanRecorder() if trace else None
        start = time.perf_counter()
        for index, ops in enumerate(rounds):
            traced = trace and index % 2 == 1
            if traced:
                recorder.install()
            round_start = time.perf_counter()
            elapsed = 0.0
            try:
                for group, thunk, check in ops:
                    if self.collect_each_op:
                        gc.collect()
                    op_seconds, output = timed_op(
                        thunk, recorder if traced else None)
                    elapsed += op_seconds
                    ok = not isinstance(output, Exception) and check(output)
                    report.add(None if traced else group, op_seconds, ok)
            finally:
                if traced:
                    recorder.uninstall()
            (traced_times if traced else round_times).append(elapsed)
            now = time.perf_counter()
            if (now - start >= seconds
                    or 2 * now - round_start - start > 1.15 * seconds) \
                    and (not trace or traced_times):
                break
        if recorder is not None:
            report.layers.update(recorder.layer_metrics())
            report.layers["trace.overhead_ratio"] = \
                median(traced_times) / median(round_times) - 1.0
            report.recorder = recorder
        return round_times

    def sequence(self, seed: int) -> Tuple[Iterator, Callable]:
        """The seeded operation sequence and how to describe one entry
        of it in the input fingerprint."""
        raise NotImplementedError


# -- cold_suite -----------------------------------------------------------------


class ColdSuite(ClosedLoop):
    """All ten programs compiled and analysed cold, in a seeded order
    per round, one at a time."""

    name = "cold_suite"

    def setup(self) -> None:
        self.sources = inputs.program_sources(ALL_PROGRAMS)
        self.expected = {name: oracle.reference_digest(name, text)
                         for name, (_scale, text) in self.sources.items()}
        # Warm the delta engine's lazy imports and caches.
        self._analyze("kmeans", self.sources["kmeans"][1])
        self.rng = random.Random(self.seed)

    @staticmethod
    def _analyze(name: str, source: str):
        import repro.frontend as frontend
        import repro.fsam.analysis as analysis
        import repro.service.artifacts as artifacts
        module = frontend.compile_source(source, name=name)
        result = analysis.FSAM(module).run()
        return artifacts.artifact_from_result(name, result)

    def order(self, rng: random.Random) -> List[str]:
        names = list(ALL_PROGRAMS)
        rng.shuffle(names)
        return names

    def rounds(self):
        while True:
            yield [(name,
                    lambda name=name: self._analyze(name,
                                                    self.sources[name][1]),
                    lambda art, name=name:
                    art.payload_digest() == self.expected[name])
                   for name in self.order(self.rng)]

    def sequence(self, seed: int) -> Tuple[Iterator, Callable]:
        rng = random.Random(seed)
        return (self.order(rng) for _ in itertools.count()), _same

    def summarize(self, report: Report, round_times: List[float]) -> None:
        report.named["analyze_s"] = (median(round_times), "s")
        report.named["analyze_geomean_s"] = (
            geomean([median(v) for v in report.latencies.values()]), "s")
        report.notes["rounds"] = len(round_times)


# -- edit_replay ------------------------------------------------------------------


class EditReplay(ClosedLoop):
    """Seeded single-function edits re-analysed incrementally against
    a per-function artifact store filled during setup."""

    name = "edit_replay"

    def setup(self) -> None:
        from repro.fsam.config import FSAMConfig
        from repro.service.cache import FuncArtifactStore
        from repro.service.requests import AnalysisRequest
        from repro.service.runner import run_request_inline
        self.sources = inputs.program_sources(EDIT_PROGRAMS)
        self.root = scratch_dir("edit-")
        self.store = FuncArtifactStore(self.root)
        self.request = lambda name, source: AnalysisRequest(
            name=name, source=source, config=FSAMConfig())
        self.run_inline = run_request_inline
        for name, (_scale, text) in self.sources.items():
            run_request_inline(self.request(name, text),
                               funcstore=self.store)
        self.done: List[Tuple[inputs.Edit, str]] = []
        self.incremental: List[Dict[str, object]] = []

    def _bases(self) -> Dict[str, str]:
        return {name: self.sources[name][1] for name in EDIT_PROGRAMS}

    def rounds(self):
        # One edit of each program per round, so every run weighs the
        # programs equally.
        edits = inputs.edit_stream(self._bases(), self.seed)
        while True:
            yield [(edit.program,
                    lambda edit=edit: self.run_inline(
                        self.request(edit.name, edit.source),
                        funcstore=self.store).artifact,
                    lambda art, edit=edit: self._record(edit, art))
                   for edit in itertools.islice(edits, len(EDIT_PROGRAMS))]

    def _record(self, edit: inputs.Edit, artifact) -> bool:
        # Checked against the reference engine after the timed window.
        self.done.append((edit, artifact.payload_digest()))
        self.incremental.append(artifact.summary.get("incremental", {}))
        return True

    def verify(self, report: Report) -> None:
        mismatches = sum(
            digest != oracle.reference_digest(edit.name, edit.source)
            for edit, digest in self.done)
        report.failed += mismatches

    def sequence(self, seed: int) -> Tuple[Iterator, Callable]:
        return inputs.edit_stream(self._bases(), seed), inputs.Edit.describe

    def summarize(self, report: Report, round_times: List[float]) -> None:
        series = report.all_latencies()
        pct, value = tail(series)
        report.named["edit_p50_s"] = (median(series), "s")
        report.named["edit_tail_s"] = (value, "s")
        report.notes["edit_tail_percentile"] = pct
        report.layers.update(incremental_ratios(self.incremental))


# -- query_stream -----------------------------------------------------------------


class QueryStream(ClosedLoop):
    """A seeded zipfian stream of demand queries through one
    ``QueryRunner`` whose pipelines were built during setup."""

    name = "query_stream"
    collect_each_op = False          # sub-millisecond operations

    def setup(self) -> None:
        from repro.fsam.config import FSAMConfig
        from repro.service.requests import AnalysisRequest, QueryRequest
        from repro.service.runner import QueryRunner
        self.sources = inputs.program_sources(QUERY_PROGRAMS)
        self.QueryRequest = QueryRequest
        self.requests = {name: AnalysisRequest(name=name, source=text,
                                               config=FSAMConfig())
                         for name, (_scale, text) in self.sources.items()}
        modules = {}
        self.expected: Dict[Tuple[str, str, bool], str] = {}
        for name, (_scale, text) in self.sources.items():
            result = oracle.reference_result(name, text)
            modules[name] = result.module
            catalogue = [(n, o) for p, n, o in
                         inputs.query_catalogue({name: result.module})]
            for (var, obj), mask in oracle.query_answers(
                    result, catalogue).items():
                self.expected[(name, var, obj)] = mask
            del result
        self.catalogue = inputs.query_catalogue(modules)
        del modules
        gc.collect()
        self.runner = QueryRunner()
        for name in QUERY_PROGRAMS:          # builds the demand pipeline
            program, var, obj = next(q for q in self.catalogue
                                     if q[0] == name)
            self._query(program, var, obj)
        self.payloads: List[Dict[str, object]] = []

    def _query(self, program: str, var: str, obj: bool):
        return self.runner.run(self.QueryRequest(
            request=self.requests[program], var=var, obj=obj))

    def _check(self, key, payload) -> bool:
        self.payloads.append(payload)
        return payload.get("mask") == self.expected[key]

    def rounds(self):
        for key in inputs.query_stream(self.catalogue, self.seed):
            yield [(key[0], lambda key=key: self._query(*key),
                    lambda payload, key=key: self._check(key, payload))]

    def sequence(self, seed: int) -> Tuple[Iterator, Callable]:
        return inputs.query_stream(self.catalogue, seed), _same

    def summarize(self, report: Report, round_times: List[float]) -> None:
        series = report.all_latencies()
        pct, value = tail(series)
        report.named["query_p50_ms"] = (median(series) * 1000, "ms")
        report.named["query_tail_ms"] = (value * 1000, "ms")
        report.named["queries_per_s"] = (len(series) / report.busy_s, "1/s")
        report.notes["query_tail_percentile"] = pct
        payloads = self.payloads
        report.layers["query.slice_nodes_p50"] = median(
            [float(p.get("slice_nodes", 0)) for p in payloads])
        report.layers["query.warm_ratio"] = sum(
            p.get("cache") == "warm" for p in payloads) / len(payloads)


# -- gateway_mix ------------------------------------------------------------------

#: Shard pipeline phases (``Gateway.metrics()`` phase paths) and the
#: layer metric each one feeds.
GATEWAY_PHASES = {
    "pre_analysis": "andersen.run_s",
    "icfg": "cfg.icfg_s",
    "thread_oblivious_dug": "memssa.build_dug_s",
    "thread_model": "mt.thread_model_s",
    "interleaving": "mt.mhp_s",
    "lock_analysis": "mt.locks_s",
    "value_flow": "mt.valueflow_s",
    "sparse_solve": "fsam.solve_incremental_s",
    "incremental_plan": "incremental.plan_s",
    "incremental_harvest": "incremental.harvest_s",
}

CONNECTIONS = 2
#: Distinct demand queries in the gateway trace.
GATEWAY_QUERIES = 400


class GatewayMix:
    """Zipfian analyze repeats, demand queries and fresh edits through
    an in-process gateway with two shards, over two persistent
    closed-loop connections."""

    name = "gateway_mix"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run(self, seconds: float, trace: bool) -> Report:
        """Per-layer numbers come from ``Gateway.metrics()`` whatever
        *trace* says: the shards run in forked processes, out of reach
        of in-process spans."""
        report = Report()
        before, after = asyncio.run(self._run(report, seconds))
        leftover = multiprocessing.active_children()
        report.notes["teardown"] = {
            "children": len(leftover),
            "cache_removed": not os.path.exists(self.root)}
        if leftover or os.path.exists(self.root):
            report.failed += 1
        self._verify_edits(report)
        self._summarize(report, before, after)
        return report

    async def _run(self, report: Report, seconds: float):
        from repro.gateway.server import Gateway, GatewayOptions
        start = time.perf_counter()
        self.root = scratch_dir("gateway-")
        gateway = Gateway(GatewayOptions(workers=CONNECTIONS,
                                         cache_root=self.root))
        try:
            # Start (fork) the shards before this process grows.
            await gateway.start()
            await self._setup(gateway)
            report.setup_s = time.perf_counter() - start
            report.fingerprint = fingerprint(self, self.seed)
            before = gateway.metrics()
            await self._measure(gateway, report, seconds)
            after = gateway.metrics()
        finally:
            await gateway.shutdown()
            remove_scratch(self.root)
        return before, after

    # -- setup -----------------------------------------------------------------

    async def _setup(self, gateway) -> None:
        self.sources = inputs.program_sources(ALL_PROGRAMS)
        self.scales = {name: scale
                       for name, (scale, _t) in self.sources.items()}
        # The shards warm every program, largest first, while this
        # process computes the reference answers on the other core.
        largest = sorted(ALL_PROGRAMS, key=lambda n: -len(self.sources[n][1]))
        oracles = asyncio.get_running_loop().run_in_executor(
            None, self._oracles)
        await self._replay(gateway.port, iter(
            [{"workload": name, "scale": self.scales[name]}
             for name in largest]), deadline=None)
        await oracles
        # Then each query program's demand pipeline.
        warm = []
        for program in GATEWAY_QUERY_PROGRAMS:
            _p, var, obj = next(q for q in self.catalogue
                                if q[0] == program)
            warm.append({"op": "query", "workload": program,
                         "scale": self.scales[program], "var": var,
                         "obj": obj})
        await self._replay(gateway.port, iter(warm), deadline=None)
        self.edits: List[Tuple[inputs.Edit, str]] = []

    def _oracles(self) -> None:
        self.expected: Dict[object, str] = {}
        modules = {}
        for name, (_scale, text) in self.sources.items():
            result = oracle.reference_result(name, text)
            self.expected[name] = oracle.result_digest(name, result)
            if name in GATEWAY_QUERY_PROGRAMS:
                modules[name] = result.module
                catalogue = [(n, o) for p, n, o in
                             inputs.query_catalogue({name: result.module})]
                for (var, obj), mask in oracle.query_answers(
                        result, catalogue).items():
                    self.expected[(name, var, obj)] = mask
            del result
        # A fixed sample, larger than the gateway's hot-response LRU, so
        # repeats both hit and miss it; it also bounds the query store
        # files the teardown has to delete.
        catalogue = inputs.query_catalogue(modules)
        self.catalogue = random.Random(inputs.RANKS_SEED).sample(
            catalogue, min(GATEWAY_QUERIES, len(catalogue)))
        del modules
        gc.collect()

    def _edit_bases(self) -> Dict[str, str]:
        return {name: self.sources[name][1]
                for name in GATEWAY_EDIT_PROGRAMS}

    def trace(self, seed: int):
        return inputs.gateway_trace(
            ALL_PROGRAMS, self.scales, self.catalogue,
            inputs.edit_stream(self._edit_bases(), seed), seed)

    def sequence(self, seed: int) -> Tuple[Iterator, Callable]:
        return self.trace(seed), (
            lambda item: [item[0], item[1]] if item[0] != "edit"
            else ["edit", item[2].describe()])

    # -- measurement -------------------------------------------------------------

    async def _measure(self, gateway, report: Report,
                       seconds: float) -> None:
        self.report = report
        # Responses the shards served (hot-cache answers are only
        # counted: keeping every body would inflate peak_rss_mb).
        self.shard_bodies: List[Tuple[str, float, Dict[str, object]]] = []
        self.edit_latencies: List[float] = []
        start = time.perf_counter()
        await self._replay(gateway.port, self.trace(self.seed),
                           deadline=start + seconds)
        report.notes["wall_s"] = time.perf_counter() - start

    async def _replay(self, port: int, trace: Iterator,
                      deadline: Optional[float]) -> None:
        async def client() -> None:
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            try:
                for item in trace:
                    if deadline is not None and \
                            time.perf_counter() >= deadline:
                        break
                    if isinstance(item, dict):      # setup warm-up
                        await self._request(reader, writer, item)
                        continue
                    kind, entry, key = item
                    assert_untraced()
                    seconds, body = await self._request(reader, writer,
                                                        entry)
                    self._check(kind, key, seconds, body)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, OSError):
                    pass

        await asyncio.gather(*[client() for _ in range(CONNECTIONS)])

    @staticmethod
    async def _request(reader, writer, entry: Dict[str, object]
                       ) -> Tuple[float, Optional[Dict[str, object]]]:
        """One closed-loop request; the body is None when the
        connection dropped."""
        start = time.perf_counter()
        writer.write((json.dumps(entry) + "\n").encode("utf-8"))
        await writer.drain()
        while True:
            line = await reader.readline()
            if not line:
                return time.perf_counter() - start, None
            frame = json.loads(line)
            if frame.get("final"):
                return time.perf_counter() - start, frame.get("body", {})

    def _check(self, kind: str, key, seconds: float,
               body: Optional[Dict[str, object]]) -> None:
        ok = body is not None and body.get("status") == "ok"
        if ok and kind == "analyze":
            ok = body.get("payload_digest") == self.expected[key]
        elif ok and kind == "query":
            ok = body.get("mask") == self.expected[key]
        elif ok:
            self.edits.append((key, str(body.get("payload_digest"))))
        if kind == "edit":
            # Edits are background shard load: counted and checked, but
            # their latency is reported apart from the request groups.
            self.edit_latencies.append(seconds)
        self.report.add(None if kind == "edit" else kind, seconds, ok)
        if body is not None and body.get("cache") != "hot":
            self.shard_bodies.append((kind, seconds, body))

    def _verify_edits(self, report: Report) -> None:
        report.failed += sum(
            digest != oracle.reference_digest(edit.name, edit.source)
            for edit, digest in self.edits)
        report.notes["edits_checked"] = len(self.edits)

    # -- summary -----------------------------------------------------------------

    def _summarize(self, report: Report, before: Dict[str, object],
                   after: Dict[str, object]) -> None:
        series = report.all_latencies()
        wall = float(report.notes["wall_s"])
        pct, value = tail(series)
        report.busy_s = wall
        report.named["gw_p50_ms"] = (median(series) * 1000, "ms")
        report.named["gw_tail_ms"] = (value * 1000, "ms")
        report.named["gw_rps"] = (report.attempted / wall, "1/s")
        if self.edit_latencies:
            report.named["gw_edit_p50_ms"] = (
                median(self.edit_latencies) * 1000, "ms")
        report.notes["gw_tail_percentile"] = pct

        def delta(section: str, name: str) -> float:
            return float(after.get(section, {}).get(name, 0)) \
                - float(before.get(section, {}).get(name, 0))

        ops = max(report.attempted, 1)
        layers = report.layers
        # In the timed window only edits run the shard pipeline (analyze
        # repeats are answered from caches), so these are edit phases.
        for phase, layer in GATEWAY_PHASES.items():
            layers[layer] = delta("phase_seconds", phase) / ops
        shard = self.shard_bodies
        layers["gateway.hot_ratio"] = 1 - len(shard) / ops
        run = [float(b.get("seconds", 0.0)) for _k, _s, b in shard]
        layers["gateway.shard_run_ms"] = median(run) * 1000 if run else 0.0
        layers["gateway.queue_wait_ms"] = median(
            [s - float(b.get("seconds", 0.0)) for _k, s, b in shard]) \
            * 1000 if shard else 0.0
        layers["gateway.coalesced"] = delta("counters", "gateway.coalesced")
        layers["gateway.retries"] = delta("counters", "gateway.retries")
        # A shard-served query's time is its QueryRunner.run call.
        queries = [b for kind, _s, b in shard if kind == "query"]
        layers["fsam.query_s"] = sum(float(b.get("seconds", 0.0))
                                     for b in queries) / ops
        if queries:
            layers["query.slice_nodes_p50"] = median(
                [float(b.get("slice_nodes", 0)) for b in queries])
            layers["query.warm_ratio"] = sum(
                b.get("cache") == "warm" for b in queries) / len(queries)
        layers.update(incremental_ratios(
            [b.get("summary", {}).get("incremental", {})
             for kind, _s, b in shard if kind == "edit"]))
        layers["trace.op_s"] = (sum(series) + sum(self.edit_latencies)) / ops
        layers["unattributed_s"] = layers["trace.op_s"] - sum(
            layers.get(name, 0.0) for name in spans.LAYER_TIMES)
        layers["trace.overhead_ratio"] = 0.0


WORKLOADS = {cls.name: cls for cls in (ColdSuite, EditReplay, QueryStream,
                                       GatewayMix)}
