"""Telemetry rendering: ``repro report <batch.json|metrics.jsonl>``.

The human view of the service telemetry pipeline. Accepts any of the
three artifact shapes the serving stack emits:

- a ``repro.batch/1`` report (``repro batch --out``) — uses its
  embedded ``repro.metrics/1`` rollup plus the per-request rows and
  slow-request exemplars;
- a single ``repro.metrics/1`` snapshot (one JSON object);
- a metrics JSONL stream (``repro serve`` / ``repro gateway
  --metrics-interval``) — the
  stream is validated (including cross-snapshot counter monotonicity,
  see :func:`repro.obs.validate_metrics_stream`) and the final,
  cumulative snapshot is rendered.

The rendered report answers ROADMAP item 3's questions directly:
per-phase p50/p99 latency, cache and func-cache hit rates,
degradation/retry counts, and the top-N slowest requests with their
dominant phase.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs import validate_metrics, validate_metrics_stream
from repro.schemas import BATCH_SCHEMA, METRICS_SCHEMA


class TelemetrySource:
    """One loaded telemetry artifact, normalized for rendering."""

    __slots__ = ("kind", "metrics", "rows", "exemplars", "snapshots")

    def __init__(self, kind: str, metrics: Dict[str, object],
                 rows: Optional[List[Dict[str, object]]] = None,
                 exemplars: Optional[List[Dict[str, object]]] = None,
                 snapshots: int = 1) -> None:
        self.kind = kind                       # "batch" | "metrics"
        self.metrics = metrics                 # final repro.metrics/1 doc
        self.rows = rows or []                 # per-request rows (batch)
        self.exemplars = exemplars or []       # slow-request exemplars
        self.snapshots = snapshots             # stream length (jsonl)


def load_telemetry(path: str) -> TelemetrySource:
    """Load and validate *path* (see the module docstring for the
    accepted shapes)."""
    with open(path) as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        schema = doc.get("schema")
        if schema == BATCH_SCHEMA:
            from repro.service.batch import validate_batch_report
            validate_batch_report(doc)
            metrics = doc.get("metrics")
            if metrics is None:
                raise ValueError(
                    f"batch report {path!r} has no embedded metrics "
                    "rollup (produced before telemetry? re-run the "
                    "batch)")
            assert isinstance(metrics, dict)
            return TelemetrySource(
                "batch", metrics,
                rows=doc.get("requests"),          # type: ignore[arg-type]
                exemplars=doc.get("exemplars"))    # type: ignore[arg-type]
        if schema == METRICS_SCHEMA:
            validate_metrics(doc)
            return TelemetrySource("metrics", doc)
        raise ValueError(f"{path!r}: unsupported schema {schema!r} "
                         f"(expected {BATCH_SCHEMA!r} or "
                         f"{METRICS_SCHEMA!r})")
    # Not a single JSON object: treat as a metrics JSONL stream.
    docs = []
    for i, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            docs.append(json.loads(line))
        except ValueError as exc:
            raise ValueError(
                f"{path!r} line {i + 1}: not JSON ({exc})") from exc
    validate_metrics_stream(docs)
    return TelemetrySource("metrics", docs[-1], snapshots=len(docs))


def _rate(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{100.0 * value:5.1f}%"


def _hist_row(name: str, hist: Dict[str, object], width: int) -> str:
    return (f"  {name:<{width}} {hist['count']:>6} "
            f"{float(hist['p50']):>9.4f} {float(hist['p95']):>9.4f} "
            f"{float(hist['p99']):>9.4f} {float(hist['max']):>9.4f}")


def render_telemetry_report(source: TelemetrySource, top: int = 5) -> str:
    """The ``repro report`` text output."""
    metrics = source.metrics
    counters: Dict[str, int] = metrics.get("counters", {})  # type: ignore[assignment]
    gauges: Dict[str, float] = metrics.get("gauges", {})  # type: ignore[assignment]
    histograms: Dict[str, Dict[str, object]] = \
        metrics.get("histograms", {})  # type: ignore[assignment]
    phase_seconds: Dict[str, float] = \
        metrics.get("phase_seconds", {})  # type: ignore[assignment]

    lines = [f"telemetry report: {metrics.get('name') or 'service'}"]
    if source.snapshots > 1:
        lines[0] += f"  (final of {source.snapshots} snapshots)"

    # Retries and deadline kills are the gateway's, which batch runs
    # on too; request and degraded counts are batch.* in a batch
    # rollup and gateway.* in a stream (repro serve or repro gateway).
    prefix = "batch" if "batch.requests" in counters else "gateway"
    requests = counters.get(f"{prefix}.requests")
    summary = []
    if requests is not None:
        summary.append(f"{requests} request(s)")
    summary.append(f"{counters.get(f'{prefix}.degraded', 0)} degraded")
    summary.append(f"{counters.get('gateway.retries', 0)} retried")
    summary.append(f"{counters.get('gateway.deadline_kills', 0)} timed out")
    lines.append("  " + ", ".join(summary))

    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    hit_rate = gauges.get("cache.hit_rate")
    if hit_rate is None and hits + misses:
        hit_rate = hits / (hits + misses)
    func_hits = counters.get("cache.func_hits", 0)
    func_misses = counters.get("cache.func_misses", 0)
    func_rate = gauges.get("cache.func_hit_rate")
    if func_rate is None and func_hits + func_misses:
        func_rate = func_hits / (func_hits + func_misses)
    lines.append(f"  cache hit rate {_rate(hit_rate)} "
                 f"({hits} hit / {misses} miss), "
                 f"func layer {_rate(func_rate)} "
                 f"({func_hits} hit / {func_misses} miss)")

    query_requests = counters.get("query.requests")
    if query_requests is not None:
        query_hits = counters.get("query.cache_hits", 0)
        query_misses = counters.get("query.cache_misses", 0)
        query_rate = query_hits / (query_hits + query_misses) \
            if query_hits + query_misses else None
        lines.append(
            f"  demand queries: {query_requests}, "
            f"store hit rate {_rate(query_rate)} "
            f"({query_hits} hit / {query_misses} miss), "
            f"{counters.get('query.solve_iterations', 0)} solver "
            f"iteration(s)")

    dispatch = {name: hist for name, hist in histograms.items()
                if not name.startswith("phase.")}
    if dispatch:
        width = max(len(name) for name in dispatch)
        lines.append("latency histograms (seconds):")
        lines.append(f"  {'name':<{width}} {'count':>6} {'p50':>9} "
                     f"{'p95':>9} {'p99':>9} {'max':>9}")
        for name in sorted(dispatch):
            lines.append(_hist_row(name, dispatch[name], width))

    phase_hists = {name[len("phase."):]: hist
                   for name, hist in histograms.items()
                   if name.startswith("phase.") and "/" not in name}
    if phase_hists:
        width = max(len(name) for name in phase_hists)
        lines.append("per-phase latency (seconds, across requests):")
        lines.append(f"  {'phase':<{width}} {'count':>6} {'p50':>9} "
                     f"{'p95':>9} {'p99':>9} {'total':>9}")
        for name, hist in sorted(phase_hists.items(),
                                 key=lambda kv: -float(kv[1]["sum"])):  # type: ignore[arg-type]
            total = phase_seconds.get(name, float(hist["sum"]))  # type: ignore[arg-type]
            lines.append(f"  {name:<{width}} {hist['count']:>6} "
                         f"{float(hist['p50']):>9.4f} "
                         f"{float(hist['p95']):>9.4f} "
                         f"{float(hist['p99']):>9.4f} "
                         f"{float(total):>9.3f}")

    if source.rows:
        dominant = {exemplar.get("request_id"): exemplar
                    for exemplar in source.exemplars}
        slowest = sorted(source.rows,
                         key=lambda row: -float(row.get("seconds", 0.0)))  # type: ignore[arg-type]
        lines.append(f"slowest requests (top {min(top, len(slowest))}):")
        width = max(len(str(row["name"])) for row in slowest)
        for row in slowest[:top]:
            exemplar = dominant.get(row.get("request_id"))
            phase = exemplar.get("dominant_phase") if exemplar else None
            lines.append(
                f"  {str(row['name']):<{width}} "
                f"{str(row.get('request_id') or '-'):<6} "
                f"{str(row['cache']):<6} "
                f"{float(row['seconds']):>9.3f}s "
                f"queue {float(row.get('queue_seconds', 0.0)):>7.3f}s  "
                f"dominant {phase or '-'}")
    elif source.exemplars:
        lines.append("slow-request exemplars:")
        for exemplar in source.exemplars[:top]:
            lines.append(
                f"  {exemplar['name']} ({exemplar.get('request_id')}) "
                f"{float(exemplar['seconds']):.3f}s "
                f"dominant {exemplar.get('dominant_phase') or '-'}")
    return "\n".join(lines)
