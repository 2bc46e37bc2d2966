"""Machine-readable exports of the benchmark results (CSV / JSON),
for plotting or regression tracking outside the repo."""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List

from repro.harness.measure import Measurement
from repro.harness.tables import ABLATIONS, resolution_seconds


def _measurement_dict(m: Measurement) -> Dict[str, object]:
    return {
        "analysis": m.analysis,
        "seconds": None if m.oot else round(m.seconds, 4),
        "peak_memory_mb": None if m.oot else round(m.peak_memory_mb, 3),
        "points_to_entries": m.points_to_entries,
        "thread_edges": m.thread_edges,
        "oot": m.oot,
    }


def table2_to_json(rows: List[Dict[str, object]]) -> str:
    payload = [{
        "benchmark": row["benchmark"],
        "fsam": _measurement_dict(row["fsam"]),
        "nonsparse": _measurement_dict(row["nonsparse"]),
    } for row in rows]
    return json.dumps(payload, indent=2)


def table2_to_csv(rows: List[Dict[str, object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["benchmark", "fsam_seconds", "nonsparse_seconds",
                     "fsam_entries", "nonsparse_entries", "nonsparse_oot"])
    for row in rows:
        fsam: Measurement = row["fsam"]
        nonsp: Measurement = row["nonsparse"]
        writer.writerow([
            row["benchmark"],
            f"{fsam.seconds:.4f}",
            "" if nonsp.oot else f"{nonsp.seconds:.4f}",
            fsam.points_to_entries,
            "" if nonsp.oot else nonsp.points_to_entries,
            int(nonsp.oot),
        ])
    return buffer.getvalue()


def render_batch_report(doc: Dict[str, object]) -> str:
    """Human-readable rendering of a ``repro.batch/1`` document (the
    ``repro batch`` text output)."""
    lines = []
    lines.append(f"batch {doc.get('name') or 'batch'}: "
                 f"{len(doc.get('requests', []))} request(s), "
                 f"{doc.get('workers')} worker(s), "
                 f"{doc['total_seconds']:.3f}s total")
    rows: List[Dict[str, object]] = doc.get("requests", [])  # type: ignore[assignment]
    if rows:
        width = max(len(str(row["name"])) for row in rows)
        lines.append(f"  {'name':<{width}} {'status':<9} {'cache':<6} "
                     f"{'seconds':>9} {'queue':>8} {'iters':>8}")
        for row in rows:
            summary: Dict[str, object] = row.get("summary", {})  # type: ignore[assignment]
            iters = summary.get("solver_iterations", 0)
            lines.append(
                f"  {str(row['name']):<{width}} {str(row['status']):<9} "
                f"{str(row['cache']):<6} {float(row['seconds']):>9.3f} "
                f"{float(row.get('queue_seconds', 0.0)):>8.3f} "
                f"{iters:>8}")
    counters: Dict[str, object] = doc.get("counters", {})  # type: ignore[assignment]
    interesting = {k: v for k, v in counters.items()
                   if k.startswith(("batch.", "cache.", "gateway."))}
    if interesting:
        lines.append("counters:")
        width = max(len(k) for k in interesting)
        for key in sorted(interesting):
            lines.append(f"  {key:<{width}} {interesting[key]:>10}")
    aggregate: Dict[str, object] = doc.get("aggregate", {})  # type: ignore[assignment]
    phases: Dict[str, object] = aggregate.get("phase_seconds", {})  # type: ignore[assignment]
    if phases:
        lines.append("aggregate phase seconds:")
        width = max(len(k) for k in phases)
        for key, seconds in sorted(phases.items()):
            lines.append(f"  {key:<{width}} {float(seconds):>9.4f}s")  # type: ignore[arg-type]
    exemplars: List[Dict[str, object]] = doc.get("exemplars", [])  # type: ignore[assignment]
    if exemplars:
        lines.append("slow-request exemplars (see `repro report` for "
                     "the full telemetry view):")
        for exemplar in exemplars:
            lines.append(
                f"  {exemplar['name']} ({exemplar.get('request_id')}) "
                f"{float(exemplar['seconds']):.3f}s "
                f"queue {float(exemplar.get('queue_seconds', 0.0)):.3f}s "
                f"dominant {exemplar.get('dominant_phase') or '-'}")
    return "\n".join(lines)


def batch_report_to_csv(doc: Dict[str, object]) -> str:
    """Flatten a ``repro.batch/1`` document to per-request CSV rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["name", "digest", "status", "cache", "seconds",
                     "attempts", "solver_iterations", "points_to_entries"])
    for row in doc.get("requests", []):  # type: ignore[union-attr]
        summary = row.get("summary", {})
        writer.writerow([
            row["name"], row["digest"], row["status"], row["cache"],
            f"{float(row['seconds']):.6f}", row["attempts"],
            summary.get("solver_iterations", 0),
            summary.get("points_to_entries", 0),
        ])
    return buffer.getvalue()


def figure12_to_csv(rows: List[Dict[str, object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    header = ["benchmark", "base_solve_s", "base_edges"]
    for label, _phase in ABLATIONS:
        key = label.lower().replace("-", "_")
        header += [f"{key}_solve_s", f"{key}_edges"]
    writer.writerow(header)
    for row in rows:
        base: Measurement = row["base"]
        record = [row["benchmark"], f"{resolution_seconds(base):.5f}",
                  base.thread_edges]
        for label, _phase in ABLATIONS:
            m: Measurement = row[label]
            record += [f"{resolution_seconds(m):.5f}", m.thread_edges]
        writer.writerow(record)
    return buffer.getvalue()
