"""Regeneration of the paper's evaluation tables and figures."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.fsam import FSAMConfig
from repro.harness.measure import Measurement, measure_fsam, measure_nonsparse
from repro.harness.scales import BASELINE_BUDGET, BENCH_SCALES
from repro.workloads import WORKLOADS, source_loc

ABLATIONS = [
    ("No-Interleaving", "interleaving"),
    ("No-Value-Flow", "value_flow"),
    ("No-Lock", "lock_analysis"),
]


# -- Table 1 -----------------------------------------------------------


def run_table1(scales: Optional[Dict[str, int]] = None) -> List[Dict[str, object]]:
    """Program statistics (paper Table 1)."""
    scales = scales or BENCH_SCALES
    rows = []
    for name, workload in WORKLOADS.items():
        source = workload.source(scales.get(name, workload.default_scale))
        rows.append({
            "benchmark": name,
            "description": workload.description,
            "suite": workload.suite,
            "generated_loc": source_loc(source),
            "paper_loc": workload.paper_loc,
        })
    return rows


def render_table1(rows: List[Dict[str, object]]) -> str:
    lines = ["Table 1: Program statistics.",
             f"{'Benchmark':<14} {'Description':<42} {'LOC':>6} {'paper LOC':>10}",
             "-" * 76]
    total = 0
    paper_total = 0
    for row in rows:
        total += row["generated_loc"]
        paper_total += row["paper_loc"]
        lines.append(f"{row['benchmark']:<14} {row['description']:<42} "
                     f"{row['generated_loc']:>6} {row['paper_loc']:>10}")
    lines.append("-" * 76)
    lines.append(f"{'Total':<14} {'':<42} {total:>6} {paper_total:>10}")
    return "\n".join(lines)


# -- Table 2 -----------------------------------------------------------


def run_table2(scales: Optional[Dict[str, int]] = None,
               budget: float = BASELINE_BUDGET,
               names: Optional[List[str]] = None) -> List[Dict[str, object]]:
    """Analysis time and memory: FSAM vs NONSPARSE (paper Table 2)."""
    scales = scales or BENCH_SCALES
    rows = []
    for name, workload in WORKLOADS.items():
        if names is not None and name not in names:
            continue
        source = workload.source(scales.get(name, workload.default_scale))
        fsam = measure_fsam(name, source)
        nonsparse = measure_nonsparse(name, source, budget=budget)
        rows.append({
            "benchmark": name,
            "fsam": fsam,
            "nonsparse": nonsparse,
        })
    return rows


def render_table2(rows: List[Dict[str, object]]) -> str:
    lines = ["Table 2: Analysis time and memory usage.",
             f"{'Program':<14} {'FSAM t(s)':>10} {'NONSP t(s)':>11} "
             f"{'FSAM MB':>9} {'NONSP MB':>9} {'speedup':>8} {'mem x':>7}",
             "-" * 74]
    speedups: List[float] = []
    mem_ratios: List[float] = []
    for row in rows:
        fsam: Measurement = row["fsam"]
        nonsp: Measurement = row["nonsparse"]
        if nonsp.oot:
            speedup_s = mem_s = "-"
        else:
            speedup = nonsp.seconds / max(fsam.seconds, 1e-9)
            mem_ratio = nonsp.points_to_entries / max(fsam.points_to_entries, 1)
            speedups.append(speedup)
            mem_ratios.append(mem_ratio)
            speedup_s = f"{speedup:.1f}x"
            mem_s = f"{mem_ratio:.1f}x"
        lines.append(f"{row['benchmark']:<14} {fsam.display_time():>10} "
                     f"{nonsp.display_time():>11} {fsam.peak_memory_mb:>9.2f} "
                     f"{nonsp.display_memory():>9} {speedup_s:>8} {mem_s:>7}")
    lines.append("-" * 74)
    if speedups:
        avg_speed = sum(speedups) / len(speedups)
        avg_mem = sum(mem_ratios) / len(mem_ratios)
        lines.append(f"{'Average (finishers)':<26} speedup {avg_speed:.1f}x, "
                     f"state-size ratio {avg_mem:.1f}x "
                     f"(paper: 12x faster, 28x less memory)")
    oot = [row["benchmark"] for row in rows if row["nonsparse"].oot]
    if oot:
        lines.append(f"NONSPARSE OOT on: {', '.join(oot)} "
                     f"(paper: raytrace, x264)")
    return "\n".join(lines)


# -- Figure 12 ---------------------------------------------------------


def run_figure12(scales: Optional[Dict[str, int]] = None,
                 names: Optional[List[str]] = None) -> List[Dict[str, object]]:
    """Slowdown of FSAM with each interference phase disabled."""
    scales = scales or BENCH_SCALES
    rows = []
    base_config = FSAMConfig()
    for name, workload in WORKLOADS.items():
        if names is not None and name not in names:
            continue
        source = workload.source(scales.get(name, workload.default_scale))
        base = measure_fsam(name, source, base_config)
        row: Dict[str, object] = {"benchmark": name, "base": base}
        for label, phase in ABLATIONS:
            ablated = measure_fsam(name, source, base_config.ablated(phase))
            row[label] = ablated
        rows.append(row)
    return rows


def resolution_seconds(m: Measurement) -> float:
    """Figure 12's time: the paper measures the impact on sparse
    points-to *resolution* (the final solve over the def-use graph),
    read from the profile's ``sparse_solve`` phase. A run that never
    reached the solve (out of time) falls back to its whole time."""
    for phase in (m.profile or {}).get("phases", []):
        if phase["name"] == "sparse_solve":
            return float(phase["seconds"])
    return m.seconds


def render_figure12(rows: List[Dict[str, object]]) -> str:
    lines = ["Figure 12: slowdown of sparse points-to resolution with one phase disabled.",
             f"{'Program':<14}" + "".join(f" {label:>16}" for label, _ in ABLATIONS),
             "-" * (14 + 17 * len(ABLATIONS))]
    sums = {label: 0.0 for label, _ in ABLATIONS}
    for row in rows:
        base: Measurement = row["base"]
        base_time = resolution_seconds(base)
        cells = []
        for label, _phase in ABLATIONS:
            m: Measurement = row[label]
            slowdown = resolution_seconds(m) / max(base_time, 1e-9)
            sums[label] += slowdown
            bar = "#" * min(24, int(round(slowdown * 2)))
            cells.append(f"{slowdown:>6.2f}x {bar:<8}")
        lines.append(f"{row['benchmark']:<14}" + " ".join(cells))
    lines.append("-" * (14 + 17 * len(ABLATIONS)))
    n = max(len(rows), 1)
    lines.append("Average slowdowns: " + ", ".join(
        f"{label} {sums[label] / n:.2f}x" for label, _ in ABLATIONS))
    lines.append("")
    lines.append("Spurious thread-aware def-use edges each phase avoids "
                 "(edges with phase off / edges with full FSAM):")
    for row in rows:
        base: Measurement = row["base"]
        cells = []
        for label, _phase in ABLATIONS:
            m: Measurement = row[label]
            ratio = m.thread_edges / max(base.thread_edges, 1)
            cells.append(f"{label} {m.thread_edges}({ratio:.1f}x)")
        lines.append(f"  {row['benchmark']:<14} base={base.thread_edges:<7} "
                     + "  ".join(cells))
    return "\n".join(lines)
