"""Measurement wrappers: wall-clock time, peak memory, OOT handling.

Each wrapper runs one analysis under a fresh :class:`repro.obs.Observer`
and attaches the resulting profile document to the measurement: the
table/figure layer (and ``repro bench --profile``) reads per-phase
times and counters from that one record.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass
from typing import Dict, Optional

from repro.baseline import NonSparseAnalysis
from repro.frontend import compile_source
from repro.fsam import FSAM, FSAMConfig
from repro.fsam.config import AnalysisTimeout
from repro.obs import Observer


@dataclass
class Measurement:
    """One analysis run's vital signs."""

    name: str
    analysis: str                    # "fsam" | "nonsparse"
    seconds: float
    peak_memory_mb: float            # tracemalloc peak during the run
    points_to_entries: int           # state-size proxy (see DESIGN.md)
    oot: bool = False
    thread_edges: int = 0            # [THREAD-VF] def-use edges added
    profile: Optional[Dict[str, object]] = None   # repro.obs/1 document

    def display_time(self) -> str:
        return "OOT" if self.oot else f"{self.seconds:.2f}"

    def display_memory(self) -> str:
        return "OOT" if self.oot else f"{self.peak_memory_mb:.2f}"


def _measured(name: str, analysis: str, thunk,
              obs: Optional[Observer] = None) -> Measurement:
    gc.collect()
    tracemalloc.start()
    oot = False
    result = None
    start = time.perf_counter()
    try:
        try:
            result = thunk()
        except AnalysisTimeout:
            oot = True
        # The measurement window closes the moment the analysis
        # returns: snapshot the clock and traced memory *before* any
        # stats extraction below, which walks every points-to set and
        # used to be billed to the analysis.
        seconds = time.perf_counter() - start
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        # Always tear down tracing: a thunk that raises anything other
        # than AnalysisTimeout must not leave tracemalloc running for
        # the rest of the process (it taxes every later allocation and
        # skews subsequent measurements).
        tracemalloc.stop()
    entries = 0
    thread_edges = 0
    profile = None
    if result is not None:
        entries = result.points_to_entries()
        dug = getattr(result, "dug", None)
        if dug is not None:
            thread_edges = len(dug.thread_edges)
    if obs is not None:
        # Per-phase memory tracking resets tracemalloc's peak between
        # phases; the observer folds segment peaks into the true
        # run-wide maximum, which the raw snapshot may under-report.
        peak = max(peak, obs.peak_traced_bytes)
        profile = obs.to_dict()
    return Measurement(name=name, analysis=analysis, seconds=seconds,
                       peak_memory_mb=peak / (1024.0 * 1024.0),
                       points_to_entries=entries, oot=oot,
                       thread_edges=thread_edges, profile=profile)


def measure_fsam(name: str, source: str, config: Optional[FSAMConfig] = None) -> Measurement:
    """Compile and run FSAM under measurement."""
    module = compile_source(source, name=name)
    obs = Observer(name=name)
    return _measured(name, "fsam",
                     lambda: FSAM(module, config, obs=obs).run(), obs=obs)


def measure_nonsparse(name: str, source: str,
                      budget: Optional[float] = None) -> Measurement:
    """Compile and run NONSPARSE under measurement, with OOT budget."""
    module = compile_source(source, name=name)
    config = FSAMConfig(time_budget=budget)
    obs = Observer(name=name)
    return _measured(name, "nonsparse",
                     lambda: NonSparseAnalysis(module, config, obs=obs).run(),
                     obs=obs)
