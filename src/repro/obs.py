"""Unified observability layer for the analysis pipeline.

One :class:`Observer` is shared by the whole pipeline, and its phase
tree is the only timing record of a run: ``FSAMResult.stats()`` /
``total_time()``, the CLI, the measurement harness, batch reports and
service metrics all read their times from it (or from a request
span's ``repro.metrics/1`` snapshot of it). It collects:

- **hierarchical timers** — ``with obs.phase("sparse_solve"): ...``
  scopes nest, producing a tree of per-phase (and sub-phase) wall
  times;
- **named counters** — ``obs.count("solver.strong_updates", n)``,
  flat ``stage.metric`` names (see DESIGN.md for the naming scheme);
- **gauges** — point-in-time snapshots such as graph sizes, recorded
  with ``obs.gauge("memssa.dug_nodes", n)``;
- **per-phase memory** — when ``tracemalloc`` is tracing, each phase
  records its own peak traced size (not just the run-wide peak), and
  each phase snapshot includes the process peak RSS where the
  ``resource`` module is available;
- **per-phase GC time** — while a phase is open, a ``gc.callbacks``
  hook charges each cyclic collection's duration to the innermost
  open phase (``gc_seconds``) and counts ``gc.collections`` and
  ``gc.gen2_collections``; the hook is removed when the outermost
  phase closes;
- **histograms** — ``obs.observe("pool.run_seconds", dt)`` feeds a
  mergeable log-bucketed :class:`Histogram` (count/sum/min/max plus
  p50/p95/p99 interpolated from the bucket bounds), the building
  block of cross-process latency distributions;
- **export** — :meth:`Observer.to_dict` produces the one JSON
  document (schema ``repro.obs/1``) that the CLI ``--profile`` flag,
  the ``repro stats`` subcommand, and the measurement harness all
  consume; :func:`profile_to_csv` flattens it for spreadsheets and
  :func:`validate_profile` checks a document against the schema.
  :meth:`Observer.to_metrics_dict` exports the flat telemetry view
  (schema ``repro.metrics/1``: counters, gauges, histograms, phase
  seconds) and :meth:`Observer.merge_metrics` folds one such snapshot
  — typically shipped back from a pool worker process — into another
  observer, which is how per-request spans aggregate into service
  rollups; :func:`validate_metrics` / :func:`validate_metrics_stream`
  check the documents.

Stages that sit on hot paths accumulate plain integer tallies locally
and flush them into the observer once per phase, so a run with a live
observer stays within a few percent of one against :data:`NULL_OBS`,
the explicit opt-out that records nothing (guarded by
``benchmarks/test_observability_overhead.py``).

This module is a leaf: apart from the :mod:`repro.schemas` constants
module (itself a pure leaf), it imports nothing from the rest of
``repro``, so any stage (including :mod:`repro.graphs`) may depend
on it without cycles.
"""

from __future__ import annotations

import gc
import io
import json
import math
import sys
import time
import tracemalloc
from typing import Dict, Iterator, List, Optional, Tuple

from repro.schemas import METRICS_SCHEMA, PROFILE_SCHEMA

try:  # pragma: no cover - platform dependent
    import resource as _resource
except ImportError:  # pragma: no cover - non-unix
    _resource = None

_HAVE_RESET_PEAK = hasattr(tracemalloc, "reset_peak")


def _rss_kb() -> Optional[int]:
    """Current peak RSS of the process in KiB (None if unavailable)."""
    if _resource is None:
        return None
    usage = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss units are platform-defined: bytes on macOS, KiB on
    # Linux (and the BSDs we care about). Decide by platform, not by
    # magnitude — a >4 GiB RSS on Linux is real and must stay exact.
    if sys.platform == "darwin":
        return usage // 1024
    return usage


class PhaseRecord:
    """One timed phase: wall time, GC time, memory snapshots,
    children."""

    __slots__ = ("name", "seconds", "gc_seconds", "peak_traced_bytes",
                 "rss_kb", "children", "_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        # Cyclic-GC time spent while this phase was the innermost open
        # one (children's collections are charged to the children).
        self.gc_seconds = 0.0
        # Peak tracemalloc traced size observed while the phase was
        # open (0 when tracemalloc was not tracing).
        self.peak_traced_bytes = 0
        self.rss_kb: Optional[int] = None
        self.children: List["PhaseRecord"] = []
        self._start = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "gc_seconds": self.gc_seconds,
            "peak_traced_kb": (self.peak_traced_bytes / 1024.0
                               if self.peak_traced_bytes else 0.0),
            "rss_kb": self.rss_kb,
            "children": [c.to_dict() for c in self.children],
        }


class _PhaseScope:
    """Context manager returned by :meth:`Observer.phase`."""

    __slots__ = ("_obs", "_record")

    def __init__(self, obs: "Observer", record: PhaseRecord) -> None:
        self._obs = obs
        self._record = record

    def __enter__(self) -> PhaseRecord:
        self._obs._enter_phase(self._record)
        return self._record

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._obs._exit_phase(self._record)
        return False  # propagate exceptions (deadlines must still fire)


#: Log-bucket growth factor: four buckets per doubling keeps any
#: bucket-interpolated percentile within ~19% of the true value while
#: covering microseconds-to-hours in a few dozen sparse buckets.
HISTOGRAM_BASE = 2.0 ** 0.25

_LOG_BASE = math.log(HISTOGRAM_BASE)


class Histogram:
    """A mergeable log-bucketed value distribution.

    Bucket ``i`` covers ``[BASE**i, BASE**(i+1))``; only touched
    buckets are stored, so the index may be negative (sub-second
    latencies live there). Non-positive observations are clamped to a
    dedicated ``zeros`` bucket — durations cannot be negative, and a
    clock that reads 0 is a resolution artifact, not a signal.

    Two histograms with the same base merge exactly (bucket counts
    add), which is what makes per-worker recording + parent-side
    aggregation sound: merge-of-splits equals the whole, up to float
    associativity in ``sum``.
    """

    __slots__ = ("count", "sum", "min", "max", "zeros", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.zeros = 0
        self.buckets: Dict[int, int] = {}

    @staticmethod
    def bucket_index(value: float) -> int:
        """The bucket holding *value* (> 0): the ``i`` with
        ``BASE**i <= value < BASE**(i+1)``."""
        i = math.floor(math.log(value) / _LOG_BASE)
        # math.log rounds; re-check the invariant at bucket edges so a
        # value sitting exactly on a bound lands deterministically.
        if HISTOGRAM_BASE ** (i + 1) <= value:
            i += 1
        elif HISTOGRAM_BASE ** i > value:
            i -= 1
        return i

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0.0 or value != value:  # clamp negatives and NaN
            value = 0.0
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value == 0.0:
            self.zeros += 1
        else:
            i = self.bucket_index(value)
            self.buckets[i] = self.buckets.get(i, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other* into this histogram (bucket-exact)."""
        if other.count == 0:
            return self
        self.count += other.count
        self.sum += other.sum
        self.zeros += other.zeros
        assert other.min is not None and other.max is not None
        self.min = other.min if self.min is None else min(self.min, other.min)
        self.max = other.max if self.max is None else max(self.max, other.max)
        for i, n in other.buckets.items():
            self.buckets[i] = self.buckets.get(i, 0) + n
        return self

    def percentile(self, q: float) -> Optional[float]:
        """The *q*-quantile (``0 <= q <= 1``), linearly interpolated
        inside the covering bucket and clamped to the observed
        [min, max]. None for an empty histogram."""
        if self.count == 0:
            return None
        assert self.min is not None and self.max is not None
        target = q * self.count
        cum = self.zeros
        if self.zeros and target <= cum:
            return 0.0
        for i in sorted(self.buckets):
            n = self.buckets[i]
            if cum + n >= target:
                lo = HISTOGRAM_BASE ** i
                hi = HISTOGRAM_BASE ** (i + 1)
                value = lo + (hi - lo) * ((target - cum) / n)
                return max(self.min, min(self.max, value))
            cum += n
        return self.max  # pragma: no cover - q > 1 only

    def to_dict(self) -> Dict[str, object]:
        """Wire form: sparse ``[index, upper_bound, count]`` bucket
        rows (sorted by index) plus the summary stats and the three
        headline percentiles."""
        doc: Dict[str, object] = {
            "count": self.count,
            "sum": self.sum,
            "min": 0.0 if self.min is None else self.min,
            "max": 0.0 if self.max is None else self.max,
            "zeros": self.zeros,
            "base": HISTOGRAM_BASE,
            "buckets": [[i, HISTOGRAM_BASE ** (i + 1), self.buckets[i]]
                        for i in sorted(self.buckets)],
        }
        for key, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            p = self.percentile(q)
            doc[key] = 0.0 if p is None else p
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "Histogram":
        hist = cls()
        hist.count = int(doc["count"])                 # type: ignore[arg-type]
        hist.sum = float(doc["sum"])                   # type: ignore[arg-type]
        hist.zeros = int(doc.get("zeros", 0))          # type: ignore[arg-type]
        if hist.count:
            hist.min = float(doc["min"])               # type: ignore[arg-type]
            hist.max = float(doc["max"])               # type: ignore[arg-type]
        for row in doc.get("buckets", []):             # type: ignore[union-attr]
            index, _bound, n = row
            hist.buckets[int(index)] = int(n)
        return hist


class Observer:
    """Collects timers, counters, and gauges for one pipeline run.

    One observer lives for one analysis run (like the
    :class:`~repro.pts.PTUniverse`); mixing runs in one observer would
    conflate their phases.
    """

    enabled = True

    def __init__(self, name: str = "", track_memory: bool = True) -> None:
        self.name = name
        self.track_memory = track_memory
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.phases: List[PhaseRecord] = []   # completed top-level phases
        self._stack: List[PhaseRecord] = []
        # Phase seconds folded in from merged repro.metrics/1 snapshots
        # (worker spans); kept apart from the locally timed tree so
        # profile export (repro.obs/1) stays purely local.
        self._merged_phase_seconds: Dict[str, float] = {}
        # Run-wide peak traced size, folded across the reset_peak
        # segments (see _fold_peak); harnesses read this instead of a
        # raw tracemalloc peak, which per-phase tracking resets.
        self.peak_traced_bytes = 0
        # The gc.callbacks hook's state: the start of the collection
        # in progress, and tallies folded into the counters when the
        # outermost phase closes (a callback may fire while another
        # frame iterates the counters, so it never inserts keys).
        self._gc_start: Optional[float] = None
        self._gc_collections = 0
        self._gc_gen2_collections = 0

    # -- counters and gauges ----------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add *n* to counter *name* (created at 0 on first use)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def gauge(self, name: str, value: float) -> None:
        """Record the latest snapshot of gauge *name*."""
        self.gauges[name] = value

    # -- histograms --------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram *name* (created empty on
        first use). Same flat ``stage.metric`` naming as counters."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self.histograms.get(name)

    # -- hierarchical timers ----------------------------------------------

    def phase(self, name: str) -> _PhaseScope:
        """A timing scope; nest freely for sub-phases."""
        return _PhaseScope(self, PhaseRecord(name))

    def _fold_peak(self) -> None:
        """Fold the tracemalloc peak of the segment since the last fold
        into every open phase and the run maximum, then start a fresh
        segment. Peaks are absolute traced sizes, so taking the max of
        segment peaks per phase yields that phase's true peak."""
        if not (self.track_memory and tracemalloc.is_tracing()):
            return
        _current, peak = tracemalloc.get_traced_memory()
        if peak > self.peak_traced_bytes:
            self.peak_traced_bytes = peak
        for record in self._stack:
            if peak > record.peak_traced_bytes:
                record.peak_traced_bytes = peak
        if _HAVE_RESET_PEAK:
            tracemalloc.reset_peak()

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """The ``gc.callbacks`` hook: charge one collection to the
        innermost open phase."""
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        start, self._gc_start = self._gc_start, None
        if start is None or not self._stack:
            return
        self._stack[-1].gc_seconds += time.perf_counter() - start
        self._gc_collections += 1
        if info.get("generation") == 2:
            self._gc_gen2_collections += 1

    def _enter_phase(self, record: PhaseRecord) -> None:
        self._fold_peak()  # the preceding segment belongs to outer phases
        if not self._stack:
            gc.callbacks.append(self._on_gc)
        self._stack.append(record)
        record._start = time.perf_counter()

    def _exit_phase(self, record: PhaseRecord) -> None:
        record.seconds = time.perf_counter() - record._start
        self._fold_peak()  # this segment belongs to record too
        record.rss_kb = _rss_kb()
        popped = self._stack.pop()
        if not self._stack:
            gc.callbacks.remove(self._on_gc)
            if self._gc_collections:
                self.count("gc.collections", self._gc_collections)
                self._gc_collections = 0
            if self._gc_gen2_collections:
                self.count("gc.gen2_collections", self._gc_gen2_collections)
                self._gc_gen2_collections = 0
        assert popped is record, "mismatched phase nesting"
        if self._stack:
            self._stack[-1].children.append(record)
        else:
            self.phases.append(record)

    # -- derived views ------------------------------------------------------

    def phase_seconds(self) -> Dict[str, float]:
        """Flattened ``path -> seconds`` map; nested phases use
        ``outer/inner`` paths (counter names use dots, phase paths use
        slashes, so the two namespaces cannot collide)."""
        result: Dict[str, float] = {}

        def walk(records: List[PhaseRecord], prefix: str) -> None:
            for record in records:
                path = f"{prefix}/{record.name}" if prefix else record.name
                result[path] = result.get(path, 0.0) + record.seconds
                walk(record.children, path)

        walk(self.phases, "")
        return result

    def total_seconds(self) -> float:
        return sum(record.seconds for record in self.phases)

    # -- export -------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """The profile document (schema ``repro.obs/1``)."""
        return {
            "schema": PROFILE_SCHEMA,
            "name": self.name,
            "total_seconds": self.total_seconds(),
            "peak_traced_kb": (self.peak_traced_bytes / 1024.0
                               if self.peak_traced_bytes else 0.0),
            "phases": [record.to_dict() for record in self.phases],
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_csv(self) -> str:
        return profile_to_csv(self.to_dict())

    # -- cross-process telemetry (repro.metrics/1) -------------------------

    def to_metrics_dict(self) -> Dict[str, object]:
        """The flat telemetry snapshot (schema ``repro.metrics/1``):
        counters, gauges, histograms, and flattened ``path -> seconds``
        phase times (local tree plus anything folded in by
        :meth:`merge_metrics`). This is the wire form a pool worker
        ships back through the result pipe, and the document ``repro
        serve --metrics-interval`` / batch-report rollups emit."""
        phase_seconds = self.phase_seconds()
        for path, seconds in self._merged_phase_seconds.items():
            phase_seconds[path] = phase_seconds.get(path, 0.0) + seconds
        return {
            "schema": METRICS_SCHEMA,
            "name": self.name,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {name: self.histograms[name].to_dict()
                           for name in sorted(self.histograms)},
            "phase_seconds": {path: phase_seconds[path]
                              for path in sorted(phase_seconds)},
        }

    def merge_metrics(self, doc: Dict[str, object]) -> None:
        """Fold one ``repro.metrics/1`` snapshot (a worker span) into
        this observer: counters add, gauges take the snapshot's value,
        histograms merge bucket-wise, and every phase path both
        accumulates into the merged totals and is observed into a
        ``phase.<path>`` histogram — so merging many request spans
        yields cross-request latency distributions per phase.

        Snapshots that already carry a ``phase.<path>`` histogram
        (re-merged rollups) keep theirs; the phase seconds are not
        observed a second time."""
        for name, value in doc.get("counters", {}).items():  # type: ignore[union-attr]
            self.count(name, int(value))
        for name, value in doc.get("gauges", {}).items():  # type: ignore[union-attr]
            self.gauge(name, value)
        histograms = doc.get("histograms", {})
        assert isinstance(histograms, dict)
        for name, hist_doc in histograms.items():
            incoming = Histogram.from_dict(hist_doc)
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = incoming
            else:
                mine.merge(incoming)
        for path, seconds in doc.get("phase_seconds", {}).items():  # type: ignore[union-attr]
            seconds = float(seconds)
            self._merged_phase_seconds[path] = \
                self._merged_phase_seconds.get(path, 0.0) + seconds
            if f"phase.{path}" not in histograms:
                self.observe(f"phase.{path}", seconds)


class _NullScope:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class NullObserver(Observer):
    """A no-op observer: every hook is free, so stages can call the
    observer unconditionally and profiling off costs nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(name="", track_memory=False)

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def merge_metrics(self, doc: Dict[str, object]) -> None:
        pass

    def phase(self, name: str) -> _NullScope:  # type: ignore[override]
        return _NULL_SCOPE


#: Shared no-op instance: the explicit opt-out (pass ``obs=NULL_OBS``),
#: and the default of standalone stage calls.
NULL_OBS = NullObserver()


# -- schema ----------------------------------------------------------------


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"invalid profile document: {message}")


def _validate_phase(phase: object, path: str) -> None:
    _check(isinstance(phase, dict), f"phase at {path} is not an object")
    assert isinstance(phase, dict)
    _check(isinstance(phase.get("name"), str) and phase["name"] != "",
           f"phase at {path} lacks a name")
    _check(isinstance(phase.get("seconds"), (int, float))
           and phase["seconds"] >= 0,
           f"phase {phase.get('name')!r} has no non-negative seconds")
    gc_seconds = phase.get("gc_seconds", 0.0)
    _check(isinstance(gc_seconds, (int, float)) and gc_seconds >= 0,
           f"phase {phase.get('name')!r} has negative gc_seconds")
    _check(isinstance(phase.get("peak_traced_kb"), (int, float)),
           f"phase {phase.get('name')!r} lacks peak_traced_kb")
    rss = phase.get("rss_kb")
    _check(rss is None or isinstance(rss, int),
           f"phase {phase.get('name')!r} has non-integer rss_kb")
    children = phase.get("children")
    _check(isinstance(children, list),
           f"phase {phase.get('name')!r} lacks a children list")
    assert isinstance(children, list)
    for i, child in enumerate(children):
        _validate_phase(child, f"{path}/{phase['name']}[{i}]")


def validate_profile(doc: object) -> Dict[str, object]:
    """Check *doc* against the ``repro.obs/1`` schema.

    Returns the document unchanged; raises :class:`ValueError` with a
    pointed message on the first violation. Used by tests and the CI
    profile-artifact step (no external jsonschema dependency).
    """
    _check(isinstance(doc, dict), "top level is not an object")
    assert isinstance(doc, dict)
    _check(doc.get("schema") == PROFILE_SCHEMA,
           f"schema is {doc.get('schema')!r}, expected {PROFILE_SCHEMA!r}")
    _check(isinstance(doc.get("name"), str), "name is not a string")
    _check(isinstance(doc.get("total_seconds"), (int, float))
           and doc["total_seconds"] >= 0, "total_seconds missing or negative")
    _check(isinstance(doc.get("peak_traced_kb"), (int, float)),
           "peak_traced_kb missing")
    phases = doc.get("phases")
    _check(isinstance(phases, list), "phases is not a list")
    assert isinstance(phases, list)
    for i, phase in enumerate(phases):
        _validate_phase(phase, f"[{i}]")
    counters = doc.get("counters")
    _check(isinstance(counters, dict), "counters is not an object")
    assert isinstance(counters, dict)
    for key, value in counters.items():
        _check(isinstance(key, str) and isinstance(value, int) and value >= 0,
               f"counter {key!r} is not a non-negative integer")
    gauges = doc.get("gauges")
    _check(isinstance(gauges, dict), "gauges is not an object")
    assert isinstance(gauges, dict)
    for key, value in gauges.items():
        _check(isinstance(key, str) and isinstance(value, (int, float)),
               f"gauge {key!r} is not numeric")
    return doc


def _mcheck(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"invalid metrics document: {message}")


def _validate_histogram(name: str, doc: object) -> None:
    _mcheck(isinstance(doc, dict), f"histogram {name!r} is not an object")
    assert isinstance(doc, dict)
    count = doc.get("count")
    _mcheck(isinstance(count, int) and count >= 0,
            f"histogram {name!r} count is not a non-negative integer")
    zeros = doc.get("zeros")
    _mcheck(isinstance(zeros, int) and zeros >= 0,
            f"histogram {name!r} zeros is not a non-negative integer")
    _mcheck(isinstance(doc.get("sum"), (int, float)) and doc["sum"] >= 0
            and math.isfinite(doc["sum"]),
            f"histogram {name!r} sum missing, negative, or non-finite")
    base = doc.get("base")
    _mcheck(isinstance(base, (int, float)) and base > 1,
            f"histogram {name!r} base must be a number > 1")
    buckets = doc.get("buckets")
    _mcheck(isinstance(buckets, list),
            f"histogram {name!r} buckets is not a list")
    assert isinstance(buckets, list) and isinstance(count, int) \
        and isinstance(zeros, int)
    total = zeros
    prev_index: Optional[int] = None
    for row in buckets:
        _mcheck(isinstance(row, (list, tuple)) and len(row) == 3,
                f"histogram {name!r} bucket row is not [index, bound, count]")
        index, bound, n = row
        _mcheck(isinstance(index, int),
                f"histogram {name!r} bucket index is not an integer")
        _mcheck(prev_index is None or index > prev_index,
                f"histogram {name!r} bucket bounds are not sorted")
        _mcheck(isinstance(bound, (int, float)) and bound > 0,
                f"histogram {name!r} bucket bound is not positive")
        _mcheck(isinstance(n, int) and n >= 0,
                f"histogram {name!r} has a negative bucket count")
        prev_index = index
        total += n
    _mcheck(total == count,
            f"histogram {name!r} bucket counts sum to {total}, "
            f"count says {count}")
    if count:
        _mcheck(isinstance(doc.get("min"), (int, float))
                and isinstance(doc.get("max"), (int, float))
                and 0 <= doc["min"] <= doc["max"],
                f"histogram {name!r} min/max invalid")
    else:
        _mcheck(not buckets and zeros == 0,
                f"histogram {name!r} is empty but has buckets")
    for key in ("p50", "p95", "p99"):
        if key in doc:
            _mcheck(isinstance(doc[key], (int, float)),
                    f"histogram {name!r} {key} is not numeric")


def validate_metrics(doc: object) -> Dict[str, object]:
    """Check *doc* against the ``repro.metrics/1`` schema (same
    contract as :func:`validate_profile`: returns the document
    unchanged, raises :class:`ValueError` on the first violation).
    Rejects negative bucket counts and unsorted bucket bounds; use
    :func:`validate_metrics_stream` for the cross-snapshot counter
    monotonicity check."""
    _mcheck(isinstance(doc, dict), "top level is not an object")
    assert isinstance(doc, dict)
    _mcheck(doc.get("schema") == METRICS_SCHEMA,
            f"schema is {doc.get('schema')!r}, expected {METRICS_SCHEMA!r}")
    _mcheck(isinstance(doc.get("name"), str), "name is not a string")
    counters = doc.get("counters")
    _mcheck(isinstance(counters, dict), "counters is not an object")
    assert isinstance(counters, dict)
    for key, value in counters.items():
        _mcheck(isinstance(key, str) and isinstance(value, int)
                and value >= 0,
                f"counter {key!r} is not a non-negative integer")
    gauges = doc.get("gauges")
    _mcheck(isinstance(gauges, dict), "gauges is not an object")
    assert isinstance(gauges, dict)
    for key, value in gauges.items():
        _mcheck(isinstance(key, str) and isinstance(value, (int, float)),
                f"gauge {key!r} is not numeric")
    histograms = doc.get("histograms")
    _mcheck(isinstance(histograms, dict), "histograms is not an object")
    assert isinstance(histograms, dict)
    for name, hist in histograms.items():
        _validate_histogram(name, hist)
    phase_seconds = doc.get("phase_seconds")
    _mcheck(isinstance(phase_seconds, dict),
            "phase_seconds is not an object")
    assert isinstance(phase_seconds, dict)
    for path, seconds in phase_seconds.items():
        _mcheck(isinstance(path, str)
                and isinstance(seconds, (int, float)) and seconds >= 0,
                f"phase_seconds[{path!r}] is not a non-negative number")
    return doc


def validate_metrics_stream(docs: List[Dict[str, object]]
                            ) -> List[Dict[str, object]]:
    """Validate a sequence of ``repro.metrics/1`` snapshots from one
    emitter (the ``--metrics-interval`` JSONL stream): every document
    must pass :func:`validate_metrics`, and a counter present in two
    consecutive snapshots must never regress — counters are cumulative
    within a stream, so a decrease means lost or reordered telemetry.
    Returns *docs* unchanged."""
    _mcheck(isinstance(docs, list) and len(docs) > 0,
            "metrics stream is empty or not a list")
    previous: Optional[Dict[str, object]] = None
    for i, doc in enumerate(docs):
        validate_metrics(doc)
        if previous is not None:
            prev_counters = previous["counters"]
            assert isinstance(prev_counters, dict)
            counters = doc["counters"]
            assert isinstance(counters, dict)
            for key, before in prev_counters.items():
                if key in counters and counters[key] < before:
                    _mcheck(False,
                            f"counter {key!r} regressed from {before} to "
                            f"{counters[key]} at stream position {i}")
        previous = doc
    return docs


# -- renderers -------------------------------------------------------------


def _walk_phases(phases: List[Dict[str, object]], prefix: str = ""
                 ) -> Iterator[Tuple[str, Dict[str, object]]]:
    for phase in phases:
        path = f"{prefix}/{phase['name']}" if prefix else str(phase["name"])
        yield path, phase
        yield from _walk_phases(phase.get("children", []), path)  # type: ignore[arg-type]


def profile_to_csv(doc: Dict[str, object]) -> str:
    """Flatten a profile document to ``kind,name,value`` CSV rows."""
    import csv
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["kind", "name", "value"])
    for path, phase in _walk_phases(doc.get("phases", [])):  # type: ignore[arg-type]
        writer.writerow(["phase_seconds", path, f"{phase['seconds']:.6f}"])
        writer.writerow(["phase_peak_traced_kb", path,
                         f"{phase['peak_traced_kb']:.1f}"])
    for name, value in doc.get("counters", {}).items():  # type: ignore[union-attr]
        writer.writerow(["counter", name, value])
    for name, value in doc.get("gauges", {}).items():  # type: ignore[union-attr]
        writer.writerow(["gauge", name, value])
    return buffer.getvalue()


def render_profile(doc: Dict[str, object]) -> str:
    """Human-readable profile (the ``repro stats`` text output)."""
    lines = []
    name = doc.get("name") or "analysis"
    lines.append(f"profile of {name}: {doc['total_seconds']:.3f}s total")
    lines.append("phases:")

    def emit(phases, depth):
        for phase in phases:
            mem = ""
            if phase.get("gc_seconds"):
                mem += f"  gc {phase['gc_seconds']:.4f}s"
            if phase.get("peak_traced_kb"):
                mem += f"  peak {phase['peak_traced_kb']:.0f} KiB"
            if phase.get("rss_kb"):
                mem += f"  rss {phase['rss_kb']} KiB"
            # Clamp the name column: at depth >= 14 the shrinking
            # field width would go non-positive, and a negative width
            # is a ValueError in format().
            width = max(1, 28 - 2 * depth)
            lines.append(f"  {'  ' * depth}{phase['name']:<{width}} "
                         f"{phase['seconds']:>9.4f}s{mem}")
            emit(phase.get("children", []), depth + 1)

    emit(doc.get("phases", []), 0)
    counters = doc.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(k) for k in counters)
        for key in sorted(counters):
            lines.append(f"  {key:<{width}} {counters[key]:>12}")
    gauges = doc.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(k) for k in gauges)
        for key in sorted(gauges):
            lines.append(f"  {key:<{width}} {gauges[key]:>12}")
    return "\n".join(lines)
