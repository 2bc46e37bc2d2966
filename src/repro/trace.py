"""Structured event tracing and derivation provenance (``repro.trace``).

Where :mod:`repro.obs` answers "how much / how long?", this module
answers "*why*?": it records **derivations**, not counts. A
:class:`Tracer` collects typed events from the pipeline:

- ``derive``    — the sparse solver first introduced a points-to fact
  (a ``(variable, object)`` or ``(memory state, object)`` pair), with
  the rule that fired, the node it fired at, and the *trigger fact*
  the new fact was derived from;
- ``vf.pair``   — a [THREAD-VF] candidate pair verdict from the
  value-flow phase: ``mhp-refuted``, ``lock-filtered`` (with the
  witnessing lock), or ``edge-added`` (with the MHP witness threads);
- ``mhp.seed`` / ``mhp.spawn`` / ``mhp.kill`` — the interleaving
  analysis' fork/join/sibling classifications per thread;
- ``lock.span`` / ``lock.head`` / ``lock.tail`` — lock-release span
  construction and the Definition 4/5 head/tail decisions.

The trigger-fact links form a provenance graph over facts: following
them from any fact walks a derivation chain down to an ``AddrOf``
root (surfaced by ``repro explain``, see :mod:`repro.fsam.explain`).

Mirroring ``Observer``/``NULL_OBS``, a shared no-op
:data:`NULL_TRACER` is the default everywhere, so hot paths may call
the tracer unconditionally and tracing off costs nothing (guarded by
``benchmarks/test_observability_overhead.py``). Events live in a
bounded in-memory ring buffer (oldest dropped first) and export as
JSONL (schema ``repro.trace/1``, checked by :func:`validate_trace`).

This module is a leaf like ``repro.obs``: apart from the shared
:mod:`repro.schemas` constants module it imports nothing from the
rest of ``repro``, so every stage can depend on it without cycles.
"""

from __future__ import annotations

import io
import json
from collections import deque
from typing import (
    Dict, Iterable, List, NamedTuple, Optional, TextIO, Tuple,
)

from repro.schemas import TRACE_SCHEMA

#: Default ring-buffer capacity: large enough for every derivation of
#: the bundled workloads, small enough to bound memory on runaways.
DEFAULT_CAPACITY = 1 << 16


# -- fact keys --------------------------------------------------------------
#
# Provenance is keyed by hashable *fact keys* built from stable ids
# (never from Python object identity, which GC address reuse breaks —
# the PR 1 bug class):
#
#   ("top", var_id, obj_id)             — obj ∈ pt(top-level var)
#   ("mem", node_uid, container_id, obj_id)
#                                       — obj ∈ the container's memory
#                                         state defined at a DUG node


def top_fact(var_id: int, obj_id: int) -> Tuple[str, int, int]:
    """Fact key for ``obj ∈ pt(var)`` of a top-level variable."""
    return ("top", var_id, obj_id)


def mem_fact(node_uid: int, container_id: int, obj_id: int
             ) -> Tuple[str, int, int, int]:
    """Fact key for ``obj ∈ state(container)`` defined at a DUG node."""
    return ("mem", node_uid, container_id, obj_id)


class Derivation(NamedTuple):
    """Why a fact first became true (first-introduction semantics).

    ``rule`` names the transfer rule that fired (``addr``, ``copy``,
    ``phi``, ``gep``, ``load``, ``store-strong``, ``store-weak``,
    ``store-through``, ``mem-phi``, ``formal-in``, ``formal-out``,
    ``call-chi``, ``fork-handle``, ...); ``origin`` is
    the DUG node / value the rule fired at; ``trigger`` is the fact
    key the new fact was derived from (None for roots such as
    ``AddrOf``); ``thread_edge`` marks derivations that travelled a
    [THREAD-VF] edge, with ``edge`` holding the
    ``(src_uid, obj_id, dst_uid)`` key for the DUG's admission-verdict
    lookup."""

    rule: str
    origin: Optional[object]
    trigger: Optional[Tuple]
    thread_edge: bool = False
    edge: Optional[Tuple[int, int, int]] = None

    @property
    def is_root(self) -> bool:
        return self.trigger is None


# -- the tracer -------------------------------------------------------------


class Tracer:
    """Collects typed events for one pipeline run into a ring buffer.

    Events are plain dicts with an ``ev`` kind, a monotonically
    increasing ``seq``, and kind-specific JSON-able fields. When the
    buffer is full the *oldest* events are dropped (the header of the
    JSONL export records how many), so a bounded tracer always keeps
    the most recent — and usually most interesting — window.
    """

    enabled = True

    def __init__(self, name: str = "",
                 capacity: Optional[int] = DEFAULT_CAPACITY,
                 sink: Optional[TextIO] = None) -> None:
        self.name = name
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.emitted = 0
        # Optional streaming sink: every event is also written as one
        # JSONL line immediately (never dropped), for traces larger
        # than any reasonable ring buffer.
        self.sink = sink

    def emit(self, ev: str, **fields: object) -> None:
        """Record one event of kind *ev* (fields must be JSON-able)."""
        self.emitted += 1
        fields["ev"] = ev
        fields["seq"] = self.emitted
        self.events.append(fields)
        if self.sink is not None:
            json.dump(fields, self.sink, sort_keys=True)
            self.sink.write("\n")

    @property
    def dropped(self) -> int:
        return self.emitted - len(self.events)

    def kinds(self) -> Dict[str, int]:
        """Retained event counts by kind (a quick summary view)."""
        out: Dict[str, int] = {}
        for event in self.events:
            kind = str(event["ev"])
            out[kind] = out.get(kind, 0) + 1
        return out

    # -- export -----------------------------------------------------------

    def header(self) -> Dict[str, object]:
        return {
            "schema": TRACE_SCHEMA,
            "name": self.name,
            "events": len(self.events),
            "emitted": self.emitted,
            "dropped": self.dropped,
        }

    def write_jsonl(self, fp: TextIO) -> None:
        """One header line, then one line per retained event."""
        json.dump(self.header(), fp, sort_keys=True)
        fp.write("\n")
        for event in self.events:
            json.dump(event, fp, sort_keys=True)
            fp.write("\n")

    def to_jsonl(self) -> str:
        buffer = io.StringIO()
        self.write_jsonl(buffer)
        return buffer.getvalue()


class NullTracer(Tracer):
    """A no-op tracer: emitting is free, so instrumented call sites
    never need an ``if tracing`` guard of their own for plain emits
    (sites that must *compute* event fields should still guard on
    ``tracer.enabled``)."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(name="", capacity=0)

    def emit(self, ev: str, **fields: object) -> None:
        pass


#: Shared no-op instance; stages default to it when no tracer is given.
NULL_TRACER = NullTracer()


# -- schema -----------------------------------------------------------------


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"invalid trace document: {message}")


def validate_trace(lines: Iterable[Dict[str, object]]) -> int:
    """Check a parsed JSONL trace (header dict + event dicts) against
    the ``repro.trace/1`` schema; returns the event count.

    Raises :class:`ValueError` with a pointed message on the first
    violation (same contract as ``repro.obs.validate_profile`` — no
    external jsonschema dependency)."""
    iterator = iter(lines)
    header = next(iterator, None)
    _check(isinstance(header, dict), "missing header line")
    assert isinstance(header, dict)
    _check(header.get("schema") == TRACE_SCHEMA,
           f"schema is {header.get('schema')!r}, expected {TRACE_SCHEMA!r}")
    _check(isinstance(header.get("name"), str), "header name is not a string")
    for key in ("events", "emitted", "dropped"):
        value = header.get(key)
        _check(isinstance(value, int) and value >= 0,
               f"header {key} is not a non-negative integer")
    _check(header["emitted"] >= header["events"],  # type: ignore[operator]
           "header emitted < events")
    count = 0
    last_seq = 0
    for event in iterator:
        _check(isinstance(event, dict), f"event {count} is not an object")
        assert isinstance(event, dict)
        kind = event.get("ev")
        _check(isinstance(kind, str) and kind != "",
               f"event {count} lacks an ev kind")
        seq = event.get("seq")
        _check(isinstance(seq, int) and seq > last_seq,
               f"event {count} seq {seq!r} is not increasing")
        last_seq = seq  # type: ignore[assignment]
        count += 1
    _check(count == header["events"],
           f"header says {header['events']} events, found {count}")
    return count


def validate_trace_jsonl(text: str) -> int:
    """Parse and validate a JSONL trace document; returns event count."""
    lines = []
    for i, raw in enumerate(text.splitlines()):
        if not raw.strip():
            continue
        try:
            lines.append(json.loads(raw))
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"invalid trace document: line {i + 1} is not JSON ({exc})")
    return validate_trace(lines)


# -- Chrome-trace / Perfetto export ----------------------------------------


def profile_to_chrome(doc: Dict[str, object]) -> Dict[str, object]:
    """Render a ``repro.obs/1`` profile's phase tree as Chrome
    trace-event JSON (loadable in ``chrome://tracing`` / Perfetto).

    The obs schema stores durations, not start timestamps, so phases
    are laid out sequentially: each phase starts where its previous
    sibling ended, children start at their parent's start. That
    matches how the pipeline actually runs (phases are serial) and
    renders as the familiar nested flame chart.
    """
    events: List[Dict[str, object]] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
        "args": {"name": str(doc.get("name") or "repro")},
    }]

    def emit(phases: List[Dict[str, object]], start_us: float) -> None:
        cursor = start_us
        for phase in phases:
            duration_us = float(phase["seconds"]) * 1e6  # type: ignore[arg-type]
            events.append({
                "name": str(phase["name"]),
                "ph": "X", "cat": "phase", "pid": 1, "tid": 1,
                "ts": round(cursor, 3), "dur": round(duration_us, 3),
                "args": {
                    "peak_traced_kb": phase.get("peak_traced_kb", 0.0),
                    "rss_kb": phase.get("rss_kb"),
                },
            })
            emit(phase.get("children", []), cursor)  # type: ignore[arg-type]
            cursor += duration_us

    emit(doc.get("phases", []), 0.0)  # type: ignore[arg-type]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
