"""Schema-version constants shared by every emitter and validator.

Each machine-readable document the pipeline produces carries a
``schema`` tag so downstream consumers can reject documents they do
not understand. The literals used to be duplicated across the
emitting modules; this module is the single source of truth:

- ``repro.obs/1``      — observability profiles (:mod:`repro.obs`)
- ``repro.trace/1``    — event traces (:mod:`repro.trace`)
- ``repro.bench/1``    — benchmark snapshots (``benchmarks/run_bench.py``)
- ``repro.artifact/2`` — cached analysis artifacts: the fixpoint's
  answers keyed by program position (top-level sets, the state after
  each store, each object's union), never by def-use graph node
  (:mod:`repro.service.artifacts`)
- ``repro.funcartifact/1`` — per-function artifact sub-documents for
  incremental analysis (:mod:`repro.service.incremental`)
- ``repro.batch/1``    — batch reports (:mod:`repro.service.batch`)
- ``repro.metrics/1``  — service telemetry snapshots: counters,
  gauges, mergeable latency histograms, and flattened phase times
  (:mod:`repro.obs`)
- ``repro.gwframe/1``  — gateway streaming response frames: the
  progressive-result wire format spoken by the analysis gateway over
  HTTP chunks and framed JSONL (:mod:`repro.gateway.protocol`)

``CODE_VERSION`` participates in the content-addressed cache key
(see :mod:`repro.service.cache`): bump it whenever an analysis change
makes previously cached artifacts stale — cached results from an
older code version then miss instead of being served.

This module is a pure leaf (it imports nothing at all), so the other
leaf modules (:mod:`repro.obs`, :mod:`repro.trace`) may depend on it
without creating cycles.
"""

from __future__ import annotations

PROFILE_SCHEMA = "repro.obs/1"
TRACE_SCHEMA = "repro.trace/1"
BENCH_SCHEMA = "repro.bench/1"
ARTIFACT_SCHEMA = "repro.artifact/2"
FUNC_ARTIFACT_SCHEMA = "repro.funcartifact/1"
BATCH_SCHEMA = "repro.batch/1"
METRICS_SCHEMA = "repro.metrics/1"
GWFRAME_SCHEMA = "repro.gwframe/1"

#: Version of the analysis semantics + artifact format. Part of the
#: artifact cache key: bumping it invalidates every cached artifact.
CODE_VERSION = "fsam-1.1.0/artifact-2"
