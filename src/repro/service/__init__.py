"""Analysis service (``repro.service``).

Turns the single-shot FSAM pipeline into a servable system:

- :mod:`repro.service.artifacts` — canonical, process-independent
  serialization of an analysis result (``repro.artifact/2``);
- :mod:`repro.service.cache` — a content-addressed disk cache keyed
  by digest(source, config, code version), so warm re-runs skip the
  solver entirely;
- :mod:`repro.service.runner` — one request end to end, including
  the degradation ladder (full FSAM -> Andersen-only ``degraded``
  result) that every front end walks;
- :mod:`repro.service.shards` — the shard workers, the only code that
  spawns analysis processes: per-job wall-clock deadlines and
  respawn under the gateway's :class:`ShardPool`;
- :mod:`repro.service.batch` — the batch driver: one in-process
  gateway session (the path ``repro serve`` takes) and one
  aggregated ``repro.batch/1`` report;
- :mod:`repro.service.incremental` — function-granular incremental
  analysis over the cache's per-function artifact store
  (``repro.funcartifact/1``): warm requests whose program digest
  misses reuse the previous fixpoint for unchanged functions and
  re-solve only downstream of the edit;
- :mod:`repro.service.digest` — the one canonical-JSON sha256 every
  service cache key goes through;
- demand queries (``op: query`` entries, ``repro query``) — answered
  by :class:`repro.service.runner.QueryRunner` over backward DUG
  slices, cached per query in the ``repro.queryartifact/1`` store
  under ``<cache>/query``.

Every request runs as a telemetry span (deterministic request id,
own Observer in the shard); cache-miss span snapshots merge
back into a ``repro.metrics/1`` rollup — mergeable latency
histograms, cross-request per-phase distributions, cache hit-rate
gauges — embedded in batch reports and streamed live by
``repro serve`` / ``repro gateway --metrics-interval`` (see DESIGN.md
"Service telemetry"; rendered by ``repro report``).
"""

from repro.service.artifacts import (
    AnalysisArtifact, artifact_from_andersen, artifact_from_query,
    artifact_from_result, validate_artifact, validate_funcartifact,
    validate_queryartifact,
)
from repro.service.batch import (
    BatchReport, render_batch_report, run_batch, validate_batch_report,
)
from repro.service.cache import (
    ArtifactCache, FuncArtifactStore, QueryArtifactStore,
)
from repro.service.digest import canonical_digest, query_digest
from repro.service.requests import (
    AnalysisRequest, QueryRequest, function_digest, request_digest,
)
from repro.service.runner import (
    QueryRunner, RequestOutcome, run_request_inline,
)
from repro.service.shards import ShardPool

__all__ = [
    "AnalysisArtifact", "artifact_from_result", "artifact_from_andersen",
    "artifact_from_query",
    "validate_artifact", "validate_funcartifact", "validate_queryartifact",
    "ArtifactCache", "FuncArtifactStore", "QueryArtifactStore",
    "AnalysisRequest", "QueryRequest", "request_digest", "function_digest",
    "canonical_digest", "query_digest",
    "RequestOutcome", "run_request_inline", "QueryRunner",
    "ShardPool",
    "BatchReport", "run_batch", "render_batch_report",
    "validate_batch_report",
]
