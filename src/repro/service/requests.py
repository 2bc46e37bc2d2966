"""Analysis requests, their content-addressed digests, and the batch
spec format.

A batch spec (``repro batch <spec.json>``) is one JSON object::

    {
      "workers": 4,                // optional, CLI flag overrides
      "cache": ".repro-cache",     // optional cache directory
      "timeout": 60,               // optional per-request wall clock
      "requests": [
        {"workload": "word_count", "scale": 1},
        {"file": "examples/fig1a.mc"},
        {"name": "inline", "source": "int main() { return 0; }",
         "config": {"interleaving": false}, "timeout": 5}
      ]
    }

Each request entry names its program exactly one way: a registered
``workload`` (with optional ``scale``), a MiniC ``file`` path
(relative to the spec's directory), or inline ``source`` text.
``workers`` is a positive integer, a ``timeout`` a positive number of
seconds (or null), ``cache`` a directory path, and a workload's
``scale`` an integer from 0 (the workload's default) to
:data:`MAX_SCALE`; ``true`` is none of them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fsam.config import FSAMConfig
from repro.schemas import CODE_VERSION
from repro.service.digest import canonical_digest

#: The largest workload ``scale`` a request may ask for. The source is
#: generated before the scanner's ``MAX_SOURCE_CHARS`` bound can refuse
#: it, so the bound comes first: every registered workload at this
#: scale fits ``MAX_SOURCE_CHARS`` (httpd_server, the largest per unit,
#: first exceeds it at 272).
MAX_SCALE = 256


def request_digest(source: str, config: FSAMConfig,
                   code_version: str = CODE_VERSION) -> str:
    """The cache key: SHA-256 over (program source, the fixpoint-
    determining config fields, code version). Name, timeouts, and
    observability toggles deliberately do not participate — they
    change how a run is executed or reported, never what it computes.
    """
    return canonical_digest({
        "source": source,
        "config": config.cache_key_dict(),
        "code_version": code_version,
    })


def function_digest(fn_text: str, callee_summaries: List[List[str]],
                    config: FSAMConfig,
                    code_version: str = CODE_VERSION) -> str:
    """The second digest level: one function's per-function cache key.

    SHA-256 over the function's canonical printed IR, the sorted
    ``[callee name, mod-ref signature]`` pairs of every routine its
    calls/forks/joins can reach (per the Andersen call graph), and the
    same config/code-version fields as :func:`request_digest`. A hit
    means nothing that can change this function's local value flow —
    its own body or any callee's memory side effects — has moved.
    """
    return canonical_digest({
        "function": fn_text,
        "callees": callee_summaries,
        "config": config.cache_key_dict(),
        "code_version": code_version,
    })


@dataclass
class AnalysisRequest:
    """One unit of batch work: a named MiniC source plus its config.

    ``timeout`` is the *parent-enforced* per-attempt wall-clock limit
    (the worker process is killed past it); ``config.time_budget`` is
    the cooperative in-process budget (the solver raises
    ``AnalysisTimeout`` past it). Either exhaustion walks the same
    degradation ladder.
    """

    name: str
    source: str
    config: FSAMConfig = field(default_factory=FSAMConfig)
    timeout: Optional[float] = None
    #: Span identifier assigned by the dispatcher (batch: ``rNNNN`` in
    #: request order, the gateway and serve: ``gNNNN`` per job). Names the
    #: worker-side Observer so its telemetry snapshot can be tied back
    #: to the request; like ``name``/``timeout``, it never enters the
    #: content digest.
    request_id: Optional[str] = None

    def digest(self) -> str:
        return request_digest(self.source, self.config)

    # -- wire form (crosses process boundaries under any start method) --

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "source": self.source,
            "config": self.config.to_dict(),
            "timeout": self.timeout,
            "request_id": self.request_id,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "AnalysisRequest":
        return cls(
            name=payload["name"],                              # type: ignore[arg-type]
            source=payload["source"],                          # type: ignore[arg-type]
            config=FSAMConfig.from_dict(payload["config"]),    # type: ignore[arg-type]
            timeout=payload.get("timeout"),                    # type: ignore[arg-type]
            request_id=payload.get("request_id"),              # type: ignore[arg-type]
        )


@dataclass
class QueryRequest:
    """One demand query: a program (an ordinary :class:`AnalysisRequest`
    carrying the source + config) plus the queried variable. ``obj``
    flips the answer from "what does *var* point to" to "what may the
    abstract object named *var* contain"."""

    request: AnalysisRequest
    var: str
    line: Optional[int] = None
    obj: bool = False


def query_from_entry(entry: Dict[str, object],
                     base_dir: str = ".") -> QueryRequest:
    """An ``{"op": "query", ...}`` spec entry -> QueryRequest.

    The program half uses the same keys as an analysis entry
    (workload | file | source, config, timeout); the query half is
    checked by :func:`query_target`."""
    if not isinstance(entry, dict):
        raise ValueError(f"query entry is not an object: {entry!r}")
    var, line, obj = query_target(entry)
    program_entry = {key: value for key, value in entry.items()
                     if key not in ("op", "var", "line", "obj")}
    request = request_from_entry(program_entry, base_dir=base_dir)
    return QueryRequest(request=request, var=var, line=line, obj=obj)


def query_target(entry: Dict[str, object]
                 ) -> Tuple[str, Optional[int], bool]:
    """The ``(var, line, obj)`` half of a query entry: ``var`` a
    non-empty string (required), ``line`` an integer or null, ``obj``
    a boolean (default false). A JSON ``true`` is not a line. Raises
    ``ValueError`` on anything else."""
    var = entry.get("var")
    if not isinstance(var, str) or not var:
        raise ValueError("query entries need a non-empty 'var' string")
    line = entry.get("line")
    if line is not None and (isinstance(line, bool)
                             or not isinstance(line, int)):
        raise ValueError(f"query line is not an integer: {line!r}")
    obj = entry.get("obj", False)
    if not isinstance(obj, bool):
        raise ValueError(f"query obj is not a boolean: {obj!r}")
    return var, line, obj


def _positive(key: str, value: object, kind) -> None:
    """Refuse *value* of *key* unless it is a positive *kind* (``int``,
    or ``(int, float)`` for seconds); a JSON ``true`` is not a number."""
    if isinstance(value, bool) or not isinstance(value, kind) \
            or not value > 0:
        noun = "integer" if kind is int else "number"
        raise ValueError(f"{key} is not a positive {noun}: {value!r}")


def request_from_entry(entry: Dict[str, object],
                       base_dir: str = ".") -> AnalysisRequest:
    """One spec or JSONL request entry -> :class:`AnalysisRequest` (see
    the module docstring for the entry forms)."""
    if not isinstance(entry, dict):
        raise ValueError(f"request entry is not an object: {entry!r}")
    program_keys = [key for key in ("workload", "file", "source")
                    if key in entry]
    if len(program_keys) != 1:
        raise ValueError(
            "request entry must name its program exactly one way "
            f"(workload | file | source), got {program_keys or 'none'}")
    config = FSAMConfig.from_dict(entry.get("config", {}))  # type: ignore[arg-type]
    timeout = entry.get("timeout")
    if timeout is not None:
        _positive("timeout", timeout, (int, float))
    if "workload" in entry:
        from repro.workloads import get_workload
        workload = get_workload(str(entry["workload"]))
        scale = entry.get("scale", 0)
        if isinstance(scale, bool) or not isinstance(scale, int) \
                or not 0 <= scale <= MAX_SCALE:
            raise ValueError(f"scale is not an integer from 0 to "
                             f"{MAX_SCALE}: {scale!r}")
        name = str(entry.get("name", workload.name))
        source = workload.source(scale)
    elif "file" in entry:
        path = os.path.join(base_dir, str(entry["file"]))
        with open(path) as handle:
            source = handle.read()
        name = str(entry.get("name", entry["file"]))
    else:
        source = str(entry["source"])
        if "name" not in entry:
            raise ValueError("inline-source request entries need a name")
        name = str(entry["name"])
    return AnalysisRequest(name=name, source=source, config=config,
                           timeout=timeout)  # type: ignore[arg-type]


def requests_from_spec(spec: Dict[str, object], base_dir: str = "."
                       ) -> Tuple[List[AnalysisRequest], Dict[str, object]]:
    """Parse a batch spec document. Returns ``(requests, options)``
    where options holds the spec-level ``workers`` / ``cache`` /
    ``timeout`` settings (CLI flags override them). Entries tagged
    ``"op": "query"`` are split out as :class:`QueryRequest` objects
    under ``options["queries"]``; the demand engine answers them."""
    if not isinstance(spec, dict):
        raise ValueError("batch spec is not a JSON object")
    if "workers" in spec:
        _positive("workers", spec["workers"], int)
    if spec.get("timeout") is not None:
        _positive("timeout", spec["timeout"], (int, float))
    if "cache" in spec and not isinstance(spec["cache"], str):
        raise ValueError(
            f"cache is not a directory path: {spec['cache']!r}")
    entries = spec.get("requests")
    if not isinstance(entries, list) or not entries:
        raise ValueError("batch spec needs a non-empty 'requests' list")
    requests: List[AnalysisRequest] = []
    queries: List[QueryRequest] = []
    for entry in entries:
        op = entry.get("op", "analyze") if isinstance(entry, dict) else None
        if op == "query":
            queries.append(query_from_entry(entry, base_dir=base_dir))
        elif op == "analyze":
            requests.append(request_from_entry(entry, base_dir=base_dir))
        else:
            raise ValueError(f"unknown request op: {op!r}")
    options = {key: spec[key] for key in ("workers", "cache", "timeout")
               if key in spec}
    if queries:
        options["queries"] = queries
    return requests, options
