"""Canonical analysis artifacts (schema ``repro.artifact/1``).

An artifact is the serializable residue of one analysis run: the
points-to fixpoint (top-level and per-definition memory states), the
store update classification, the object table, and the run's summary
statistics. It is what the content-addressed cache stores and
what the batch report aggregates.

The representation problem: every id in the live solver state —
``Temp.id``, ``MemObject.id``, ``DUGNode.uid``, ``Instruction.id`` —
comes from a *process-global* counter, so the same program analysed
twice in one process (or at different points of two processes) yields
different raw keys for identical facts. Artifacts therefore renumber
everything canonically:

- **objects** by their :class:`~repro.pts.PTUniverse` dense index
  (first-sight order during the pipeline, deterministic);
- **temps** by :func:`repro.ir.module.canonical_temp_index` (program
  order of first occurrence);
- **DUG nodes** by position in ``dug.nodes`` (creation order);
- **instructions** by program order.

Bitmasks are already canonical (bits are universe indices) and are
serialized as hex via :func:`repro.pts.mask_to_hex`. The result: two
runs of the same (source, config) produce *byte-identical* payloads
in any process — pinned by ``tests/service/test_determinism.py``
across interpreters with different ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.pts import mask_to_hex
from repro.schemas import (
    ARTIFACT_SCHEMA, CODE_VERSION, FUNC_ARTIFACT_SCHEMA,
    QUERY_ARTIFACT_SCHEMA,
)

#: Valid store update classes (mirrors repro.fsam.solver constants).
_STORE_CLASSES = ("kill", "pass", "strong", "weak")


@dataclass
class AnalysisArtifact:
    """One request's serialized result. All maps use canonical keys
    (see the module docstring) and hex-string bitmasks."""

    name: str
    degraded: bool = False
    degraded_reason: Optional[str] = None
    objects: List[Dict[str, object]] = field(default_factory=list)
    pts_top: Dict[str, str] = field(default_factory=dict)
    mem: Dict[str, str] = field(default_factory=dict)
    store_classes: Dict[str, str] = field(default_factory=dict)
    summary: Dict[str, object] = field(default_factory=dict)
    code_version: str = CODE_VERSION

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": ARTIFACT_SCHEMA,
            "code_version": self.code_version,
            "name": self.name,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "objects": self.objects,
            "pts_top": self.pts_top,
            "mem": self.mem,
            "store_classes": self.store_classes,
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "AnalysisArtifact":
        validate_artifact(doc)
        return cls(
            name=doc["name"],                              # type: ignore[arg-type]
            degraded=doc["degraded"],                      # type: ignore[arg-type]
            degraded_reason=doc.get("degraded_reason"),    # type: ignore[arg-type]
            objects=doc["objects"],                        # type: ignore[arg-type]
            pts_top=doc["pts_top"],                        # type: ignore[arg-type]
            mem=doc["mem"],                                # type: ignore[arg-type]
            store_classes=doc["store_classes"],            # type: ignore[arg-type]
            summary=doc["summary"],                        # type: ignore[arg-type]
            code_version=doc["code_version"],              # type: ignore[arg-type]
        )

    def payload_digest(self) -> str:
        """SHA-256 over the *semantic* payload only — the fixpoint
        maps and object table, not the name or summary. Equal digests
        mean bit-identical analysis results; the determinism guard
        asserts this is stable across interpreter processes."""
        payload = {
            "degraded": self.degraded,
            "objects": self.objects,
            "pts_top": self.pts_top,
            "mem": self.mem,
            "store_classes": self.store_classes,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def solver_iterations(self) -> int:
        value = self.summary.get("solver_iterations", 0)
        return int(value) if isinstance(value, (int, float)) else 0


def artifact_from_result(name: str, result) -> AnalysisArtifact:
    """Build the full artifact from a completed
    :class:`~repro.fsam.analysis.FSAMResult`."""
    from repro.fsam.solver import store_update_classes
    from repro.ir.module import canonical_instr_index

    universe = result.solver.universe
    pts_top = {str(idx): mask_to_hex(mask)
               for idx, mask in sorted(result.pts_top_masks().items())}
    mem = {key: mask_to_hex(mask)
           for key, mask in sorted(result.mem_masks().items())}

    instr_index = canonical_instr_index(result.module)
    store_classes: Dict[str, str] = {}
    for (instr_id, obj_id), cls in store_update_classes(result.solver).items():
        obj_idx = universe.index_of_id(obj_id)
        if obj_idx is None:
            continue  # object never entered any points-to set
        store_classes[f"{instr_index[instr_id]}:{obj_idx}"] = cls

    stats = result.stats()
    summary = {
        "points_to_entries": stats["points_to_entries"],
        "dug_nodes": stats["dug_nodes"],
        "dug_mem_edges": stats["dug_mem_edges"],
        "thread_aware_edges": stats["thread_aware_edges"],
        "threads": stats["threads"],
        "solver_iterations": stats["solver_iterations"],
    }
    incremental = getattr(result, "incremental_stats", None)
    if incremental is not None:
        # Rides in the summary, which payload_digest() excludes: a
        # warm run's artifact stays bit-identical to a cold run's.
        summary["incremental"] = incremental
    return AnalysisArtifact(
        name=name,
        objects=universe.object_table(),
        pts_top=pts_top,
        mem=mem,
        store_classes=store_classes,
        summary=summary,
    )


def artifact_from_andersen(name: str, module, andersen,
                           reason: str = "budget-exhausted"
                           ) -> AnalysisArtifact:
    """The degraded (Andersen-only) artifact: flow-insensitive
    top-level points-to sets, no per-definition memory states, no
    store classification. The last rung of the degradation ladder —
    a batch never fails outright, it returns this instead."""
    universe = andersen.universe
    pts_top = _degraded_pts_top(module, andersen)
    entries = sum(bin(int(m, 16)).count("1") for m in pts_top.values())
    return AnalysisArtifact(
        name=name,
        degraded=True,
        degraded_reason=reason,
        objects=universe.object_table(),
        pts_top=pts_top,
        summary={"points_to_entries": entries, "solver_iterations": 0},
    )


def _degraded_pts_top(module, andersen) -> Dict[str, str]:
    from repro.ir.module import canonical_temps

    out: Dict[str, str] = {}
    for idx, temp in enumerate(canonical_temps(module)):
        pts = andersen.pts(temp)
        if pts:
            out[str(idx)] = mask_to_hex(pts.mask)
    return out


def artifact_from_query(program_digest: str, slice_signature: str,
                        query_result) -> Dict[str, object]:
    """Serialize one demand-query answer (``repro.queryartifact/1``).

    The *disk key* is the request (program digest + query spec, see
    :func:`repro.service.digest.query_digest`) so a warm hit needs no
    pipeline at all; the *slice signature* — the canonical identity of
    the backward DUG slice the answer was solved on — is recorded
    inside the document, both for diagnostics and so a reader can tell
    whether two query artifacts were answered from the same sub-DUG.
    The answer mask is over the program's canonical object table and
    already bit-identical to the whole-program fixpoint (the demand
    engine's contract), so names alone are enough for consumers.
    """
    return {
        "schema": QUERY_ARTIFACT_SCHEMA,
        "code_version": CODE_VERSION,
        "program_digest": program_digest,
        "query": {
            "var": query_result.name,
            "line": query_result.line,
            "obj": query_result.obj_query,
        },
        "slice_signature": slice_signature,
        "slice_nodes": query_result.slice_nodes,
        "slice_temps": query_result.slice_temps,
        "slice_fraction": round(query_result.slice_fraction, 6),
        "iterations": query_result.iterations,
        "answer": {
            "mask": mask_to_hex(query_result.mask),
            "names": query_result.names(),
        },
    }


# -- schema -----------------------------------------------------------------


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"invalid artifact document: {message}")


def _check_mask_map(value: object, what: str) -> None:
    _check(isinstance(value, dict), f"{what} is not an object")
    assert isinstance(value, dict)
    for key, mask in value.items():
        _check(isinstance(key, str), f"{what} key {key!r} is not a string")
        _check(isinstance(mask, str), f"{what}[{key}] is not a hex string")
        try:
            int(mask, 16)
        except (TypeError, ValueError):
            _check(False, f"{what}[{key}] is not valid hex: {mask!r}")


def validate_artifact(doc: object) -> Dict[str, object]:
    """Check *doc* against ``repro.artifact/1``; returns it unchanged
    (same contract as :func:`repro.obs.validate_profile`)."""
    _check(isinstance(doc, dict), "top level is not an object")
    assert isinstance(doc, dict)
    _check(doc.get("schema") == ARTIFACT_SCHEMA,
           f"schema is {doc.get('schema')!r}, expected {ARTIFACT_SCHEMA!r}")
    _check(isinstance(doc.get("code_version"), str) and doc["code_version"],
           "code_version missing")
    _check(isinstance(doc.get("name"), str), "name is not a string")
    _check(isinstance(doc.get("degraded"), bool), "degraded is not a bool")
    reason = doc.get("degraded_reason")
    _check(reason is None or isinstance(reason, str),
           "degraded_reason is not a string")
    objects = doc.get("objects")
    _check(isinstance(objects, list), "objects is not a list")
    assert isinstance(objects, list)
    for i, obj in enumerate(objects):
        _check(isinstance(obj, dict)
               and isinstance(obj.get("name"), str)
               and isinstance(obj.get("kind"), str),
               f"objects[{i}] lacks name/kind strings")
    _check_mask_map(doc.get("pts_top"), "pts_top")
    _check_mask_map(doc.get("mem"), "mem")
    classes = doc.get("store_classes")
    _check(isinstance(classes, dict), "store_classes is not an object")
    assert isinstance(classes, dict)
    for key, cls in classes.items():
        _check(cls in _STORE_CLASSES,
               f"store_classes[{key}] has unknown class {cls!r}")
    _check(isinstance(doc.get("summary"), dict), "summary is not an object")
    return doc


def validate_funcartifact(doc: object) -> Dict[str, object]:
    """Check *doc* against ``repro.funcartifact/1``; returns it
    unchanged. A funcartifact is one function's share of a solved
    fixpoint, keyed by doc-*local* indices: ``objects`` is the local
    object-key table, ``top`` maps local canonical temp index to a hex
    mask over that table, and ``mem`` maps ``"<local node
    idx>:<local obj idx>"`` rows likewise."""
    _check(isinstance(doc, dict), "top level is not an object")
    assert isinstance(doc, dict)
    _check(doc.get("schema") == FUNC_ARTIFACT_SCHEMA,
           f"schema is {doc.get('schema')!r}, "
           f"expected {FUNC_ARTIFACT_SCHEMA!r}")
    _check(isinstance(doc.get("code_version"), str) and doc["code_version"],
           "code_version missing")
    _check(isinstance(doc.get("function"), str) and doc["function"],
           "function name missing")
    for key in ("digest", "context_sig"):
        _check(isinstance(doc.get(key), str) and doc[key],
               f"{key} missing")
    objects = doc.get("objects")
    _check(isinstance(objects, list), "objects is not a list")
    assert isinstance(objects, list)
    for i, obj_key in enumerate(objects):
        _check(isinstance(obj_key, str) and ":" in obj_key,
               f"objects[{i}] is not a kind:name key")
    _check_mask_map(doc.get("top"), "top")
    _check_mask_map(doc.get("mem"), "mem")
    return doc


def validate_queryartifact(doc: object) -> Dict[str, object]:
    """Check *doc* against ``repro.queryartifact/1``; returns it
    unchanged."""
    _check(isinstance(doc, dict), "top level is not an object")
    assert isinstance(doc, dict)
    _check(doc.get("schema") == QUERY_ARTIFACT_SCHEMA,
           f"schema is {doc.get('schema')!r}, "
           f"expected {QUERY_ARTIFACT_SCHEMA!r}")
    _check(isinstance(doc.get("code_version"), str) and doc["code_version"],
           "code_version missing")
    for key in ("program_digest", "slice_signature"):
        _check(isinstance(doc.get(key), str) and doc[key],
               f"{key} missing")
    query = doc.get("query")
    _check(isinstance(query, dict), "query is not an object")
    assert isinstance(query, dict)
    _check(isinstance(query.get("var"), str) and query["var"],
           "query.var missing")
    line = query.get("line")
    _check(line is None or isinstance(line, int),
           "query.line is neither null nor an integer")
    _check(isinstance(query.get("obj"), bool), "query.obj is not a bool")
    for key in ("slice_nodes", "slice_temps", "iterations"):
        value = doc.get(key)
        _check(isinstance(value, int) and not isinstance(value, bool)
               and value >= 0, f"{key} is not a non-negative integer")
    fraction = doc.get("slice_fraction")
    _check(isinstance(fraction, (int, float))
           and not isinstance(fraction, bool) and 0 <= fraction <= 1,
           "slice_fraction is not in [0, 1]")
    answer = doc.get("answer")
    _check(isinstance(answer, dict), "answer is not an object")
    assert isinstance(answer, dict)
    mask = answer.get("mask")
    _check(isinstance(mask, str), "answer.mask is not a hex string")
    try:
        int(mask, 16)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        _check(False, f"answer.mask is not valid hex: {mask!r}")
    names = answer.get("names")
    _check(isinstance(names, list)
           and all(isinstance(name, str) for name in names),
           "answer.names is not a list of strings")
    return doc
