"""Canonical analysis artifacts (schema ``repro.artifact/2``).

An artifact is the serializable residue of one analysis run: the
answers of the points-to fixpoint at program positions (top-level
sets, the memory state after each store, and each object's
whole-program union), the store update classification, the object
table, and the run's summary statistics. It is what the
content-addressed cache stores and what the batch report aggregates.
No key names a def-use graph node, so a change to memory SSA that
keeps the answers keeps the payload digest.

The representation problem: the ids ``Temp.id``, ``MemObject.id``
and ``Instruction.id`` in the live solver state come from
*process-global* counters, so the same program analysed twice in one
process (or at different points of two processes) yields different
raw keys for identical facts. Artifacts therefore renumber them
canonically:

- **objects** by their :class:`~repro.pts.PTUniverse` dense index
  (first-sight order during the pipeline, deterministic);
- **temps** by :func:`repro.ir.module.canonical_temp_index` (program
  order of first occurrence);
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
from repro.schemas import ARTIFACT_SCHEMA, CODE_VERSION, FUNC_ARTIFACT_SCHEMA

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
    store_out: Dict[str, str] = field(default_factory=dict)
    obj_union: Dict[str, str] = field(default_factory=dict)
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
            "store_out": self.store_out,
            "obj_union": self.obj_union,
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
            store_out=doc["store_out"],                    # type: ignore[arg-type]
            obj_union=doc["obj_union"],                    # type: ignore[arg-type]
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
            "store_out": self.store_out,
            "obj_union": self.obj_union,
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
    store_out = {f"{instr_idx}:{obj_idx}": mask_to_hex(mask)
                 for (instr_idx, obj_idx), mask
                 in sorted(result.store_out_masks().items())}
    obj_union = {str(idx): mask_to_hex(mask)
                 for idx, mask in sorted(result.obj_union_masks().items())}

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
        store_out=store_out,
        obj_union=obj_union,
        store_classes=store_classes,
        summary=summary,
    )


def artifact_from_andersen(name: str, module, andersen,
                           reason: str = "budget-exhausted"
                           ) -> AnalysisArtifact:
    """The degraded (Andersen-only) artifact: flow-insensitive
    top-level points-to sets, no memory states, no store
    classification. The last rung of the degradation ladder —
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
    """Check *doc* against ``repro.artifact/2``; returns it unchanged
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
    _check_mask_map(doc.get("store_out"), "store_out")
    _check_mask_map(doc.get("obj_union"), "obj_union")
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
