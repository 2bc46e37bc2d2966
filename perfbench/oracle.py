"""Independent answers every timed operation is checked against.

The oracle is the repository's reference engine
(``solver_engine="reference"``), a separate fixpoint implementation
from the delta engine the timed operations run. Analysis outputs are
compared by artifact payload digest; demand-query answers by mask
against the whole-program reference fixpoint.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

REFERENCE = {"solver_engine": "reference"}


def reference_result(name: str, source: str):
    """The whole-program reference fixpoint of *source*."""
    from repro.frontend import compile_source
    from repro.fsam import FSAM
    from repro.fsam.config import FSAMConfig
    return FSAM(compile_source(source, name=name),
                FSAMConfig(**REFERENCE)).run()


def result_digest(name: str, result) -> str:
    from repro.service.artifacts import artifact_from_result
    return artifact_from_result(name, result).payload_digest()


def reference_digest(name: str, source: str) -> str:
    return result_digest(name, reference_result(name, source))


def query_answers(result, queries: Iterable[Tuple[str, bool]]
                  ) -> Dict[Tuple[str, bool], str]:
    """Hex masks of ``(name, obj)`` queries off a whole-program
    result: the union over every top-level temp named *name* or, for
    *obj*, over every memory state of global *name*."""
    from repro.pts import mask_to_hex
    by_name: Dict[str, int] = {}
    pts_top = result.solver.pts_top
    for fn in result.module.functions.values():
        temps = list(fn.params) + [getattr(instr, "dst", None)
                                   for instr in fn.instructions()]
        for temp in temps:
            if temp is None or not hasattr(temp, "id"):
                continue
            pts = pts_top.get(temp.id)
            by_name[temp.name] = by_name.get(temp.name, 0) \
                | (pts.mask if pts is not None else 0)
    by_obj: Dict[int, int] = {}
    for (_uid, obj_id), values in result.solver.mem.items():
        by_obj[obj_id] = by_obj.get(obj_id, 0) | values.mask
    out: Dict[Tuple[str, bool], str] = {}
    for name, obj in queries:
        if obj:
            mask = by_obj.get(result.module.globals[name].id, 0)
        else:
            mask = by_name[name]
        out[(name, obj)] = mask_to_hex(mask)
    return out
