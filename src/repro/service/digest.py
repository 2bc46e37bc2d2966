"""Canonical content digests for the service layer.

Every cache key in the service stack is the same construction: build
a JSON-able payload describing exactly the inputs that determine the
output, serialise it canonically (sorted keys, no whitespace), and
take the sha256. The construction used to be re-implemented in three
places (:mod:`repro.service.requests` twice, once per digest level,
and the context-signature site in :mod:`repro.service.incremental`);
drifting serialisation settings between them would silently split the
cache namespace. This module is the single implementation.

Digest stability is part of the on-disk cache contract: a digest
change orphans every previously cached artifact. The exact hex values
for fixed payloads are pinned by ``tests/service/test_digest.py`` —
if that test fails, either revert the serialisation change or bump
``CODE_VERSION`` deliberately.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from repro.schemas import CODE_VERSION


def canonical_digest(payload: object) -> str:
    """sha256 over the canonical JSON form of *payload* (sorted keys,
    compact separators). The one serialisation every service digest
    goes through."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def query_digest(program_digest: str, var: str,
                 line: Optional[int] = None, obj: bool = False,
                 code_version: str = CODE_VERSION) -> str:
    """Identity of one demand query: the gateway's coalesce and
    hot-response key for it, and the ``query_digest`` field of its
    answer payload. No disk store is keyed by it.

    Keyed on the *request*, not the slice, so the gateway can compute
    it from the wire entry alone, before any shard builds a pipeline
    — see the "Demand-driven queries" section of DESIGN.md.
    """
    return canonical_digest({
        "program": program_digest,
        "var": var,
        "line": line,
        "obj": bool(obj),
        "code_version": code_version,
    })
