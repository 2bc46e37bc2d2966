"""Digest stability contract for the service cache keys.

Every on-disk artifact key in the service layer — request, function,
and query — flows through :func:`repro.service.digest.canonical_digest`
(sha256 over sorted-keys compact JSON). The pinned hex values below
are the contract: if any of them changes, every deployed cache is
silently invalidated, so a failure here must be a deliberate,
release-noted decision — never a refactor side effect.

Pins that depend on :data:`repro.schemas.CODE_VERSION` or on
``FSAMConfig`` cache-key fields pass an explicit ``code_version`` so
they only move when the serialization itself changes (code-version
bumps are *supposed* to move real keys; that path is covered by the
mismatch tests in the cache suite).
"""

from __future__ import annotations

import pytest

from repro.fsam import FSAMConfig
from repro.schemas import CODE_VERSION
from repro.service.digest import canonical_digest, query_digest
from repro.service.requests import function_digest, request_digest


def test_canonical_digest_pins():
    assert canonical_digest({}) == \
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"
    assert canonical_digest({"b": 2, "a": 1}) == \
        "43258cff783fe7036d8a43033f830adfc60ec037382473548ac742b888292777"
    assert canonical_digest({"s": "café", "n": [1, 2.5, None, True]}) == \
        "229403e95e978cd011c648f7af3117e83defbfd1623acbdbbca11937e4c6d7b2"


def test_canonical_digest_is_order_insensitive():
    assert canonical_digest({"a": 1, "b": 2}) == \
        canonical_digest({"b": 2, "a": 1})
    # ...but value- and type-sensitive (bool is not int, int is not str).
    assert canonical_digest({"a": 1}) != canonical_digest({"a": True})
    assert canonical_digest({"a": 1}) != canonical_digest({"a": "1"})


def test_query_digest_pins():
    program = "0" * 64
    assert query_digest(program, "p", code_version="test-1") == \
        "835b8b7294bc824ca03a055bd19914eace723f7ca9d829a58c369c61d1721466"
    assert query_digest(program, "p", line=7, obj=True,
                        code_version="test-1") == \
        "9b28f28d93afca06a05be521a10508d47b4f2e8b2dd647e802e3ce37d03e6bea"


def test_query_digest_discriminates_every_field():
    base = query_digest("0" * 64, "p", code_version="test-1")
    assert query_digest("1" * 64, "p", code_version="test-1") != base
    assert query_digest("0" * 64, "q", code_version="test-1") != base
    assert query_digest("0" * 64, "p", line=1, code_version="test-1") != base
    assert query_digest("0" * 64, "p", obj=True, code_version="test-1") != base
    assert query_digest("0" * 64, "p", code_version="test-2") != base
    # Default code_version is the live one.
    assert query_digest("0" * 64, "p") == \
        query_digest("0" * 64, "p", code_version=CODE_VERSION)


def test_request_digest_pin():
    assert request_digest("int main() { return 0; }\n", FSAMConfig(),
                          code_version="test-1") == \
        "4bb5863d77e93db42fc42f723658db89723c0cac9e932fd45c0e0e45ed6cf548"


def test_function_digest_pin():
    assert function_digest("fn main:\n  ret 0\n",
                           [["helper", "mod:-,ref:-"]], FSAMConfig(),
                           code_version="test-1") == \
        "9bf931a23de23d6b5c9b51dbf2e4fe8622e950273bf8f666fad05cf556480477"


def test_request_digest_ignores_execution_only_fields():
    """Budgets and engine selection never shape the fixpoint, so they
    must not shape the key either."""
    base = request_digest("int main() { return 0; }\n", FSAMConfig())
    budgeted = request_digest("int main() { return 0; }\n",
                              FSAMConfig(time_budget=1.0))
    assert budgeted == base
    # ...while fixpoint-determining fields do participate.
    no_locks = request_digest("int main() { return 0; }\n",
                              FSAMConfig(lock_analysis=False))
    assert no_locks != base


@pytest.mark.parametrize("field,value", [("trace", True),
                                         ("solver_mode", "demand")])
def test_run_modes_are_refused(field, value):
    """Tracing and demand solving are not config fields: a request
    naming either is refused, so no traced or unsolved result can be
    stored under the key of the full analysis."""
    with pytest.raises(ValueError, match="unknown FSAMConfig"):
        FSAMConfig.from_dict({field: value})
    with pytest.raises(TypeError):
        FSAMConfig(**{field: value})


def test_canonical_digest_rejects_unserializable():
    with pytest.raises(TypeError):
        canonical_digest({"x": object()})
