"""A MiniC diagnostic in client source is the client's error.

The hostile sources of ``tests/frontend/test_diagnostics.py``
reach the analysis through the gateway's shard workers (``repro
serve``) and through batch, inline and pooled. Each answer names the
diagnostic's type, line and column, with code 400, not 500.
"""

import json

import pytest

from repro.frontend import compile_source
from repro.gateway.protocol import error_body
from repro.minic.errors import MiniCError, ParseError
from repro.service.batch import run_batch
from repro.service.requests import AnalysisRequest

from tests.frontend.test_diagnostics import HOSTILE
from tests.service.serving import serve


def diagnostic(source):
    """The error record every path must answer *source* with."""
    with pytest.raises(MiniCError) as info:
        compile_source(source)
    exc = info.value
    return {"type": type(exc).__name__, "message": str(exc), "code": 400,
            "line": exc.line, "col": exc.col}


def test_error_body_of_a_diagnostic_is_400():
    body = error_body(ParseError("expected ';'", 3, 9), request_id=4)
    assert body == {"status": "error", "id": 4, "error": {
        "type": "ParseError", "message": "expected ';' (line 3, col 9)",
        "code": 400, "line": 3, "col": 9}}


def test_shard_path_answers_400_with_location():
    entries = [json.dumps({"source": source, "name": f"h{i}", "id": i})
               for i, source in enumerate(HOSTILE)]
    session = serve(entries + ['{"workload": "kmeans", "id": "ok"}'])
    for i, source in enumerate(HOSTILE):
        answer = session.answer(i)
        assert answer["status"] == "error"
        assert answer["error"] == diagnostic(source)
    assert session.answer("ok")["status"] == "ok"


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pooled"])
def test_batch_records_carry_location(workers):
    requests = [AnalysisRequest(name=f"h{i}", source=source)
                for i, source in enumerate(HOSTILE)]
    report = run_batch(requests, workers=workers)
    assert [outcome.error for outcome in report.outcomes] == \
        [diagnostic(source) for source in HOSTILE]
