"""Golden pins on the MiniC token stream.

The scanner may be rewritten in any shape, but the tokens it hands the
parser must not move. The fixture pins:

- for each Table 1 program at scales 1, 2 and its bench scale, the
  token count and a sha256 over every ``(kind, text, line, col)``
  token, EOF included;
- for a set of edge inputs (line endings, tabs, comment corners,
  operator runs, malformed numbers, stray characters), either the full
  token list or the exact ``LexError`` text, location included.

Regenerate the fixture (only when the token stream is meant to
change) with::

    PYTHONPATH=src python -m tests.minic.test_token_pins --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

import pytest

from repro.harness.scales import BENCH_SCALES
from repro.minic.errors import LexError
from repro.minic.lexer import tokenize
from repro.workloads import get_workload, workload_names

FIXTURE = os.path.join(os.path.dirname(__file__), "token_pins.json")

EDGE_INPUTS = (
    "",
    "a\r\nb\r\n",
    "int\tmain()\r\n{\r\n\treturn 0;\r\n}\r\n",
    "\t\ta\t=\t1;",
    "/**/a",
    "/*/ a",
    "/*/ a */ b",
    "a // comment at EOF",
    "//",
    "a//b\nc",
    "a---b",
    "a----b",
    "a+=b-=c*=d/=e++f--g",
    "p->q.r[0]",
    "a&&b||!c^d|e&f%g",
    "a<=b>=c==d!=e<f>g",
    "/ * x */",
    "_ __ _1 a_b_ 007 int struct sizeof barrier_t",
    "12abc",
    "12_",
    "12_a",
    "0x1F",
    "x = 7\n  99z;",
    "a /* one\ntwo\nthree",
    "x\n/* open\n  more",
    "x\n\n  /* ok\n  */ */",
    "/* unterminated *",
    "a @ b",
    "a\n  $b",
    "#include",
    "x = \"s\";",
    "'c'",
    "a ? b : c",
    "~a",
    "a\\b",
    "\x0c",
    "a\x0bb",
    "\x00",
    "// \u00e9\u00b2 \u4e2d\n/* \u00b2\n\u2028 */ a",
)


def _rows(tokens) -> List[str]:
    return [f"{t.kind.value}\t{t.text}\t{t.line}\t{t.col}" for t in tokens]


def stream_pin(source: str) -> Dict[str, object]:
    rows = _rows(tokenize(source))
    digest = hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()
    return {"sha256": digest, "count": len(rows)}


def edge_pin(source: str) -> Dict[str, object]:
    try:
        return {"source": source, "tokens": _rows(tokenize(source))}
    except LexError as exc:
        return {"source": source, "error": str(exc)}


def _scales(name: str) -> List[int]:
    return sorted({1, 2, BENCH_SCALES[name]})


def generate() -> Dict[str, object]:
    return {
        "workloads": {name: {str(scale): stream_pin(
                                 get_workload(name).source(scale))
                             for scale in _scales(name)}
                      for name in workload_names()},
        "edges": [edge_pin(source) for source in EDGE_INPUTS],
    }


def _load_fixture() -> Dict[str, object]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", workload_names())
def test_workload_streams(name):
    expected = _load_fixture()["workloads"][name]
    assert sorted(expected, key=int) == [str(s) for s in _scales(name)]
    for scale, pin in expected.items():
        assert stream_pin(get_workload(name).source(int(scale))) == pin


def test_edge_inputs():
    expected = _load_fixture()["edges"]
    assert [row["source"] for row in expected] == list(EDGE_INPUTS)
    for row in expected:
        assert edge_pin(row["source"]) == row


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.minic.test_token_pins --write")
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
