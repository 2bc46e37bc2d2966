"""Golden pins on the MiniC abstract syntax tree.

The parser may be rewritten in any shape, but the tree it hands
lowering must not move. The fixture pins:

- for each Table 1 program at scales 1, 2 and its bench scale, a
  sha256 over a walk of the AST that records every node's class name
  and attributes (``vars()``), lines and columns included. ``repr``
  would not do: ``TypeSpec.__repr__`` drops its location;
- for a set of edge inputs (operator mixes, nesting at and past the
  limit, every parser diagnostic), either the tree's sha256 or the
  exact ``MiniCError`` text, location included.

Regenerate the fixture (only when the tree is meant to change) with::

    PYTHONPATH=src python -m tests.minic.test_ast_pins --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

import pytest

from repro.harness.scales import BENCH_SCALES
from repro.minic.errors import MiniCError
from repro.minic.parser import parse
from repro.workloads import get_workload, workload_names

FIXTURE = os.path.join(os.path.dirname(__file__), "ast_pins.json")


def _main(body: str) -> str:
    return "int main() { " + body + " }"


EDGE_INPUTS = (
    "",
    # Precedence and associativity.
    _main("x = 1 + 2 * 3 - 4 / 5 % 6;"),
    _main("x = a || b && c == d != e < f > g <= h >= i + j - k * l / m % n;"),
    _main("x = n % m / l * k - j + i >= h <= g > f < e != d == c && b || a;"),
    _main("x = a - b - c; y = a / b / c; z = a < b < c; w = a || b || c;"),
    _main("x = -a * !b + *p - &q; y = - - a; z = !!a == *&b;"),
    _main("x = (a + b) * (c - d); y = ((a)); z = a * (b + c) < d;"),
    _main("p->f.g[1](2, 3)->h = 1; q = f()(a + b, c)[d * e];"),
    _main("x = a && (b || c) && d; y = a == b == c;"),
    # Declarations, bodies and desugared assignments.
    "struct S *p; struct S { int a; struct S *next; int v[4]; };\n"
    "int *g = 0; void f(void) { return; } int main(void) { return 0; }",
    _main("for (;;) break; for (int i = 0; i < 3; i++) continue;"
          " for (i = 0; i < n; i += 2) { x--; }"),
    _main("x += 1; x -= 2; x *= 3; x /= 4; x++; x--; p->f += q.g;"),
    _main("if (a) if (b) x = 1; else x = 2; else if (c) x = 3;"),
    _main("while (x < 10) x = x + 1; if (x) { } else { x = 0; }"),
    _main("fork(&t, r, null); pthread_create(&t, null, r, &x); join(t);"
          " pthread_join(t, 0); lock(&m); unlock(&m);"
          " pthread_mutex_lock(&m); pthread_mutex_unlock(&m);"),
    _main("wait(&c, &m); signal(&c); broadcast(&c);"
          " barrier_init(&b, 2); pthread_barrier_init(&b, null, 2);"
          " barrier_wait(&b); pthread_cond_broadcast(&c);"),
    _main("p = malloc(int); q = malloc(sizeof(struct S)); r = malloc(int**);"),
    _main("x = 18446744073709551615;"),
    # Tree height at and one past the nesting limit.
    _main("x = " + " + ".join(["1"] * 63) + ";"),
    _main("x = " + " + ".join(["1"] * 64) + ";"),
    _main("x = " + " + ".join(["a * b"] * 40) + ";"),
    _main("x = " + " + ".join(["a * b"] * 70) + ";"),
    _main("x = " + " || ".join(["a == b && c < d"] * 30) + ";"),
    _main("x = " + " || ".join(["a == b && c < d"] * 40) + ";"),
    _main("x = " + "1 + (" * 40 + "1" + ")" * 40 + ";"),
    _main("x = " + "- " * 62 + "1;"),
    _main("x = " + "- " * 63 + "1;"),
    _main("x = a" + "[0]" * 62 + ";"),
    _main("x = a" + "[0]" * 63 + ";"),
    _main("x = a" + "->f" * 70 + ";"),
    _main("x = " + "(" * 70 + "1" + ")" * 70 + ";"),
    _main("{ " * 70 + "}" * 70),
    _main("if (x) " * 70 + "x = 1;"),
    # Diagnostics.
    _main("return 0"),
    _main("int x; x = 1 + ; return 0;"),
    "int main( { return 0; }",
    _main("if x) return 0;"),
    _main("while (1 { }"),
    _main("for (x = 0; x < 1 x = x + 1) { }"),
    "int 5;",
    "int",
    "}",
    "int main() {",
    _main("return 0; }"),
    "struct S { int a; }",
    "struct S { int a } ; int main() { return 0; }",
    "struct { int a; };",
    _main("int x; x = (1 + 2; return 0;"),
    _main("int a[2]; a[0 = 1;"),
    _main("f(1, );"),
    _main("x = y.;"),
    _main("x = y->3;"),
    _main("x = sizeof(y);"),
    _main("x = malloc(5);"),
    _main("x = malloc(int, int);"),
    "int a[x];",
    "int a[3;",
    "void f(void, int a) { }",
    _main("pthread_create(&t, null, f);"),
    _main("fork(&t, f);"),
    _main("join();"),
    _main("pthread_join(t);"),
    _main("lock();"),
    _main("pthread_mutex_unlock(a, b);"),
    _main("wait(&c);"),
    _main("pthread_cond_signal();"),
    _main("broadcast(a, b);"),
    _main("barrier_init(&b);"),
    _main("pthread_barrier_init(&b, 2);"),
    _main("barrier_wait();"),
    _main("x = 123456789012345678901;"),
    "int a[123456789012345678901];",
    _main("x = a +* ;"),
    _main("x = a || ;"),
    _main("x = a && ;"),
    _main("x = a == ;"),
    _main("x = a <= ;"),
    _main("x = a % ;"),
    _main("x += ;"),
    _main("x++ y;"),
    _main("x = 1 = 2;"),
    _main("else x = 1;"),
    _main("{ x = 1;"),
    _main("x = a[1][;"),
    _main("int x = ;"),
    _main("x = a ^ b;"),
    _main("x = a | b;"),
    _main("break"),
    _main("continue x;"),
    _main("struct S s = ;"),
    "int main() { x = 1; } }",
    "int f(int a, ) { }",
    "int f(int a int b) { }",
)


def _walk(node: object, out: List[str]) -> None:
    if isinstance(node, list):
        out.append(f"[{len(node)}")
        for item in node:
            _walk(item, out)
        out.append("]")
    elif hasattr(node, "__dict__"):
        out.append(type(node).__name__ + "(")
        for key, value in sorted(vars(node).items()):
            out.append(key + "=")
            _walk(value, out)
        out.append(")")
    else:
        out.append(repr(node))


def tree_sha256(source: str) -> str:
    out: List[str] = []
    _walk(parse(source), out)
    return hashlib.sha256("\n".join(out).encode("utf-8")).hexdigest()


def edge_pin(source: str) -> Dict[str, object]:
    try:
        return {"source": source, "sha256": tree_sha256(source)}
    except MiniCError as exc:
        return {"source": source, "error": f"{type(exc).__name__}: {exc}"}


def _scales(name: str) -> List[int]:
    return sorted({1, 2, BENCH_SCALES[name]})


def generate() -> Dict[str, object]:
    return {
        "workloads": {name: {str(scale): tree_sha256(
                                 get_workload(name).source(scale))
                             for scale in _scales(name)}
                      for name in workload_names()},
        "edges": [edge_pin(source) for source in EDGE_INPUTS],
    }


def _load_fixture() -> Dict[str, object]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", workload_names())
def test_workload_trees(name):
    expected = _load_fixture()["workloads"][name]
    assert sorted(expected, key=int) == [str(s) for s in _scales(name)]
    for scale, pin in expected.items():
        assert tree_sha256(get_workload(name).source(int(scale))) == pin


def test_edge_inputs():
    expected = _load_fixture()["edges"]
    assert [row["source"] for row in expected] == list(EDGE_INPUTS)
    for row in expected:
        assert edge_pin(row["source"]) == row


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.minic.test_ast_pins --write")
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
