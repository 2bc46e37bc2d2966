"""Hostile source fails with a located MiniC diagnostic.

The gateway, ``repro serve`` and batch all hand client source to
``compile_source``, so every rejection must be a
:class:`repro.minic.errors.MiniCError` with a line, never a builtin
exception from deeper in the pipeline.
"""

import pytest

from repro.frontend import compile_source
from repro.minic.errors import LexError, ParseError, SemanticError
from repro.minic.lexer import MAX_SOURCE_CHARS, MAX_TOKENS, tokenize
from repro.minic.parser import MAX_NUMBER_DIGITS

#: Hostile sources, one per diagnostic path; tests/gateway/
#: test_source_errors.py replays them through serve and batch.
HOSTILE = [
    "int main() { int x;\n  x = \u00b2; return 0; }",
    "int main() { int x;\n  x = " + "9" * 5000 + "; return 0; }",
    "int g;\nint *g;\nint main() { return 0; }",
    "int f() { return 0; }\nint f() { return 1; }\nint main() { return f(); }",
    "int g;\n",
    "int main() {\n  return 0; /* never closed\n}\n",
    # One token past the cap, and still under the gateway's 1 MiB
    # request limit.
    "int main() {" + ";" * (MAX_TOKENS + 1) + "}",
]


def test_non_ascii_digit_is_a_lex_error():
    with pytest.raises(LexError, match="unexpected character") as info:
        compile_source("int main() { int x;\n  x = \u00b2; return 0; }")
    assert (info.value.line, info.value.col) == (2, 7)


def test_unterminated_comment_is_a_located_lex_error():
    # Located at the comment's opener, like every other lex error.
    with pytest.raises(LexError, match="unterminated block comment") as info:
        compile_source("int main() {\n  return 0; /* never closed\n}\n")
    assert (info.value.line, info.value.col) == (2, 13)


def test_overlong_literal_is_a_parse_error():
    source = "int main() { int x;\n  x = " + "9" * 5000 + "; return 0; }"
    with pytest.raises(ParseError, match="longer than") as info:
        compile_source(source)
    assert (info.value.line, info.value.col) == (2, 7)


@pytest.mark.parametrize("source, message, where", [
    # A call is located at its "(", like every call expression.
    ("int main() {\n  thread_t t;\n  fork(&t);\n  return 0;\n}",
     "fork expects 3", (3, 7)),
    ("int g[x];\nint main() { return 0; }", "array size", (1, 7)),
    ("int main() { int *p;\n  p = malloc(1); return 0; }",
     "malloc expects", (2, 13)),
], ids=["fork-arity", "array-size", "malloc-argument"])
def test_parse_error_carries_line_and_col(source, message, where):
    with pytest.raises(ParseError, match=message) as info:
        compile_source(source)
    assert (info.value.line, info.value.col) == where


def test_overlong_array_size_is_a_parse_error():
    with pytest.raises(ParseError, match="longer than"):
        compile_source("int a[" + "1" * (MAX_NUMBER_DIGITS + 1) + "];\n"
                       "int main() { return 0; }")


def test_literal_at_the_cap_compiles():
    compile_source("int main() { int x; x = " + "9" * MAX_NUMBER_DIGITS
                   + "; return 0; }")


def test_token_count_stops_at_the_cap():
    # Located at the first token past the cap: the scan stopped there.
    with pytest.raises(LexError, match=f"more than {MAX_TOKENS} tokens") as info:
        tokenize(";" * (2 * MAX_TOKENS))
    assert (info.value.line, info.value.col) == (1, MAX_TOKENS + 1)
    assert len(tokenize(";" * MAX_TOKENS)) == MAX_TOKENS + 1  # and EOF


def test_source_length_is_bounded_before_scanning():
    head = "int main() { return 0; }\n"
    compile_source(head + " " * (MAX_SOURCE_CHARS - len(head)))
    # Past the cap, even the one long word is never scanned.
    with pytest.raises(LexError, match="longer than") as info:
        compile_source(head + "x" * (MAX_SOURCE_CHARS - len(head) + 1))
    assert (info.value.line, info.value.col) == \
        (2, MAX_SOURCE_CHARS - len(head) + 1)


def test_duplicate_global_is_a_semantic_error():
    with pytest.raises(SemanticError, match="duplicate global g") as info:
        compile_source("int g;\nint *g;\nint main() { return 0; }")
    assert info.value.line == 2


def test_duplicate_function_is_a_semantic_error():
    with pytest.raises(SemanticError, match="duplicate function f") as info:
        compile_source("int f() { return 0; }\n"
                       "int f() { return 1; }\n"
                       "int main() { return f(); }")
    assert info.value.line == 2


def test_missing_main_is_a_semantic_error():
    with pytest.raises(SemanticError, match="no main") as info:
        compile_source("int g;\nint f() { return 0; }\n")
    assert (info.value.line, info.value.col) == (1, None)


@pytest.mark.parametrize("source, message, where", [
    ("int g; int g;\nint main() { return 0; }", "duplicate global g", (1, 12)),
    ("int main() { int x;\n  x = y; return 0; }", "unknown name y", (2, 7)),
    ("int main() { int x;\n  int x; return 0; }", "duplicate local x", (2, 7)),
], ids=["duplicate-global", "unknown-name", "duplicate-local"])
def test_semantic_error_carries_line_and_col(source, message, where):
    with pytest.raises(SemanticError, match=message) as info:
        compile_source(source)
    assert (info.value.line, info.value.col) == where
