"""Hostile source fails with a located MiniC diagnostic.

The gateway, ``repro serve`` and batch all hand client source to
``compile_source``, so every rejection must be a
:class:`repro.minic.errors.MiniCError` with a line, never a builtin
exception from deeper in the pipeline.
"""

import pytest

from repro.frontend import compile_source
from repro.minic.errors import LexError, ParseError, SemanticError
from repro.minic.parser import MAX_NUMBER_DIGITS


def test_non_ascii_digit_is_a_lex_error():
    with pytest.raises(LexError, match="unexpected character") as info:
        compile_source("int main() { int x;\n  x = \u00b2; return 0; }")
    assert (info.value.line, info.value.col) == (2, 7)


def test_overlong_literal_is_a_parse_error():
    source = "int main() { int x;\n  x = " + "9" * 5000 + "; return 0; }"
    with pytest.raises(ParseError, match="longer than") as info:
        compile_source(source)
    assert (info.value.line, info.value.col) == (2, 7)


def test_overlong_array_size_is_a_parse_error():
    with pytest.raises(ParseError, match="longer than"):
        compile_source("int a[" + "1" * (MAX_NUMBER_DIGITS + 1) + "];\n"
                       "int main() { return 0; }")


def test_literal_at_the_cap_compiles():
    compile_source("int main() { int x; x = " + "9" * MAX_NUMBER_DIGITS
                   + "; return 0; }")


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
