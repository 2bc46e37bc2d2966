"""Property: the frontend compiles any text or rejects it with a
MiniC diagnostic.

The gateway, ``repro serve`` and batch hand client source to
``compile_source``. Whatever the text, it must return a
:class:`~repro.ir.module.Module` or raise a
:class:`~repro.minic.errors.MiniCError` (never a builtin exception from
deeper in the pipeline), within a per-example deadline. Inputs come
from three sources: arbitrary text, soups of MiniC tokens (bare and
inside a function body, so lowering sees them too), and the Table 1
programs at scale 1 with random slices deleted, duplicated or
inserted.
"""

from datetime import timedelta

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frontend import compile_source
from repro.ir.module import Module
from repro.minic.errors import MiniCError
from repro.minic.lexer import KEYWORDS, PUNCTUATORS
from repro.workloads import get_workload, workload_names

SETTINGS = settings(max_examples=60, deadline=timedelta(seconds=2),
                    suppress_health_check=[HealthCheck.too_slow])

VOCABULARY = sorted(KEYWORDS) + PUNCTUATORS + [
    "main", "f", "g", "p", "q", "s", "t", "m", "fld", "fork", "join",
    "lock", "unlock", "malloc", "wait", "signal", "barrier_init",
    "barrier_wait", "0", "1", "7", "/* c */", "// c\n", "\n",
]

PRELUDE = ("struct s { int *fld; struct s *next; };\n"
           "int g; int *p; int **q; thread_t t; mutex_t m;\n"
           "void f(void *a) { p = &g; }\n")

SOURCES = [get_workload(name).source(1) for name in workload_names()]


def check(source: str) -> None:
    try:
        module = compile_source(source)
    except MiniCError as exc:
        assert exc.line is not None, f"unlocated diagnostic: {exc}"
    else:
        assert isinstance(module, Module)


tokens = st.lists(st.sampled_from(VOCABULARY), max_size=80)


@st.composite
def mutated_workloads(draw):
    """A scale-1 Table 1 program with 1-3 random slice edits, over
    characters or over whole lines (which reach lowering more often)."""
    source = draw(st.sampled_from(SOURCES))
    by_lines = draw(st.booleans())
    text = source.split("\n") if by_lines else source
    longest = 20 if by_lines else 400
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + longest)))
        edit = draw(st.sampled_from(("delete", "duplicate", "insert")))
        if edit == "delete":
            text = text[:start] + text[end:]
        elif edit == "duplicate":
            text = text[:end] + text[start:end] + text[end:]
        else:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + text[start:end] + text[at:]
    return "\n".join(text) if by_lines else text


class TestFrontendFuzz:
    @SETTINGS
    @given(st.text(max_size=200))
    def test_arbitrary_text(self, source):
        check(source)

    @SETTINGS
    @given(tokens.map(" ".join))
    def test_token_soup(self, source):
        check(source)

    @SETTINGS
    @given(tokens.map(lambda body: PRELUDE + "int main() {\n"
                      + " ".join(body) + "\n}\n"))
    def test_token_soup_in_a_body(self, source):
        check(source)

    @SETTINGS
    @given(mutated_workloads())
    def test_mutated_workloads(self, source):
        check(source)
