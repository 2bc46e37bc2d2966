"""Lexer tests."""

import pytest

from repro.minic.errors import LexError
from repro.minic.lexer import Token, TokenKind, tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src) if t.kind is not TokenKind.EOF]


class TestTokens:
    def test_empty_input(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind is TokenKind.EOF

    def test_identifiers_and_keywords(self):
        assert kinds("int foo") == [(TokenKind.KEYWORD, "int"), (TokenKind.IDENT, "foo")]

    def test_underscore_identifier(self):
        assert kinds("_x y_1")[0] == (TokenKind.IDENT, "_x")

    def test_numbers(self):
        assert kinds("42 0") == [(TokenKind.NUMBER, "42"), (TokenKind.NUMBER, "0")]

    def test_malformed_number(self):
        with pytest.raises(LexError):
            tokenize("12abc")

    def test_two_char_operators_win(self):
        assert kinds("a->b") == [(TokenKind.IDENT, "a"), (TokenKind.PUNCT, "->"),
                                 (TokenKind.IDENT, "b")]
        assert kinds("a<=b")[1] == (TokenKind.PUNCT, "<=")
        assert kinds("a==b")[1] == (TokenKind.PUNCT, "==")
        assert kinds("a&&b")[1] == (TokenKind.PUNCT, "&&")

    def test_minus_and_arrow_disambiguate(self):
        assert kinds("a-b")[1] == (TokenKind.PUNCT, "-")

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_all_keywords_recognised(self):
        for kw in ("int", "void", "struct", "if", "else", "while", "for",
                   "return", "break", "continue", "null", "thread_t", "mutex_t"):
            assert kinds(kw)[0][0] is TokenKind.KEYWORD


class TestTrivia:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [(TokenKind.IDENT, "a"), (TokenKind.IDENT, "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [(TokenKind.IDENT, "a"), (TokenKind.IDENT, "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never ends")

    def test_line_numbers(self):
        toks = tokenize("a\n  b")
        assert toks[0].line == 1 and toks[0].col == 1
        assert toks[1].line == 2 and toks[1].col == 3

    def test_newlines_in_comment_counted(self):
        toks = tokenize("/* a\nb\nc */ x")
        assert toks[0].line == 3


class TestAscii:
    """Identifiers and digits are ASCII. (Comments may hold anything:
    see the token pins.)"""

    @pytest.mark.parametrize("source", ["int \u00e9t\u00e9;", "a\u00a0b",
                                        "caf\u00e9"])
    def test_non_ascii_outside_comments_is_a_located_error(self, source):
        with pytest.raises(LexError, match="unexpected character") as info:
            tokenize(source)
        assert info.value.line == 1 and info.value.col is not None
