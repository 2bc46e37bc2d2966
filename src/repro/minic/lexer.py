"""MiniC lexer.

One compiled regular expression scans the source into a flat token
list. Supports ``//`` and ``/* */`` comments, decimal integer
literals, identifiers, keywords, and the C operator/punctuation subset
MiniC uses. Identifiers and digits are ASCII; comments may contain
any character, and any other non-ASCII character is a ``LexError``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List

from repro.minic.errors import LexError


class TokenKind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = {
    "int", "void", "struct", "if", "else", "while", "for", "return",
    "break", "continue", "null", "thread_t", "mutex_t", "sizeof",
    "cond_t", "barrier_t",
}

# Longest-first so that multi-character operators win over prefixes.
PUNCTUATORS = [
    "->", "&&", "||", "==", "!=", "<=", ">=",
    "+=", "-=", "*=", "/=", "++", "--",
    "{", "}", "(", ")", "[", "]", ";", ",", ".",
    "=", "<", ">", "+", "-", "*", "/", "%", "&", "!", "|", "^",
]


@dataclass
class Token:
    kind: TokenKind
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"{self.kind.value}:{self.text!r}@{self.line}:{self.col}"


# Alternatives are tried in order: trivia, then a block comment's
# unterminated opener (a terminated one is trivia), then tokens. A
# number directly followed by a letter is malformed; whatever is left
# is one unexpected character.
_SCANNER = re.compile(r"""
    (?P<skip> [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )
  | (?P<open> /\* )
  | (?P<word> [A-Za-z_]\w* )
  | (?P<number> \d+ ) (?P<malformed> [A-Za-z] )?
  | (?P<punct> %s )
  | (?P<other> . )
""" % "|".join(re.escape(p) for p in PUNCTUATORS),
    re.ASCII | re.DOTALL | re.VERBOSE)


def tokenize(source: str) -> List[Token]:
    """The full token stream of *source*, ending with one EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for match in _SCANNER.finditer(source):
        kind, text = match.lastgroup, match.group()
        start = match.start()
        if kind == "skip":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        col = start - line_start + 1
        if kind == "word":
            append(Token(TokenKind.KEYWORD if text in KEYWORDS
                         else TokenKind.IDENT, text, line, col))
        elif kind == "punct":
            append(Token(TokenKind.PUNCT, text, line, col))
        elif kind == "number":
            append(Token(TokenKind.NUMBER, text, line, col))
        elif kind == "open":
            raise LexError("unterminated block comment", line)
        elif kind == "malformed":
            raise LexError(f"malformed number near {text!r}", line, col)
        else:
            raise LexError(f"unexpected character {text!r}", line, col)
    append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens
