"""MiniC: a small C-with-Pthreads frontend.

The paper analyses LLVM bitcode compiled from multithreaded C. Since
we build everything from scratch, MiniC plays the role of C + clang:
a C subset with structs, pointers, arrays, function pointers, malloc,
and the Pthreads primitives ``fork``/``join``/``lock``/``unlock``
(aliases ``pthread_create`` etc. are accepted). The frontend lowers it
to the partial-SSA IR of :mod:`repro.ir`.
"""

from repro.minic.lexer import Token, TokenKind, tokenize
from repro.minic.errors import MiniCError, ParseError, SemanticError
from repro.minic.parser import parse
from repro.minic import ast

__all__ = [
    "Token", "TokenKind", "tokenize",
    "MiniCError", "ParseError", "SemanticError",
    "parse", "ast",
]
