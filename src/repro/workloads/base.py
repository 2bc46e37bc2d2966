"""Workload plumbing: the descriptor type and a tiny source writer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List


@dataclass
class Workload:
    """One synthetic benchmark program."""

    name: str
    description: str
    paper_loc: int          # LOC reported in the paper's Table 1
    generate: Callable[[int], str]
    default_scale: int = 1
    suite: str = ""

    def source(self, scale: int = 0) -> str:
        """Generate the MiniC source at *scale* (0 = default)."""
        return self.generate(scale or self.default_scale)


def source_loc(source: str) -> int:
    """Non-blank, non-comment-only line count."""
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


class SourceWriter:
    """An indentation-aware line accumulator for generators."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def line(self, text: str = "") -> "SourceWriter":
        if text:
            self.lines.append("    " * self.indent + text)
        else:
            self.lines.append("")
        return self

    def open(self, text: str) -> "SourceWriter":
        """Emit ``text {`` and indent."""
        self.line(text + " {")
        self.indent += 1
        return self

    def close(self, suffix: str = "") -> "SourceWriter":
        self.indent -= 1
        self.line("}" + suffix)
        return self

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"
