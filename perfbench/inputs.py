"""Seeded input generation and input fingerprints.

Every input a workload feeds the program is a pure function of the
benchmark seed: the program sources (fixed generator scales), the
single-function edits, the zipfian query stream and the gateway trace.
:func:`source_hashes` and :func:`sequence_hash` fingerprint them so two
runs can be compared only when they analysed the same inputs.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

#: Leading entries of each seeded sequence that enter its fingerprint.
PREFIX = 64

#: Zipf skew exponent of the query stream and the gateway trace.
SKEW = 1.1

#: Top-level MiniC function headers (return type at column 0).
_HEADER = re.compile(r"^[A-Za-z_][\w \*]*?([A-Za-z_]\w*)\s*\(.*\)\s*\{\s*$")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def program_sources(names: Sequence[str]) -> Dict[str, Tuple[int, str]]:
    """``name -> (scale, source)`` at the repository's bench scales."""
    from repro.harness.scales import BENCH_SCALES
    from repro.workloads import get_workload
    return {name: (BENCH_SCALES[name],
                   get_workload(name).source(BENCH_SCALES[name]))
            for name in names}


def source_hashes(sources: Dict[str, Tuple[int, str]]) -> Dict[str, str]:
    return {f"{name}@{scale}": sha256(text)
            for name, (scale, text) in sorted(sources.items())}


# -- single-function edits ---------------------------------------------------


@dataclass(frozen=True)
class Edit:
    """One edited program: *program*'s source with an address-taken
    store inserted at the top of *function*. The locals are named after
    *tag*, so every edit has a fresh function digest."""

    program: str
    function: str
    tag: int
    source: str

    @property
    def name(self) -> str:
        return f"{self.program}.edit{self.tag}"

    def describe(self) -> List[object]:
        return [self.program, self.function, self.tag, sha256(self.source)]


def functions(source: str) -> List[str]:
    """Non-``main`` function names of a MiniC source, in source order."""
    return [m.group(1) for line in source.split("\n")
            if (m := _HEADER.match(line)) and m.group(1) != "main"]


def apply_edit(source: str, function: str, tag: int) -> str:
    z, p = f"z_e{tag}", f"p_e{tag}"
    # Address-taken, so mem2reg cannot erase it: the function's
    # canonical IR is guaranteed to change.
    line = f"    int {z}; int *{p}; {p} = &{z}; *{p} = {tag % 7 + 1};"
    lines = source.split("\n")
    for i, text in enumerate(lines):
        m = _HEADER.match(text)
        if m and m.group(1) == function:
            return "\n".join(lines[:i + 1] + [line] + lines[i + 1:])
    raise ValueError(f"function {function!r} not found")


#: Functions of each program the edits cycle through.
EDIT_FUNCTIONS = 3


def edit_stream(bases: Dict[str, str], seed: int) -> Iterator[Edit]:
    """Endless edits rotating over *bases* (in the given order). Each
    program's edits cycle through a fixed sample of ``EDIT_FUNCTIONS``
    of its functions, evenly spaced in source order, in a seeded order:
    every run edits the same functions and the seed varies the order."""
    rng = random.Random(seed)
    cycles = {}
    for name, text in bases.items():
        fns = functions(text)
        sample = fns[::max(1, len(fns) // EDIT_FUNCTIONS)][:EDIT_FUNCTIONS]
        rng.shuffle(sample)
        cycles[name] = itertools.cycle(sample)
    for tag, program in enumerate(itertools.cycle(list(bases))):
        fn = next(cycles[program])
        yield Edit(program, fn, tag, apply_edit(bases[program], fn, tag))


# -- zipfian draws -------------------------------------------------------------


#: Seed of the rank order of every zipfian catalogue. The order is a
#: fixed shuffle, so every run has the same hot set and the run seed
#: varies only the draws.
RANKS_SEED = 0


class Zipf:
    """Zipf(``SKEW``) draws by *rng* over a catalogue in a fixed
    shuffled rank order."""

    def __init__(self, catalogue: Sequence[object], rng: random.Random
                 ) -> None:
        self.items = list(catalogue)
        random.Random(RANKS_SEED).shuffle(self.items)
        weights = [1.0 / rank ** SKEW
                   for rank in range(1, len(self.items) + 1)]
        total = sum(weights)
        self._cdf = list(itertools.accumulate(w / total for w in weights))
        self._cdf[-1] = 1.0
        self.rng = rng

    def draw(self) -> object:
        return self.items[bisect.bisect_left(self._cdf, self.rng.random())]


def query_catalogue(programs: Dict[str, object]) -> List[Tuple[str, str, bool]]:
    """``(program, name, obj)`` queries: every top-level variable and,
    as object queries, every global of each compiled module in
    *programs* (``name -> Module``)."""
    out: List[Tuple[str, str, bool]] = []
    for program, module in sorted(programs.items()):
        names = set()
        for fn in module.functions.values():
            names.update(param.name for param in fn.params)
            for instr in fn.instructions():
                dst = getattr(instr, "dst", None)
                if dst is not None and hasattr(dst, "id") \
                        and hasattr(dst, "name"):
                    names.add(dst.name)
        out.extend((program, name, False) for name in sorted(names))
        out.extend((program, name, True) for name in sorted(module.globals))
    return out


def query_stream(catalogue: Sequence[Tuple[str, str, bool]], seed: int
                 ) -> Iterator[Tuple[str, str, bool]]:
    zipf = Zipf(catalogue, random.Random(seed))
    while True:
        yield zipf.draw()  # type: ignore[misc]


# -- gateway trace -------------------------------------------------------------

#: Every ``EDIT_EVERY``-th gateway request is a fresh edit.
EDIT_EVERY = 20000
#: Share of the remaining gateway requests that are demand queries.
QUERY_SHARE = 0.3


def gateway_trace(analyze: Sequence[str], scales: Dict[str, int],
                  catalogue: Sequence[Tuple[str, str, bool]],
                  edits: Iterator[Edit], seed: int
                  ) -> Iterator[Tuple[str, Dict[str, object], object]]:
    """Endless ``(kind, entry, key)`` gateway requests: zipfian repeats
    of analyze requests over *analyze*, zipfian demand queries over
    *catalogue*, and a fresh edit every ``EDIT_EVERY`` requests. *key*
    names the oracle answer (program name, query tuple or the
    :class:`Edit`)."""
    rng = random.Random(seed)
    programs = Zipf(analyze, random.Random(rng.random()))
    queries = Zipf(catalogue, random.Random(rng.random()))
    for i in itertools.count(1):
        if i % EDIT_EVERY == 0:
            edit = next(edits)
            yield "edit", {"name": edit.name, "source": edit.source}, edit
        elif rng.random() < QUERY_SHARE:
            program, var, obj = queries.draw()  # type: ignore[misc]
            yield "query", {"op": "query", "workload": program,
                            "scale": scales[program], "var": var,
                            "obj": obj}, (program, var, obj)
        else:
            program = programs.draw()
            yield "analyze", {"workload": program,
                              "scale": scales[program]}, program


def sequence_hash(entries: Iterator[object], describe) -> str:
    """sha256 of the first ``PREFIX`` entries of a seeded sequence."""
    head = [describe(entry) for entry in itertools.islice(entries, PREFIX)]
    return sha256(json.dumps(head, sort_keys=True, default=str))
