"""Golden pins on the IR the frontend emits.

Lowering, mem2reg and the IR builder may be rewritten in any shape,
but the verified module ``compile_source`` returns must not move. For
each Table 1 program at scales 1, 2 and its bench scale, the fixture
pins the instruction count and a sha256 over ``print_module`` plus
every instruction's source line (the printer does not show lines).

Regenerate the fixture (only when the IR is meant to change) with::

    PYTHONPATH=src python -m tests.frontend.test_ir_pins --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

import pytest

from repro.frontend import compile_source
from repro.harness.scales import BENCH_SCALES
from repro.ir.printer import print_module
from repro.workloads import get_workload, workload_names

FIXTURE = os.path.join(os.path.dirname(__file__), "ir_pins.json")


def module_pin(name: str, scale: int) -> Dict[str, object]:
    module = compile_source(get_workload(name).source(scale), name=name)
    lines = [str(instr.line)
             for fn in module.functions.values()
             for instr in fn.instructions()]
    text = print_module(module) + "\n;; lines\n" + " ".join(lines)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"sha256": digest, "instructions": len(lines)}


def _scales(name: str) -> List[int]:
    return sorted({1, 2, BENCH_SCALES[name]})


def generate() -> Dict[str, object]:
    return {name: {str(scale): module_pin(name, scale)
                   for scale in _scales(name)}
            for name in workload_names()}


def _load_fixture() -> Dict[str, object]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", workload_names())
def test_workload_modules(name):
    expected = _load_fixture()[name]
    assert sorted(expected, key=int) == [str(s) for s in _scales(name)]
    for scale, pin in expected.items():
        assert module_pin(name, int(scale)) == pin


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.frontend.test_ir_pins --write")
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
