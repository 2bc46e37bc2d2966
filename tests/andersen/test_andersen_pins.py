"""Golden pins on the Andersen pre-analysis's answers.

The pre-analysis may collapse cycles, order its waves and pick union
representatives however it likes, but the fixpoint it reaches must not
move. For one :func:`run_andersen` over a compiled program these pins
record:

- ``temps``: the points-to set of every temp, keyed by canonical temp
  index (:func:`repro.ir.module.canonical_temps`);
- ``objects``: the content points-to set of every memory object, keyed
  by its dense index in the run's universe;
- ``callgraph``: the on-the-fly call-graph edges, keyed by the
  canonical instruction index of the call or fork site, with the
  sorted callee names as the value.

Empty sets and sites without a callee are left out. Each pin is a
sha256 plus a row count. The fixture covers the ten Table 1 programs
at their bench scales and the 300 generated programs stored in
``tests/fsam/answer_pins.json`` (each row names its source's sha256).

Regenerate the fixture (only when an answer is meant to change) with::

    PYTHONPATH=src python -m tests.andersen.test_andersen_pins --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from typing import Dict, List

import pytest

from repro.andersen import run_andersen
from repro.frontend import compile_source
from repro.harness.scales import BENCH_SCALES
from repro.ir.module import canonical_instr_index, canonical_temps
from repro.pts import mask_to_hex
from repro.workloads import get_workload, workload_names

FIXTURE = os.path.join(os.path.dirname(__file__), "andersen_pins.json")
ANSWER_PINS = os.path.join(os.path.dirname(__file__), os.pardir, "fsam",
                           "answer_pins.json")


def _pin(rows: List[str]) -> Dict[str, object]:
    rows = sorted(rows)
    digest = hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()
    return {"sha256": digest, "count": len(rows)}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def andersen_pins(source: str, name: str = "main") -> Dict[str, object]:
    """The three pins of one pre-analysis of *source*."""
    module = compile_source(source, name=name)
    result = run_andersen(module)
    universe = result.universe
    temps = []
    for idx, temp in enumerate(canonical_temps(module)):
        pts = result.pts(temp)
        if pts:
            temps.append(f"{idx} {mask_to_hex(pts.mask)}")
    objects = []
    for idx in range(len(universe)):
        pts = result.pts(universe.object_at(idx))
        if pts:
            objects.append(f"{idx} {mask_to_hex(pts.mask)}")
    canon = canonical_instr_index(module)
    callgraph = []
    for site in result.callgraph.call_sites():
        callees = sorted(fn.name for fn in result.callgraph.callees(site))
        if callees:
            callgraph.append(f"{canon[site.id]} {','.join(callees)}")
    return {"temps": _pin(temps), "objects": _pin(objects),
            "callgraph": _pin(callgraph)}


def _workload_source(name: str) -> str:
    return get_workload(name).source(BENCH_SCALES[name])


def generated_sources() -> List[str]:
    with open(ANSWER_PINS, encoding="utf-8") as handle:
        return [row["source"] for row in json.load(handle)["generated"]]


def generate() -> Dict[str, object]:
    return {
        "workloads": {name: {"scale": BENCH_SCALES[name],
                             "pins": andersen_pins(_workload_source(name),
                                                   name)}
                      for name in workload_names()},
        "generated": [{"source_sha256": _sha(source),
                       "pins": andersen_pins(source)}
                      for source in generated_sources()],
    }


# -- tests ---------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _load_fixture() -> Dict[str, object]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", workload_names())
def test_workload_andersen(name):
    expected = _load_fixture()["workloads"][name]
    assert expected["scale"] == BENCH_SCALES[name]
    assert andersen_pins(_workload_source(name), name) == expected["pins"]


def test_fixture_matches_answer_pin_sources():
    rows = _load_fixture()["generated"]
    assert [row["source_sha256"] for row in rows] \
        == [_sha(source) for source in generated_sources()]


@pytest.mark.parametrize("part", range(3))
def test_generated_andersen(part):
    rows = _load_fixture()["generated"]
    sources = generated_sources()
    for index in range(part, len(rows), 3):
        assert andersen_pins(sources[index]) == rows[index]["pins"], \
            sources[index]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.andersen.test_andersen_pins --write")
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
