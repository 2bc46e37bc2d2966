"""Golden pins on the interference layer under each Figure 12 ablation.

``test_answer_pins`` pins what the default configuration answers. The
three ablations (No-Interleaving, No-Value-Flow, No-Lock) run other
code paths through MHP, value flow and the lock filter, so they get
their own pins here. For each run of ``FSAMConfig().ablated(phase)``
they pin:

- ``payload_digest``: the artifact's payload digest;
- ``thread_edges``: the number of [THREAD-VF] edges;
- ``edges_sha256``: a sha256 over the sorted [THREAD-VF] edge
  descriptors ``"<store index> <object index> <target index>"``, with
  canonical instruction indices and the universe's object index;
- ``counters``: the ``valueflow.*``, ``mhp.pair_queries``,
  ``mhp.pair_cache_hits`` and ``locks.*`` counters.

The fixture covers the ten Table 1 programs at scale 1, under the
default configuration and the three ablations, and the 300 generated
programs of ``answer_pins.json`` under the three ablations. Generated
programs are stored by the sha256 of their source and looked up in
that fixture.

Regenerate the fixture (only when an answer is meant to change) with::

    PYTHONPATH=src python -m tests.fsam.test_ablation_pins --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from typing import Dict, List

import pytest

from repro.frontend import compile_source
from repro.fsam import FSAM, FSAMConfig
from repro.ir.module import canonical_instr_index
from repro.service.artifacts import artifact_from_result
from repro.workloads import get_workload, workload_names

HERE = os.path.dirname(__file__)
FIXTURE = os.path.join(HERE, "ablation_pins.json")
ANSWER_FIXTURE = os.path.join(HERE, "answer_pins.json")

PHASES = ("interleaving", "value_flow", "lock_analysis")
COUNTER_PREFIXES = ("valueflow.", "locks.")
COUNTER_NAMES = ("mhp.pair_queries", "mhp.pair_cache_hits")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _edge_rows(result) -> List[str]:
    canon = canonical_instr_index(result.module)
    universe = result.solver.universe
    rows = []
    for src, obj, dst in result.dug.thread_edges:
        obj_idx = universe.index_of_id(obj.id)
        obj_key = str(obj_idx) if obj_idx is not None else f"?{obj.name}"
        rows.append(f"{canon[src.instr.id]} {obj_key} {canon[dst.instr.id]}")
    return sorted(rows)


def ablation_pins(result) -> Dict[str, object]:
    """The pinned record of one FSAM run."""
    counters = {name: value for name, value in result.obs.counters.items()
                if name.startswith(COUNTER_PREFIXES)
                or name in COUNTER_NAMES}
    return {
        "payload_digest": artifact_from_result("pin", result).payload_digest(),
        "thread_edges": len(result.dug.thread_edges),
        "edges_sha256": _sha256("\n".join(_edge_rows(result))),
        "counters": dict(sorted(counters.items())),
    }


def _run(source: str, config: FSAMConfig, name: str = "main"):
    return FSAM(compile_source(source, name=name), config).run()


def _configs(default: bool) -> Dict[str, FSAMConfig]:
    configs = {"default": FSAMConfig()} if default else {}
    for phase in PHASES:
        configs[phase] = FSAMConfig().ablated(phase)
    return configs


def _workload_source(name: str) -> str:
    return get_workload(name).source(1)


@functools.lru_cache(maxsize=1)
def _generated_sources() -> Dict[str, str]:
    """sha256 -> source of the generated programs ``answer_pins.json``
    holds, in its order."""
    with open(ANSWER_FIXTURE, encoding="utf-8") as handle:
        rows = json.load(handle)["generated"]
    return {_sha256(row["source"]): row["source"] for row in rows}


def generate() -> Dict[str, object]:
    workloads = {}
    for name in workload_names():
        source = _workload_source(name)
        workloads[name] = {
            config_name: ablation_pins(_run(source, config, name))
            for config_name, config in _configs(default=True).items()}
    generated = []
    for digest, source in _generated_sources().items():
        generated.append({
            "sha256": digest,
            "pins": {phase: ablation_pins(_run(source, config))
                     for phase, config in _configs(default=False).items()}})
    return {"workloads": workloads, "generated": generated}


# -- tests ---------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _load_fixture() -> Dict[str, object]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", workload_names())
def test_workload_ablations(name):
    expected = _load_fixture()["workloads"][name]
    source = _workload_source(name)
    for config_name, config in _configs(default=True).items():
        assert ablation_pins(_run(source, config, name)) \
            == expected[config_name], config_name


def test_fixture_covers_answer_pin_programs():
    pinned = [row["sha256"] for row in _load_fixture()["generated"]]
    assert pinned == list(_generated_sources())


@pytest.mark.parametrize("part", range(6))
def test_generated_ablations(part):
    sources = _generated_sources()
    for row in _load_fixture()["generated"][part::6]:
        source = sources[row["sha256"]]
        for phase, config in _configs(default=False).items():
            assert ablation_pins(_run(source, config)) \
                == row["pins"][phase], (phase, source)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.fsam.test_ablation_pins --write")
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
