"""Extension bench: IR simplification's effect on analysis cost.

Mirrors the role of LLVM's cleanup passes in the paper's setup:
copy propagation + DCE + CFG simplification shrink the IR the
analyses see; this bench reports the instruction-count reduction and
the FSAM end-to-end effect per workload.
"""

import pytest

from repro.frontend import compile_source
from repro.fsam import FSAM
from repro.workloads import get_workload, workload_names

SCALE = 1


def instr_count(module):
    return sum(1 for _ in module.all_instructions())


@pytest.mark.parametrize("name", workload_names())
def test_simplify_impact(benchmark, name):
    source = get_workload(name).source(SCALE)

    def run_both():
        plain_mod = compile_source(source, name=name)
        plain_n = instr_count(plain_mod)
        plain = FSAM(plain_mod).run()
        slim_mod = compile_source(source, name=name, simplify=True)
        slim_n = instr_count(slim_mod)
        slim = FSAM(slim_mod).run()
        return plain_n, slim_n, plain, slim

    plain_n, slim_n, plain, slim = benchmark.pedantic(run_both, rounds=1,
                                                      iterations=1)
    shrink = 1.0 - slim_n / plain_n
    plain_ms = plain.obs.phase_seconds()["sparse_solve"] * 1000
    slim_ms = slim.obs.phase_seconds()["sparse_solve"] * 1000
    print(f"\n[{name}] IR {plain_n} -> {slim_n} instructions "
          f"({shrink * 100.0:.1f}% smaller), "
          f"solve {plain_ms:.1f}ms -> {slim_ms:.1f}ms")
    assert slim_n <= plain_n
