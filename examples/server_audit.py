#!/usr/bin/env python3
"""Audit a server-style workload with the full FSAM toolbox.

Uses the httpd_server benchmark generator as the subject: prints the
thread model (detached multi-forked workers!), lock-release span
statistics, value-flow interference numbers, and the points-to
precision gap versus the traditional data-flow baseline.

Run:  python examples/server_audit.py
"""

import time

from repro.baseline import NonSparseAnalysis
from repro.frontend import compile_source
from repro.fsam import FSAM, FSAMConfig
from repro.mt import LockAnalysis
from repro.workloads import get_workload, source_loc


def main() -> None:
    workload = get_workload("httpd_server")
    source = workload.source(1)
    print(f"subject: {workload.name} — {workload.description}")
    print(f"generated LOC: {source_loc(source)} "
          f"(paper original: {workload.paper_loc})\n")

    module = compile_source(source, name="httpd_server")
    start = time.perf_counter()
    result = FSAM(module).run()
    fsam_time = time.perf_counter() - start

    print("=== thread model ===")
    for thread in result.thread_model.threads:
        detached = ""
        if not thread.is_main and thread.id not in {
                tid for joined in result.thread_model.fully_joined.values()
                for tid in joined}:
            detached = "  [never joined]"
        print(f"  {thread!r}{detached}")

    print("\n=== lock-release spans ===")
    locks = LockAnalysis(result.thread_model, result.andersen,
                         result.dug, result.builder)
    per_lock = {}
    for span in locks.spans:
        per_lock.setdefault(span.lock_obj.name, 0)
        per_lock[span.lock_obj.name] += 1
    for lock_name, count in sorted(per_lock.items()):
        print(f"  {lock_name}: {count} span(s)")

    print("\n=== value-flow interference ===")
    counter = result.obs.counter
    print(f"  {counter('valueflow.candidate_pairs')} candidates, "
          f"{counter('valueflow.mhp_pairs')} MHP, "
          f"{counter('valueflow.lock_filtered')} lock-filtered, "
          f"{counter('valueflow.edges_added')} edges")

    print("\n=== FSAM vs NONSPARSE ===")
    module2 = compile_source(source, name="httpd_server")
    start = time.perf_counter()
    baseline = NonSparseAnalysis(module2, FSAMConfig(time_budget=120)).run()
    base_time = time.perf_counter() - start
    print(f"  FSAM:      {fsam_time:6.2f}s, "
          f"{result.points_to_entries():8d} points-to entries")
    print(f"  NONSPARSE: {base_time:6.2f}s, "
          f"{baseline.points_to_entries():8d} points-to entries")
    print(f"  -> {base_time / fsam_time:.1f}x faster, "
          f"{baseline.points_to_entries() / result.points_to_entries():.1f}x "
          f"less analysis state")


if __name__ == "__main__":
    main()
