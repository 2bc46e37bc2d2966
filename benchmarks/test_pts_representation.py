"""Interned bitset points-to representation: no-regression benchmark.

Guards the PTSet change (see DESIGN.md "Points-to representation"):
on the largest registry workload FSAM must be no slower than the
pre-interning code, the ``points_to_entries`` proxy must count the
same facts (storage is shared, the fact count is not deduplicated),
and interning must actually deduplicate (many references per distinct
set).

The pre-interning code is the repository's seed commit. The wall-clock
test extracts its ``src/`` with ``git archive`` and times both trees
on the same host in alternated fresh processes, so the bound compares
code, not machines. It is skipped when the seed commit is not in the
checkout (a shallow clone).
"""

import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

from repro.frontend import compile_source
from repro.fsam import FSAM
from repro.harness.scales import BENCH_SCALES
from repro.workloads import get_workload

# Largest registry workload by paper line count (x264: 113,481 LOC in
# Table 1; raytrace is the other OOT-class program but runs ~6x
# longer, so x264 keeps the suite fast).
WORKLOAD = "x264"

REPO = Path(__file__).resolve().parents[1]

# The pre-interning code, with Set[MemObject] states. On x264@6 it
# stores 7782 points-to entries; reading that back confirms it analysed
# the same input. The representation change measured ~25% *faster*
# than it, so the 25% slack for noise never masks a real regression.
# The entry count at HEAD is re-pinned at 6334 since memory SSA stopped
# making call-site mu nodes and unread formal-outs: those nodes only
# held copies of states stored elsewhere, so FSAM now stores fewer
# facts for the same answers.
SEED_COMMIT = "6648e49"
SEED_ENTRIES = 7782
BASELINE_ENTRIES = 6334
SLACK = 1.25
RUNS = 3

# One measure_fsam (compile, then FSAM under tracemalloc) in a fresh
# process: argv is the workload name and the source file.
_MEASURE = """
import json, sys
from repro.harness.measure import measure_fsam
with open(sys.argv[2]) as handle:
    m = measure_fsam(sys.argv[1], handle.read())
print(json.dumps({"seconds": m.seconds, "entries": m.points_to_entries,
                  "oot": m.oot}))
"""

_RESULT = {}


def _seed_src(dest: Path) -> Path:
    """The seed commit's ``src/``, extracted under *dest*."""
    try:
        archive = subprocess.run(
            ["git", "-C", str(REPO), "archive", "--format=tar", SEED_COMMIT,
             "src"], capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        pytest.skip(f"seed commit {SEED_COMMIT} is not in this checkout "
                    f"(a shallow clone?)")
    extract = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **extract)
    return dest / "src"


def _measure(src: Path, source_file: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _MEASURE, WORKLOAD, str(source_file)],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_fsam_wallclock_at_or_below_baseline(tmp_path):
    seed = _seed_src(tmp_path / "seed")
    source_file = tmp_path / f"{WORKLOAD}.mc"
    source_file.write_text(
        get_workload(WORKLOAD).source(BENCH_SCALES[WORKLOAD]))

    runs = {"seed": [], "head": []}
    for _ in range(RUNS):
        for side, src in (("seed", seed), ("head", REPO / "src")):
            runs[side].append(_measure(src, source_file))
    assert all(run["entries"] == SEED_ENTRIES for run in runs["seed"]), \
        f"the seed analysed a different input: {runs['seed']}"
    assert not any(run["oot"] for side in runs.values() for run in side)
    _RESULT["fsam"] = runs["head"][-1]

    seed_s, head_s = (statistics.median(run["seconds"] for run in runs[side])
                      for side in ("seed", "head"))
    print(f"\n{WORKLOAD}: median of {RUNS} alternated runs, "
          f"seed {seed_s:.2f}s, HEAD {head_s:.2f}s")
    assert head_s <= seed_s * SLACK, (
        f"{WORKLOAD}: FSAM took {head_s:.2f}s, above the pre-interning "
        f"seed's {seed_s:.2f}s on this host "
        f"(+{(SLACK - 1) * 100:.0f}% slack)")


def test_points_to_entries_unchanged():
    measurement = _RESULT.get("fsam")
    if measurement is None:
        pytest.skip("wall-clock benchmark did not run")
    # Popcount counting keeps the Table 2 proxy identical to the
    # pre-interning per-element counting.
    assert measurement["entries"] == BASELINE_ENTRIES


def test_interning_deduplicates():
    source = get_workload(WORKLOAD).source(BENCH_SCALES[WORKLOAD])
    module = compile_source(source, name=WORKLOAD)
    result = FSAM(module).run()
    stats = result.solver.universe.stats()
    print(f"\npts universe: {stats['distinct_sets']} distinct sets, "
          f"{stats['set_references']} references, "
          f"dedup ratio {stats['dedup_ratio']:.1f}x")
    assert stats["dedup_ratio"] > 1.0
