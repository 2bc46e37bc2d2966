"""``repro trace`` writes the same bytes in every process.

The JSONL carries no timing field, so two fresh processes tracing the
same file must agree byte for byte: state ids, event order and span
order may not follow object addresses or string hashes.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.workloads import get_workload

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _trace(path: str, out: str, hash_seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    subprocess.run([sys.executable, "-m", "repro", "trace", path,
                    "--out", out], check=True, env=env,
                   stdout=subprocess.DEVNULL, timeout=300)
    with open(out, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("name", ["httpd_server", "mt_daapd"])
def test_trace_is_identical_across_processes(name, tmp_path):
    path = tmp_path / f"{name}.mc"
    path.write_text(get_workload(name).source(2))
    first = _trace(str(path), str(tmp_path / "a.jsonl"), "1")
    second = _trace(str(path), str(tmp_path / "b.jsonl"), "2")
    assert first, "empty trace"
    assert first == second
