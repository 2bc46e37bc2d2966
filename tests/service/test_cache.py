"""Content-addressed artifact cache policies."""

import json
import os

from repro.frontend import compile_source
from repro.fsam import FSAM, FSAMConfig
from repro.obs import Observer
from repro.schemas import CODE_VERSION, FUNC_ARTIFACT_SCHEMA
from repro.service.artifacts import AnalysisArtifact, artifact_from_result
from repro.service.cache import (
    ArtifactCache, FuncArtifactStore, _atomic_write, _handle_sig,
    _tolerant_drop,
)
from repro.workloads import get_workload

DIGEST = "ab" * 32


def _artifact():
    source = get_workload("word_count").source(1)
    result = FSAM(compile_source(source), FSAMConfig()).run()
    return artifact_from_result("word_count", result)


class TestCacheRoundTrip:
    def test_miss_store_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get(DIGEST) is None
        artifact = _artifact()
        path = cache.put(DIGEST, artifact)
        assert path is not None and path.exists()
        back = cache.get(DIGEST)
        assert back is not None
        assert back.payload_digest() == artifact.payload_digest()
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1,
                                 "corrupt": 0, "stale": 0, "evicted": 0}

    def test_entry_with_profile_copy_is_a_hit(self, tmp_path):
        # Artifacts once carried a copy of the run's repro.obs/1
        # profile; such entries stay valid hits (same CODE_VERSION,
        # same payload), and the copy is dropped on load.
        cache = ArtifactCache(tmp_path)
        artifact = _artifact()
        cache.put(DIGEST, artifact)
        doc = json.loads(cache.path(DIGEST).read_text())
        doc["profile"] = Observer(name="word_count").to_dict()
        cache.path(DIGEST).write_text(json.dumps(doc))
        back = cache.get(DIGEST)
        assert back is not None and cache.hits == 1
        assert back.payload_digest() == artifact.payload_digest()
        assert "profile" not in back.to_dict()

    def test_fanout_layout(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.path(DIGEST)
        assert path.parent.name == DIGEST[:2]
        assert path.name == f"{DIGEST[2:]}.json"

    def test_degraded_never_stored(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        artifact = _artifact()
        artifact.degraded = True
        artifact.degraded_reason = "budget-exhausted"
        assert cache.put(DIGEST, artifact) is None
        assert cache.stores == 0
        assert cache.get(DIGEST) is None


class TestCacheInvalidation:
    def test_corrupt_entry_reads_as_miss_and_is_removed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.path(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_text("{ truncated")
        assert cache.get(DIGEST) is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_schema_invalid_entry_is_corrupt(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.path(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": "repro.artifact/1"}))
        assert cache.get(DIGEST) is None
        assert cache.corrupt == 1

    def test_stale_code_version_reads_as_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        artifact = _artifact()
        cache.put(DIGEST, artifact)
        doc = json.loads(cache.path(DIGEST).read_text())
        doc["code_version"] = "fsam-0.0.0/artifact-0"
        cache.path(DIGEST).write_text(json.dumps(doc))
        assert cache.get(DIGEST) is None
        assert cache.corrupt == 0        # stale, not corrupt
        assert cache.stale == 1
        assert not cache.path(DIGEST).exists()

    def test_rewrite_after_stale_drop(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        artifact = _artifact()
        cache.put(DIGEST, artifact)
        doc = json.loads(cache.path(DIGEST).read_text())
        doc["code_version"] = "old"
        cache.path(DIGEST).write_text(json.dumps(doc))
        assert cache.get(DIGEST) is None
        cache.put(DIGEST, artifact)
        assert isinstance(cache.get(DIGEST), AnalysisArtifact)


class TestTolerantDrop:
    """The unlink-by-path race: a corrupt read must never delete a
    fresh artifact a concurrent worker just ``os.replace``d into the
    same slot."""

    def test_drops_only_the_file_that_was_read(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("{ truncated")
        with open(path) as handle:
            sig = _handle_sig(handle)
        assert _tolerant_drop(path, sig) is False
        assert not path.exists()

    def test_replaced_slot_is_preserved(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("{ truncated")
        with open(path) as handle:
            sig = _handle_sig(handle)
        # A concurrent worker lands a fresh entry in the slot between
        # our failed read and the drop.
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps({"fresh": True}))
        os.replace(fresh, path)
        assert _tolerant_drop(path, sig) is True
        assert path.exists()
        assert json.loads(path.read_text()) == {"fresh": True}

    def test_missing_file_is_a_noop(self, tmp_path):
        assert _tolerant_drop(tmp_path / "gone.json", None) is False

    def test_get_retries_and_serves_concurrently_replaced_entry(
            self, tmp_path, monkeypatch):
        """End to end through ``ArtifactCache.get``: the first read hits
        a corrupt entry, a concurrent writer replaces the slot before
        the drop, and the retry serves the fresh artifact instead of
        unlinking it."""
        cache = ArtifactCache(tmp_path)
        artifact = _artifact()
        path = cache.path(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_text("{ truncated")

        real_load = json.load
        state = {"reads": 0}

        def racy_load(handle):
            state["reads"] += 1
            if state["reads"] == 1:
                # Simulate the concurrent os.replace landing after our
                # read but before the tolerant drop.
                _atomic_write(path, artifact.to_dict())
                raise json.JSONDecodeError("truncated", "{", 1)
            return real_load(handle)

        monkeypatch.setattr(json, "load", racy_load)
        back = cache.get(DIGEST)
        assert back is not None
        assert back.payload_digest() == artifact.payload_digest()
        assert cache.corrupt == 1
        assert cache.hits == 1 and cache.misses == 0
        assert path.exists()


def _funcdoc(**overrides):
    doc = {
        "schema": FUNC_ARTIFACT_SCHEMA,
        "code_version": CODE_VERSION,
        "function": "main",
        "digest": "cd" * 32,
        "context_sig": "ef" * 32,
        "objects": ["stack:main::x", "heap:malloc.l+2@main"],
        "top": {"0": "0x1", "3": "0x3"},
        "mem": {"0:1": "0x2"},
    }
    doc.update(overrides)
    return doc


class TestFuncArtifactStore:
    def test_round_trip(self, tmp_path):
        store = FuncArtifactStore(tmp_path)
        digest = "cd" * 32
        assert store.get(digest) is None
        path = store.put(digest, _funcdoc())
        assert path.exists()
        assert str(path).startswith(str(tmp_path / "func"))
        back = store.get(digest)
        assert back == _funcdoc()
        assert store.stats() == {"func_hits": 1, "func_misses": 1,
                                 "func_stores": 1, "corrupt": 0}

    def test_put_rejects_non_funcartifact(self, tmp_path):
        store = FuncArtifactStore(tmp_path)
        try:
            store.put("cd" * 32, {"schema": "repro.artifact/1"})
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")

    def test_stale_code_version_reads_as_miss(self, tmp_path):
        store = FuncArtifactStore(tmp_path)
        digest = "cd" * 32
        store.put(digest, _funcdoc(code_version="fsam-0.0.0/func-0"))
        assert store.get(digest) is None
        assert store.corrupt == 1
        assert not store.path(digest).exists()

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = FuncArtifactStore(tmp_path)
        digest = "cd" * 32
        path = store.path(digest)
        path.parent.mkdir(parents=True)
        path.write_text("{ truncated")
        assert store.get(digest) is None
        assert store.corrupt == 1
        assert not path.exists()

    def test_flush_obs(self, tmp_path):
        store = FuncArtifactStore(tmp_path)
        store.get("cd" * 32)
        store.put("cd" * 32, _funcdoc())
        store.get("cd" * 32)
        obs = Observer(name="t")
        store.flush_obs(obs)
        assert obs.counters["cache.func_hits"] == 1
        assert obs.counters["cache.func_misses"] == 1
        assert obs.counters["cache.func_stores"] == 1


class TestCacheObs:
    def test_flush_obs(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.get(DIGEST)
        cache.put(DIGEST, _artifact())
        cache.get(DIGEST)
        obs = Observer(name="t")
        cache.flush_obs(obs)
        assert obs.counters["cache.hits"] == 1
        assert obs.counters["cache.misses"] == 1
        assert obs.counters["cache.stores"] == 1
        assert obs.counters["cache.corrupt"] == 0
