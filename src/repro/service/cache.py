"""Content-addressed artifact cache.

Artifacts live on disk at ``<root>/<d[:2]>/<d[2:]>.json`` where ``d``
is the request digest (SHA-256 over source + fixpoint config + code
version, see :func:`repro.service.requests.request_digest`). The
layout is git-object style: two-hex-char fan-out directories keep any
single directory small.

Policies:

- **writes are atomic** (temp file + ``os.replace``), so a killed
  worker can never leave a truncated artifact that poisons later
  reads;
- **degraded artifacts are never stored** — a budget-exhausted
  Andersen-only result under the same key as the full result would be
  served to later, unbudgeted runs;
- **reads validate** the document schema and code version; a corrupt
  or version-stale entry reads as a miss, never as an error. Removal
  of a bad entry is *tolerant*: the slot is re-stat()ed and compared
  against the file that was actually read, so a fresh artifact that a
  concurrent worker just ``os.replace``d into the same slot is never
  unlinked — it is re-read and served instead.

Counters (``cache.hits`` / ``cache.misses`` / ``cache.stores`` /
``cache.corrupt`` / ``cache.stale``) flush into a
:class:`repro.obs.Observer` like any other pipeline stage.

The module also hosts :class:`FuncArtifactStore`, the per-function
sub-document layer (``repro.funcartifact/1``) of incremental
analysis: same fan-out layout under ``<root>/func/``, same atomic
writes and tolerant reads, keyed by per-function digests (see
:func:`repro.service.requests.function_digest`). No service front end
builds a ``FuncArtifactStore``; only
:func:`~repro.service.runner.run_request_inline` callers pass one.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro.obs import Observer
from repro.schemas import CODE_VERSION, FUNC_ARTIFACT_SCHEMA
from repro.service.artifacts import (
    AnalysisArtifact, validate_artifact, validate_funcartifact,
)


def _handle_sig(handle) -> Tuple[int, int, int]:
    """Identity of the open file: survives a concurrent os.replace of
    the path (the *path* then names a different inode)."""
    st = os.fstat(handle.fileno())
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _tolerant_drop(path: Path, sig: Optional[Tuple[int, int, int]]) -> bool:
    """Remove *path* only while it still names the entry we just read.

    Returns True when the slot now holds a *different* file — a
    concurrent worker ``os.replace``d a fresh artifact in after our
    failed read — in which case nothing is removed and the caller
    should re-read instead of discarding the fresh entry."""
    try:
        st = os.stat(path)
    except OSError:
        return False  # already gone: nothing left to drop
    if sig is None or (st.st_ino, st.st_size, st.st_mtime_ns) != sig:
        return True
    try:
        os.unlink(path)
    except OSError:
        pass
    return False


def _read_entry(path: Path, load: Callable[[Dict[str, object]], object],
                version: Callable[[object], object],
                bad: Callable[[str], None]) -> Optional[object]:
    """The read routine of every store: the entry at *path*, parsed and
    validated by *load*, or None on a miss.

    A ``"corrupt"`` entry (unreadable, or refused by *load*) and a
    ``"stale"`` one (whose *version* is not ``CODE_VERSION``) are
    reported to *bad*, dropped, and read as misses -- unless a
    concurrent writer already replaced the slot with a fresh entry,
    which is re-read once."""
    for retry in (True, False):
        sig = None
        try:
            with open(path) as handle:
                sig = _handle_sig(handle)
                value = load(json.load(handle))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, ValueError, KeyError, OSError):
            bad("corrupt")
        else:
            if version(value) == CODE_VERSION:
                return value
            bad("stale")
        if not (_tolerant_drop(path, sig) and retry):
            return None
    return None  # pragma: no cover - the second pass always returns


def _doc_version(doc: Dict[str, object]) -> object:
    return doc.get("code_version")


def _atomic_write(path: Path, doc: Dict[str, object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(doc, handle, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ArtifactCache:
    """A content-addressed store of ``repro.artifact/2`` documents.

    With *max_bytes* set, the cache is bounded: after every store the
    top-level artifact tree is walked (only the two-hex fan-out
    directories — the ``func/`` sub-store is never evicted from here)
    and the least-recently-used entries are removed until the total
    size fits. Recency is mtime: a cache hit ``os.utime``-touches the
    entry, so a hot artifact survives arbitrarily many eviction sweeps
    while cold ones age out. Evictions count in ``cache.evicted``.
    """

    def __init__(self, root, max_bytes: Optional[int] = None) -> None:
        self.root = Path(root)
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.stale = 0
        self.evicted = 0

    def path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest[2:]}.json"

    def get(self, digest: str) -> Optional[AnalysisArtifact]:
        """The cached artifact for *digest*, or None on miss. Corrupt
        and version-stale entries (structurally valid, but produced by
        other analysis code) are dropped and read as misses; see
        :func:`_read_entry`."""
        path = self.path(digest)
        artifact = _read_entry(path, AnalysisArtifact.from_dict,
                               lambda artifact: artifact.code_version,
                               self._count_bad)
        if artifact is None:
            self.misses += 1
            return None
        self.hits += 1
        if self.max_bytes is not None:
            # LRU touch: mark the entry recently used so the eviction
            # sweep ages out cold artifacts first.
            try:
                os.utime(path)
            except OSError:  # pragma: no cover - entry raced away
                pass
        return artifact

    def _count_bad(self, kind: str) -> None:
        if kind == "stale":
            self.stale += 1
        else:
            self.corrupt += 1

    def put(self, digest: str, artifact: AnalysisArtifact) -> Optional[Path]:
        """Store *artifact* under *digest*; returns the path, or None
        when the artifact is degraded (never cached)."""
        if artifact.degraded:
            return None
        path = self.path(digest)
        doc = artifact.to_dict()
        validate_artifact(doc)
        _atomic_write(path, doc)
        self.stores += 1
        if self.max_bytes is not None:
            self._evict()
        return path

    def _entries(self):
        """Every top-level artifact file as ``(mtime_ns, size, path)``.
        Only two-hex fan-out directories are scanned, so the ``func/``
        sub-store sharing this root is exempt."""
        entries = []
        try:
            fanouts = list(self.root.iterdir())
        except OSError:
            return entries
        for fanout in fanouts:
            name = fanout.name
            if len(name) != 2 or not fanout.is_dir() \
                    or any(c not in "0123456789abcdef" for c in name):
                continue
            try:
                files = list(fanout.iterdir())
            except OSError:  # pragma: no cover - racing eviction
                continue
            for file in files:
                if file.suffix != ".json":
                    continue
                try:
                    st = file.stat()
                except OSError:  # pragma: no cover - racing eviction
                    continue
                entries.append((st.st_mtime_ns, st.st_size, file))
        return entries

    def _evict(self) -> None:
        """Drop least-recently-used entries until the store fits
        ``max_bytes``."""
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        entries.sort()  # oldest mtime first
        for _, size, file in entries:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(file)
            except OSError:  # pragma: no cover - racing eviction
                continue
            total -= size
            self.evicted += 1

    # -- statistics --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "stale": self.stale,
            "evicted": self.evicted,
        }

    def flush_obs(self, obs: Observer) -> None:
        obs.count("cache.hits", self.hits)
        obs.count("cache.misses", self.misses)
        obs.count("cache.stores", self.stores)
        obs.count("cache.corrupt", self.corrupt)
        obs.count("cache.stale", self.stale)
        obs.count("cache.evicted", self.evicted)


class FuncArtifactStore:
    """Per-function artifact layer (``repro.funcartifact/1``).

    Lives under ``<root>/func/`` beside (usually inside) an
    :class:`ArtifactCache` root, with the same two-hex fan-out,
    atomic-write, and tolerant-read policies. Keys are per-function
    digests: H(canonical function IR + callee mod-ref signatures +
    fixpoint config + code version), so an entry hits exactly when
    nothing that can influence the function's local value flow or its
    calls' summaries has changed.
    """

    def __init__(self, root) -> None:
        self.root = Path(root) / "func"
        self.func_hits = 0
        self.func_misses = 0
        self.func_stores = 0
        self.corrupt = 0

    def path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest[2:]}.json"

    def get(self, digest: str) -> Optional[Dict[str, object]]:
        """The validated funcartifact document for *digest*, or None.
        A corrupt or version-stale entry counts as ``corrupt``."""
        doc = _read_entry(self.path(digest), validate_funcartifact,
                          _doc_version, self._count_bad)
        if doc is None:
            self.func_misses += 1
            return None
        self.func_hits += 1
        return doc  # type: ignore[return-value]

    def _count_bad(self, _kind: str) -> None:
        self.corrupt += 1

    def put(self, digest: str, doc: Dict[str, object]) -> Path:
        if doc.get("schema") != FUNC_ARTIFACT_SCHEMA:
            raise ValueError(f"not a funcartifact document: {doc.get('schema')}")
        path = self.path(digest)
        _atomic_write(path, doc)
        self.func_stores += 1
        return path

    # -- statistics --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "func_hits": self.func_hits,
            "func_misses": self.func_misses,
            "func_stores": self.func_stores,
            "corrupt": self.corrupt,
        }

    def flush_obs(self, obs: Observer) -> None:
        obs.count("cache.func_hits", self.func_hits)
        obs.count("cache.func_misses", self.func_misses)
        obs.count("cache.func_stores", self.func_stores)

