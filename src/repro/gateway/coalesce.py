"""Request coalescing: identical in-flight work runs once.

Two requests are *identical* when they share a coalesce key — the
analysis content digest for ``analyze`` (source + fixpoint config +
code version), the query digest for ``query`` — so by construction
they would compute byte-identical results.  The first arrival becomes
the **leader** and is actually scheduled; later arrivals **attach**
to the same :class:`InflightJob` and receive every event the leader's
computation publishes (including a replay of events that already
streamed before they attached).  Each subscriber renders its own
``repro.gwframe/1`` frames, so the shared events fan out with
per-request ``id``/``seq`` while the bodies stay bit-identical.

The table only coalesces *in-flight* work: the job is dropped from
the table the moment its final event publishes, after which the next
identical request goes to the cache instead.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

#: One published event: (kind, body, final). Bodies are shared (and
#: therefore treated as immutable) across subscribers.
Event = Tuple[str, Dict[str, object], bool]


class InflightJob:
    """One in-flight computation plus its subscribers."""

    def __init__(self, key: str, kind: str) -> None:
        self.key = key
        self.kind = kind               # "analyze" | "query"
        self.events: List[Event] = []  # published so far (for replay)
        self.subscribers: List[asyncio.Queue] = []
        self.done = False
        #: Followers that attached after the leader (the coalesce count).
        self.followers = 0
        #: The ``repro.metrics/1`` span of the shard run that answered,
        #: set by the gateway before the final event publishes; None
        #: for disk hits, errors, hot answers and degraded fallbacks.
        #: It never enters a frame body.
        self.span: Optional[Dict[str, object]] = None

    def subscribe(self) -> asyncio.Queue:
        """Attach one response stream; already-published events are
        replayed into the fresh queue so late followers still see the
        Andersen preview before the final frame."""
        queue: asyncio.Queue = asyncio.Queue()
        for event in self.events:
            queue.put_nowait(event)
        if not self.done:
            self.subscribers.append(queue)
        return queue

    def publish(self, kind: str, body: Dict[str, object],
                final: bool = False) -> None:
        if self.done:
            raise RuntimeError(f"job {self.key} already finished")
        event: Event = (kind, body, final)
        self.events.append(event)
        for queue in self.subscribers:
            queue.put_nowait(event)
        if final:
            self.done = True
            self.subscribers.clear()


class CoalesceTable:
    """Key -> in-flight job, with coalesce accounting."""

    def __init__(self) -> None:
        self._inflight: Dict[str, InflightJob] = {}
        self.coalesced = 0      # follower attaches to live jobs
        self.started = 0        # leader jobs created

    def __len__(self) -> int:
        return len(self._inflight)

    def get(self, key: str) -> Optional[InflightJob]:
        return self._inflight.get(key)

    def join(self, key: str, kind: str) -> Tuple[InflightJob, bool]:
        """Attach to (or create) the in-flight job for *key*.
        Returns ``(job, is_leader)``."""
        job = self._inflight.get(key)
        if job is not None:
            job.followers += 1
            self.coalesced += 1
            return job, False
        job = InflightJob(key, kind)
        self._inflight[key] = job
        self.started += 1
        return job, True

    def finish(self, key: str) -> None:
        """Drop *key* from the table (idempotent).  Call after the
        final event published — later identical requests must go to
        the cache, not to a dead job."""
        self._inflight.pop(key, None)
