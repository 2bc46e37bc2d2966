"""FSAM configuration and time budgeting."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional


class AnalysisTimeout(Exception):
    """Raised when an analysis exceeds its time budget (the paper's
    OOT condition in Table 2)."""


class Deadline:
    """A wall-clock budget checked inside solver loops."""

    def __init__(self, seconds: Optional[float] = None) -> None:
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self) -> None:
        if self.seconds is not None and time.perf_counter() - self.start > self.seconds:
            raise AnalysisTimeout(f"exceeded {self.seconds:.0f}s budget")

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


@dataclass
class FSAMConfig:
    """Phase toggles and solver policy.

    The three booleans mirror the paper's Figure 12 ablations:

    - ``interleaving=False``    -> No-Interleaving (coarse PCG-style MHP)
    - ``value_flow=False``      -> No-Value-Flow (AS(*p,*q) disregarded)
    - ``lock_analysis=False``   -> No-Lock (no span filtering)

    Every configuration applies Figure 10's strong-update rule
    literally: a store whose pointer resolves to one singleton object
    updates it strongly, whether or not a concurrent thread touches
    it. [THREAD-VF] edges carry every MHP writer's value to every MHP
    reader, and join chis merge the spawner's in-flight defs weakly,
    so no concurrent write is lost (DESIGN.md, design note 1).
    """

    interleaving: bool = True
    value_flow: bool = True
    lock_analysis: bool = True
    # Wall-clock budget for the whole analysis (None = unbounded).
    time_budget: Optional[float] = None
    # Which sparse solver engine to run: "delta" (default; delta
    # propagation over an SCC-condensed topological worklist) or
    # "reference" (the retained naive FIFO recompute-from-preds
    # engine). Both compute the same fixpoint — the reference engine
    # exists as the differential-testing oracle and for benchmarking
    # the optimisation itself.
    solver_engine: str = "delta"

    def to_dict(self) -> dict:
        """Every field as a JSON-able dict (the wire form used by the
        batch service to ship configs across process boundaries)."""
        return {
            "interleaving": self.interleaving,
            "value_flow": self.value_flow,
            "lock_analysis": self.lock_analysis,
            "time_budget": self.time_budget,
            "solver_engine": self.solver_engine,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FSAMConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected so a
        typo in a batch spec fails loudly instead of silently running
        the default config."""
        known = set(cls().to_dict())
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FSAMConfig field(s): {sorted(unknown)}")
        return cls(**data)

    def cache_key_dict(self) -> dict:
        """The subset of fields that determine the analysis *fixpoint*
        — the config part of the artifact cache key. Excluded on
        purpose: ``time_budget`` (changes whether the run finishes,
        not what it computes; degraded results are never cached) and
        ``solver_engine`` (both engines compute the same fixpoint,
        pinned by the differential suite)."""
        return {
            "interleaving": self.interleaving,
            "value_flow": self.value_flow,
            "lock_analysis": self.lock_analysis,
        }

    def ablated(self, phase: str) -> "FSAMConfig":
        """A copy with one named phase turned off ('interleaving',
        'value_flow', or 'lock_analysis')."""
        if phase not in ("interleaving", "value_flow", "lock_analysis"):
            raise ValueError(f"unknown phase {phase!r}")
        kwargs = self.to_dict()
        kwargs[phase] = False
        return FSAMConfig(**kwargs)
