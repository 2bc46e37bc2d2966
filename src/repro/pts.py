"""Interned bitset points-to sets.

Every solver in the pipeline (Andersen pre-analysis, the sparse FSAM
solver, the NONSPARSE baseline) keeps per-variable or per-program-point
points-to sets and spends most of its time unioning and comparing
them. This module replaces the ``Set[MemObject]`` representation with
a compact shared one:

- :class:`PTUniverse` assigns each :class:`MemObject` a dense integer
  index on first sight, so a points-to set becomes a bitmask over the
  universe (one Python ``int``).
- :class:`PTSet` is an *immutable*, *interned* (hash-consed) bitmask
  wrapper: for a given universe there is exactly one ``PTSet``
  instance per distinct mask, so equality is ``O(1)`` (mask compare,
  and in practice identity), union/intersection are single big-int
  operations, and a set that appears at a thousand program points is
  stored once.

The universe also keeps the counters behind the dedup-ratio statistic
reported by ``benchmarks/test_pts_representation.py`` (total set
references handed out / distinct interned sets).

``PTSet`` is deliberately duck-typed against ``frozenset[MemObject]``:
it iterates ``MemObject``s, supports ``in``/``len``/``bool``, and its
binary operators accept plain sets (registering any unseen objects),
so query-layer code and tests that compare against ``{obj}`` literals
keep working unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.ir.values import MemObject
from repro.obs import Observer


if hasattr(int, "bit_count"):  # Python >= 3.10
    def _popcount(mask: int) -> int:
        return mask.bit_count()
else:
    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


class PTSet:
    """An immutable, interned points-to set backed by an int bitmask.

    Never constructed directly: obtained from a :class:`PTUniverse`
    (``universe.empty``, ``universe.make(...)``, set operators), which
    guarantees one instance per distinct mask. Because of interning,
    ``a | b is a`` exactly when ``b`` adds nothing — solvers use that
    identity as their delta check.
    """

    __slots__ = ("universe", "mask")

    def __init__(self, universe: "PTUniverse", mask: int) -> None:
        self.universe = universe
        self.mask = mask

    # -- coercion ---------------------------------------------------------

    def _mask_of(self, other) -> int:
        if isinstance(other, PTSet):
            return other.mask
        return self.universe.make(other).mask

    # -- set protocol -----------------------------------------------------

    def __len__(self) -> int:
        return _popcount(self.mask)

    def __bool__(self) -> bool:
        return self.mask != 0

    def __iter__(self) -> Iterator[MemObject]:
        objects = self.universe._objects
        mask = self.mask
        while mask:
            low = mask & -mask
            yield objects[low.bit_length() - 1]
            mask ^= low

    def __contains__(self, obj: object) -> bool:
        if not isinstance(obj, MemObject):
            return False
        index = self.universe._indices.get(obj.id)
        return index is not None and (self.mask >> index) & 1 == 1

    def __or__(self, other) -> "PTSet":
        mask = self.mask | self._mask_of(other)
        if mask == self.mask:
            return self  # other adds nothing: delta checks rely on this
        return self.universe.from_mask(mask)

    __ror__ = __or__

    def __and__(self, other) -> "PTSet":
        mask = self.mask & self._mask_of(other)
        if mask == self.mask:
            return self
        return self.universe.from_mask(mask)

    __rand__ = __and__

    def __sub__(self, other) -> "PTSet":
        return self.universe.from_mask(self.mask & ~self._mask_of(other))

    def __rsub__(self, other) -> "PTSet":
        return self.universe.from_mask(self._mask_of(other) & ~self.mask)

    def issubset(self, other) -> bool:
        return self.mask & ~self._mask_of(other) == 0

    def issuperset(self, other) -> bool:
        other_mask = self._mask_of(other)
        return other_mask & ~self.mask == 0

    def isdisjoint(self, other) -> bool:
        return self.mask & self._mask_of(other) == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PTSet):
            if other.universe is self.universe:
                return other is self  # interned: one instance per mask
            return set(self) == set(other)
        if isinstance(other, (set, frozenset)):
            if len(other) != len(self):
                return False
            return all(o in self for o in other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return "{%s}" % ", ".join(sorted(o.name for o in self))


def mask_to_hex(mask: int) -> str:
    """Serialize a points-to bitmask as a compact hex string.

    The artifact wire format for :attr:`PTSet.mask`: hex keeps large
    masks about 4x smaller than decimal in JSON and round-trips
    arbitrary-precision ints exactly.
    """
    return format(mask, "x")


class PTUniverse:
    """Dense ``MemObject`` numbering plus the intern table for
    :class:`PTSet`.

    One universe lives for one analysis pipeline run (it is created by
    the Andersen pre-analysis and shared by everything downstream), so
    masks from different runs are never mixed.
    """

    def __init__(self) -> None:
        self._objects: List[MemObject] = []        # dense index -> object
        self._indices: Dict[int, int] = {}         # MemObject.id -> dense index
        self._interned: Dict[int, PTSet] = {}      # mask -> canonical PTSet
        self._singletons: Dict[int, PTSet] = {}    # dense index -> {obj}
        # Dedup statistics: every time a set reference is handed out
        # (interned-table hit or miss) counts as one reference.
        self.set_references = 0
        self.empty = self.from_mask(0)

    # -- object numbering -------------------------------------------------

    def index(self, obj: MemObject) -> int:
        """The dense bit index of *obj*, assigning one on first sight."""
        idx = self._indices.get(obj.id)
        if idx is None:
            idx = len(self._objects)
            self._indices[obj.id] = idx
            self._objects.append(obj)
        return idx

    def index_of_id(self, obj_id: int) -> Optional[int]:
        """The dense index already assigned to ``MemObject.id``
        *obj_id* (None if the object was never seen). Used by artifact
        serialization, which holds raw ids from solver-state keys."""
        return self._indices.get(obj_id)

    def object_at(self, index: int) -> MemObject:
        return self._objects[index]

    def object_table(self) -> List[Dict[str, object]]:
        """The dense numbering as a JSON-able table, in index order.

        Dense indices are assigned in first-sight order during the
        (deterministic) pipeline run, so this table — unlike raw
        ``MemObject.id`` values, which come from a process-global
        counter — is identical across processes for the same program
        and config. Artifact serialization keys bitmasks against it.
        """
        return [
            {"name": obj.name, "kind": obj.kind.value}
            for obj in self._objects
        ]

    def __len__(self) -> int:
        return len(self._objects)

    # -- set construction -------------------------------------------------

    def from_mask(self, mask: int) -> PTSet:
        """The canonical interned PTSet for *mask*."""
        self.set_references += 1
        interned = self._interned.get(mask)
        if interned is None:
            interned = PTSet(self, mask)
            self._interned[mask] = interned
        return interned

    def singleton(self, obj: MemObject) -> PTSet:
        idx = self.index(obj)
        self.set_references += 1
        cached = self._singletons.get(idx)
        if cached is None:
            cached = self.from_mask(1 << idx)
            self._singletons[idx] = cached
        return cached

    def mask_contains(self, mask: int, obj: MemObject) -> bool:
        """Membership test directly on a raw mask (no PTSet needed) —
        the solvers' hot paths keep state as plain ints."""
        idx = self._indices.get(obj.id)
        return idx is not None and (mask >> idx) & 1 == 1

    def iter_mask(self, mask: int) -> Iterator[MemObject]:
        """Iterate the objects of a raw mask without interning it."""
        objects = self._objects
        while mask:
            low = mask & -mask
            yield objects[low.bit_length() - 1]
            mask ^= low

    def make(self, objs: Iterable[MemObject]) -> PTSet:
        if isinstance(objs, PTSet):
            if objs.universe is self:
                return objs
            objs = iter(objs)
        mask = 0
        for obj in objs:
            mask |= 1 << self.index(obj)
        return self.from_mask(mask)

    # -- statistics --------------------------------------------------------

    @property
    def distinct_sets(self) -> int:
        return len(self._interned)

    def dedup_ratio(self) -> float:
        """Total set references handed out / distinct interned sets.

        > 1 whenever interning shares instances; the larger the more
        the representation pays off.
        """
        if not self._interned:
            return 1.0
        return self.set_references / len(self._interned)

    def stats(self) -> Dict[str, float]:
        return {
            "objects": len(self._objects),
            "distinct_sets": self.distinct_sets,
            "set_references": self.set_references,
            "dedup_ratio": self.dedup_ratio(),
        }

    def flush_obs(self, obs: Observer) -> None:
        """Record the representation statistics under ``pts.*``."""
        obs.count("pts.set_references", self.set_references)
        obs.gauge("pts.distinct_sets", self.distinct_sets)
        obs.gauge("pts.objects", len(self._objects))
        obs.gauge("pts.dedup_ratio", round(self.dedup_ratio(), 3))
