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

The universe also memoises union and intersection results for hot
pairs of interned sets, and keeps the counters behind the dedup-ratio
statistic reported by ``benchmarks/test_pts_representation.py``
(total set references handed out / distinct interned sets). The memo
caches are *bounded*: when one reaches ``cache_cap`` entries it is
generation-cleared (dropped wholesale and rebuilt by subsequent
traffic), so a long-lived process analysing many programs — or one
very large program — holds at most ``2 * cache_cap`` memo entries per
universe instead of growing without bound.

``PTSet`` is deliberately duck-typed against ``frozenset[MemObject]``:
it iterates ``MemObject``s, supports ``in``/``len``/``bool``, and its
binary operators accept plain sets (registering any unseen objects),
so query-layer code and tests that compare against ``{obj}`` literals
keep working unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.ir.values import MemObject


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

    __slots__ = ("universe", "mask", "key")

    def __init__(self, universe: "PTUniverse", mask: int, key: int) -> None:
        self.universe = universe
        self.mask = mask
        self.key = key  # dense serial per interned set; orders cache keys

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
        return self.universe.union_masks(self, self._mask_of(other))

    __ror__ = __or__

    def __and__(self, other) -> "PTSet":
        return self.universe.intersect_masks(self, self._mask_of(other))

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


def mask_from_hex(text: str) -> int:
    """Inverse of :func:`mask_to_hex`."""
    return int(text, 16)


#: Default bound on each binary-operation memo cache. Reaching it
#: triggers a generation clear, so steady-state memo memory per
#: universe is O(cache_cap) however many sets flow through it.
DEFAULT_CACHE_CAP = 1 << 15


class PTUniverse:
    """Dense ``MemObject`` numbering plus the intern table for
    :class:`PTSet`.

    One universe lives for one analysis pipeline run (it is created by
    the Andersen pre-analysis and shared by everything downstream), so
    masks from different runs are never mixed.
    """

    def __init__(self, cache_cap: int = DEFAULT_CACHE_CAP) -> None:
        self._objects: List[MemObject] = []        # dense index -> object
        self._indices: Dict[int, int] = {}         # MemObject.id -> dense index
        self._interned: Dict[int, PTSet] = {}      # mask -> canonical PTSet
        self._singletons: Dict[int, PTSet] = {}    # dense index -> {obj}
        self._union_cache: Dict[Tuple[int, int], PTSet] = {}
        self._intersect_cache: Dict[Tuple[int, int], PTSet] = {}
        # Memo caches are generation-cleared at this many entries.
        # Clearing costs only the lost hits (results are unaffected:
        # the caches memoise, they do not define, the operations).
        self.cache_cap = cache_cap
        self.cache_clears = 0
        # Dedup statistics: every time a set reference is handed out
        # (interned-table hit or miss) counts as one reference.
        self.set_references = 0
        self.union_cache_hits = 0
        self.intersect_cache_hits = 0
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
            interned = PTSet(self, mask, len(self._interned))
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

    # -- cached binary operations -----------------------------------------

    def union_masks(self, a: PTSet, other_mask: int) -> PTSet:
        mask = a.mask | other_mask
        if mask == a.mask:
            return a  # fast path: other is a subset — delta checks rely on this
        canonical_other = self._interned.get(other_mask)
        if canonical_other is not None:
            key = (a.key, canonical_other.key) if a.key <= canonical_other.key \
                else (canonical_other.key, a.key)
            hit = self._union_cache.get(key)
            if hit is None:
                hit = self.from_mask(mask)
                if len(self._union_cache) >= self.cache_cap:
                    self._union_cache.clear()
                    self.cache_clears += 1
                self._union_cache[key] = hit
            else:
                self.set_references += 1
                self.union_cache_hits += 1
            return hit
        return self.from_mask(mask)

    def intersect_masks(self, a: PTSet, other_mask: int) -> PTSet:
        mask = a.mask & other_mask
        if mask == a.mask:
            return a
        canonical_other = self._interned.get(other_mask)
        if canonical_other is not None:
            if mask == other_mask:
                self.set_references += 1
                return canonical_other
            key = (a.key, canonical_other.key) if a.key <= canonical_other.key \
                else (canonical_other.key, a.key)
            hit = self._intersect_cache.get(key)
            if hit is None:
                hit = self.from_mask(mask)
                if len(self._intersect_cache) >= self.cache_cap:
                    self._intersect_cache.clear()
                    self.cache_clears += 1
                self._intersect_cache[key] = hit
            else:
                self.set_references += 1
                self.intersect_cache_hits += 1
            return hit
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
            "union_cache_entries": len(self._union_cache),
            "intersect_cache_entries": len(self._intersect_cache),
            "union_cache_hits": self.union_cache_hits,
            "intersect_cache_hits": self.intersect_cache_hits,
            "cache_cap": self.cache_cap,
            "cache_clears": self.cache_clears,
        }
