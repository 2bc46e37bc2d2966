"""Unit tests for the interned bitset points-to representation."""

import pytest

from repro.ir.types import INT
from repro.ir.values import MemObject, ObjectKind
from repro.pts import PTSet, PTUniverse


def obj(name):
    return MemObject(name, INT, ObjectKind.GLOBAL)


@pytest.fixture
def universe():
    return PTUniverse()


@pytest.fixture
def objs():
    return [obj(f"o{i}") for i in range(5)]


class TestInterning:
    def test_same_mask_same_instance(self, universe, objs):
        a = universe.make(objs[:3])
        b = universe.make(reversed(objs[:3]))
        assert a is b

    def test_empty_is_interned(self, universe, objs):
        assert universe.make([]) is universe.empty
        assert universe.singleton(objs[0]) - [objs[0]] is universe.empty

    def test_union_of_subset_returns_same_instance(self, universe, objs):
        big = universe.make(objs[:3])
        small = universe.make(objs[:2])
        # The solvers' O(1) delta check relies on this identity.
        assert big | small is big
        assert small | big is big
        assert big | universe.empty is big

    def test_repeated_union_is_interned(self, universe, objs):
        a = universe.make(objs[:2])
        b = universe.make(objs[2:4])
        assert (a | b) is (a | b)
        assert (a | b) is (b | a)
        assert (a & (a | b)) is a

    def test_distinct_universes_do_not_share(self, objs):
        u1, u2 = PTUniverse(), PTUniverse()
        a = u1.make(objs[:2])
        b = u2.make(objs[:2])
        assert a is not b
        assert a == b  # still equal as plain sets of objects


class TestSetSemantics:
    def test_len_and_contains(self, universe, objs):
        s = universe.make(objs[:3])
        assert len(s) == 3
        assert objs[0] in s and objs[2] in s
        assert objs[4] not in s
        assert obj("foreign") not in s

    def test_iteration_yields_objects(self, universe, objs):
        s = universe.make([objs[2], objs[0]])
        assert set(s) == {objs[0], objs[2]}

    def test_equality_with_plain_sets(self, universe, objs):
        s = universe.make(objs[:2])
        assert s == {objs[0], objs[1]}
        assert {objs[0], objs[1]} == s
        assert s != {objs[0]}
        assert s != {objs[0], objs[2]}

    def test_operators_accept_plain_iterables(self, universe, objs):
        s = universe.make(objs[:2])
        assert s | {objs[2]} == set(objs[:3])
        assert s & {objs[1], objs[3]} == {objs[1]}
        assert s - [objs[0]] == {objs[1]}
        assert set() | s == s

    def test_subset_superset_disjoint(self, universe, objs):
        small = universe.make(objs[:2])
        big = universe.make(objs[:3])
        assert small.issubset(big)
        assert big.issuperset(small)
        assert not big.issubset(small)
        assert small.isdisjoint(universe.make(objs[3:]))
        assert not small.isdisjoint(big)

    def test_truthiness_and_popcount(self, universe, objs):
        assert not universe.empty
        assert universe.singleton(objs[0])
        assert len(universe.empty) == 0
        assert len(universe.make(objs)) == len(objs)

    def test_hashable(self, universe, objs):
        a = universe.make(objs[:2])
        b = universe.make(objs[:2])
        assert len({a, b}) == 1


class TestStats:
    def test_dedup_ratio_counts_references_per_distinct_set(self, universe, objs):
        for _ in range(4):
            universe.make(objs[:2])
        stats = universe.stats()
        assert stats["distinct_sets"] >= 1
        assert stats["set_references"] >= 4
        assert stats["dedup_ratio"] > 1.0

    def test_objects_counted(self, universe, objs):
        universe.make(objs)
        assert universe.stats()["objects"] == len(objs)
