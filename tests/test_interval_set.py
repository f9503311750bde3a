"""Unit + property tests for the OTCD prune bookkeeping (IntervalSet)."""
import random

import pytest

from repro.core.otcd import IntervalSet


def assert_sorted_disjoint(s):
    """The intervals are sorted, non-empty and neither overlap nor abut,
    so each maximal covered run is exactly one interval."""
    iv = s._iv
    assert all(a <= b for a, b in iv)
    for (a1, b1), (a2, b2) in zip(iv, iv[1:]):
        assert b1 + 1 < a2


def assert_covers(s, *runs):
    """``s`` covers exactly the integers of ``runs`` (checked on 0..20)
    and is sorted and disjoint, so its intervals are ``runs``."""
    want = {x for a, b in runs for x in range(a, b + 1)}
    for x in range(21):
        assert (s.count_uncovered(x, x) == 0) == (x in want), x
        assert s.next_uncovered_leq(x, x) == (None if x in want else x), x
    assert s.count_uncovered(0, 20) == 21 - len(want)
    assert_sorted_disjoint(s)


class TestAdd:
    def test_disjoint(self):
        s = IntervalSet()
        assert s.add(1, 3) == 3
        assert s.add(10, 12) == 3
        assert_covers(s, (1, 3), (10, 12))

    def test_overlap_counts_only_new(self):
        s = IntervalSet()
        s.add(1, 5)
        assert s.add(4, 8) == 3
        assert_covers(s, (1, 8))

    def test_contained_adds_nothing(self):
        s = IntervalSet()
        s.add(1, 10)
        assert s.add(3, 7) == 0
        assert_covers(s, (1, 10))

    def test_abutting_merges(self):
        s = IntervalSet()
        s.add(1, 3)
        s.add(4, 6)
        assert_covers(s, (1, 6))

    def test_bridge_merge(self):
        s = IntervalSet()
        s.add(1, 3)
        s.add(7, 9)
        assert s.add(2, 8) == 3
        assert_covers(s, (1, 9))

    def test_empty_interval(self):
        s = IntervalSet()
        assert s.add(5, 4) == 0
        assert_covers(s)

    def test_single_point(self):
        s = IntervalSet()
        assert s.add(5, 5) == 1
        assert [s.count_uncovered(x, x) for x in (4, 5, 6)] == [1, 0, 1]


class TestQueries:
    def test_covers(self):
        s = IntervalSet()
        s.add(2, 4)
        s.add(8, 9)
        covered = [x for x in range(1, 11) if s.count_uncovered(x, x) == 0]
        assert covered == [2, 3, 4, 8, 9]

    def test_next_uncovered_leq(self):
        s = IntervalSet()
        s.add(3, 5)
        assert s.next_uncovered_leq(10, 1) == 10
        assert s.next_uncovered_leq(5, 1) == 2
        assert s.next_uncovered_leq(4, 3) is None
        assert s.next_uncovered_leq(2, 1) == 2

    def test_next_uncovered_all_covered(self):
        s = IntervalSet()
        s.add(1, 10)
        assert s.next_uncovered_leq(10, 1) is None

    def test_count_uncovered(self):
        s = IntervalSet()
        s.add(3, 5)
        s.add(8, 8)
        assert s.count_uncovered(1, 10) == 6
        assert s.count_uncovered(3, 5) == 0
        assert s.count_uncovered(6, 7) == 2
        assert s.count_uncovered(7, 6) == 0


@pytest.mark.parametrize("seed", range(20))
def test_random_against_set_model(seed):
    """IntervalSet must behave exactly like a plain set of integers."""
    rng = random.Random(seed)
    s = IntervalSet()
    model: set[int] = set()
    for _ in range(60):
        lo = rng.randint(0, 50)
        hi = lo + rng.randint(-2, 8)
        newly = s.add(lo, hi)
        added = set(range(lo, hi + 1)) - model
        assert newly == len(added)
        model |= set(range(lo, hi + 1)) if lo <= hi else set()
        # covers
        x = rng.randint(0, 55)
        assert (s.count_uncovered(x, x) == 0) == (x in model)
        # next_uncovered_leq
        ceil, floor = rng.randint(0, 55), rng.randint(0, 10)
        want = next((c for c in range(ceil, floor - 1, -1) if c not in model), None)
        assert s.next_uncovered_leq(ceil, floor) == want
        # count_uncovered
        a, b = sorted((rng.randint(0, 55), rng.randint(0, 55)))
        want_n = sum(1 for c in range(a, b + 1) if c not in model)
        assert s.count_uncovered(a, b) == want_n
    assert_sorted_disjoint(s)
