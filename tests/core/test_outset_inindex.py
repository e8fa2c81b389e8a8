"""Unit tests for the ranked out-set and the incoming-edge index."""

import pytest

from repro.core.inindex import InIndex
from repro.core.outset import OutSet


class TestOutSet:
    def test_rank_is_one_indexed(self):
        s = OutSet()
        s.add((5, 0))
        s.add((2, 0))
        assert s.rank((2, 0)) == 1
        assert s.rank((5, 0)) == 2

    def test_select_inverse_of_rank(self):
        s = OutSet()
        for key in [(9, 0), (1, 1), (1, 0), (4, 2)]:
            s.add(key)
        for pos in range(1, 5):
            assert s.rank(s.select(pos)) == pos

    def test_first(self):
        s = OutSet()
        for h in (30, 10, 20):
            s.add((h, 0))
        assert s.first(2) == [(10, 0), (20, 0)]
        assert s.first(99) == [(10, 0), (20, 0), (30, 0)]

    def test_add_duplicate_raises(self):
        s = OutSet()
        s.add((1, 0))
        with pytest.raises(AssertionError):
            s.add((1, 0))

    def test_remove_absent_raises(self):
        with pytest.raises(AssertionError):
            OutSet().remove((1, 0))

    def test_rank_of_absent_raises(self):
        with pytest.raises(AssertionError):
            OutSet().rank((1, 0))

    def test_select_out_of_range_raises(self):
        s = OutSet()
        s.add((1, 0))
        for rank in (0, 2):
            with pytest.raises(IndexError):
                s.select(rank)

    def test_window_is_one_indexed_and_clamped(self):
        s = OutSet()
        for h in (40, 10, 30, 20):
            s.add((h, 0))
        assert s.window(2, 3) == [(20, 0), (30, 0)]
        assert s.window(0, 99) == [(10, 0), (20, 0), (30, 0), (40, 0)]
        assert s.window(5, 9) == []

    def test_copies_are_distinct_keys(self):
        s = OutSet()
        s.add((7, 0))
        s.add((7, 1))
        assert len(s) == 2
        s.remove((7, 0))
        assert (7, 1) in s and (7, 0) not in s


class TestInIndex:
    def test_add_lookup(self):
        ix = InIndex()
        ix.add((3, 0), tr=1, lev=4)
        assert ix.any_at(1, 4) == (3, 0)
        assert ix.any_at(1, 5) is None
        assert ix.any_at(2, 4) is None

    def test_remove(self):
        ix = InIndex()
        ix.add((3, 0), 1, 4)
        ix.remove((3, 0), 1, 4)
        assert ix.any_at(1, 4) is None
        assert len(ix) == 0

    def test_remove_wrong_slot_raises(self):
        ix = InIndex()
        ix.add((3, 0), 1, 4)
        with pytest.raises(AssertionError):
            ix.remove((3, 0), 2, 4)

    def test_double_add_raises(self):
        ix = InIndex()
        ix.add((3, 0), 1, 4)
        with pytest.raises(AssertionError):
            ix.add((3, 0), 1, 4)

    def test_move(self):
        ix = InIndex()
        ix.add((3, 0), 1, 4)
        ix.move((3, 0), (1, 4), (2, 5))
        assert ix.any_at(1, 4) is None
        assert ix.any_at(2, 5) == (3, 0)

    def test_any_at_returns_minimum_tail(self):
        ix = InIndex()
        for tail in [(9, 0), (2, 1), (5, 0), (2, 0)]:
            ix.add(tail, 1, 4)
        assert ix.any_at(1, 4) == (2, 0)
        ix.remove((2, 0), 1, 4)
        assert ix.any_at(1, 4) == (2, 1)

    def test_any_at_skips_to_minimum_unskipped_tail(self):
        ix = InIndex()
        for tail in [(9, 0), (2, 0), (5, 0), (4, 1)]:
            ix.add(tail, 1, 4)
        assert ix.any_at(1, 4, skip={2: 1, 4: 3}) == (5, 0)
        assert ix.any_at(1, 4, skip={}) == (2, 0)

    def test_any_at_all_tails_skipped(self):
        ix = InIndex()
        for tail in [(9, 0), (2, 0)]:
            ix.add(tail, 1, 4)
        assert ix.any_at(1, 4, skip={2: 1, 9: 2}) is None
        assert ix.any_at(1, 5, skip={2: 1}) is None

    def test_any_at_skip_covers_every_copy_of_a_tail(self):
        # a skipped vertex hides all of its copy-keyed tails, and only its own
        ix = InIndex()
        for tail in [(3, 0), (3, 1), (3, 2), (7, 0)]:
            ix.add(tail, 2, 4)
        assert ix.any_at(2, 4, skip={3: 2}) == (7, 0)
        assert ix.any_at(2, 4, skip={7: 2}) == (3, 0)

    def test_move_from_unfiled_slot_raises(self):
        ix = InIndex()
        ix.add((3, 0), 1, 4)
        with pytest.raises(AssertionError):
            ix.move((3, 0), (2, 4), (1, 5))
        assert ix.any_at(1, 4) == (3, 0)

    def test_move_onto_filed_tail_raises(self):
        ix = InIndex()
        ix.add((3, 0), 1, 4)
        ix.add((3, 0), 2, 4)
        with pytest.raises(AssertionError):
            ix.move((3, 0), (1, 4), (2, 4))

    def test_move_identity_is_noop(self):
        ix = InIndex()
        ix.add((3, 0), 1, 4)
        ix.move((3, 0), (1, 4), (1, 4))
        assert ix.any_at(1, 4) == (3, 0)

    def test_truncated_rank_lookup_needs_no_skip(self):
        ix = InIndex()
        ix.add((3, 0), tr=6, lev=5)
        assert ix.any_at(6, 5) == (3, 0)
        assert ix.any_at(6, 4) is None

    def test_entries_roundtrip(self):
        ix = InIndex()
        data = [((1, 0), 1, 2), ((2, 0), 3, 4), ((2, 1), 3, 4)]
        for tail, tr, lev in data:
            ix.add(tail, tr, lev)
        assert sorted(ix.entries()) == sorted(data)
        assert len(ix) == 3
