"""Tests for even_split / snake_distribute — the appendix invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.balance import even_split, snake_distribute


class TestEvenSplit:
    def test_exact_division(self):
        assert even_split(9, 3).tolist() == [3, 3, 3]

    def test_remainder_placement(self):
        assert even_split(7, 3, start=0).tolist() == [3, 2, 2]
        assert even_split(7, 3, start=1).tolist() == [2, 3, 2]
        assert even_split(7, 3, start=2).tolist() == [2, 2, 3]

    def test_wraparound(self):
        assert even_split(8, 3, start=2).tolist() == [3, 2, 3]

    def test_zero_total(self):
        assert even_split(0, 4).tolist() == [0, 0, 0, 0]

    def test_single_participant(self):
        assert even_split(5, 1).tolist() == [5]

    def test_invalid(self):
        with pytest.raises(ValueError):
            even_split(5, 0)
        with pytest.raises(ValueError):
            even_split(-1, 2)

    @given(st.integers(0, 10_000), st.integers(1, 64), st.integers(0, 63))
    def test_properties(self, total, k, start):
        out = even_split(total, k, start=start % k)
        assert out.sum() == total
        assert out.max() - out.min() <= 1
        assert (out >= 0).all()


class TestSnakeDistribute:
    def test_empty_classes(self):
        out = snake_distribute(np.array([], dtype=int), 3)
        assert out.shape == (3, 0)

    def test_single_class_equals_even_split(self):
        assert np.array_equal(
            snake_distribute([7], 3, start=1)[:, 0], even_split(7, 3, start=1)
        )

    def test_appendix_invariants_example(self):
        totals = np.array([5, 3, 0, 7, 1])
        M = snake_distribute(totals, 3, start=0)
        assert (M.sum(axis=0) == totals).all()
        for j in range(totals.size):
            assert M[:, j].max() - M[:, j].min() <= 1
        rs = M.sum(axis=1)
        assert rs.max() - rs.min() <= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            snake_distribute([3, -1], 2)

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            snake_distribute(np.zeros((2, 2), dtype=int), 2)

    def test_k_invalid(self):
        with pytest.raises(ValueError):
            snake_distribute([1], 0)

    def test_invalid_k(self):
        """``k < 1`` is rejected before any class is dealt, and for
        negative ``k`` too."""
        with pytest.raises(ValueError):
            snake_distribute(np.array([], dtype=int), 0)
        with pytest.raises(ValueError):
            snake_distribute([4, 2], -1, start=1)

    @given(
        totals=st.lists(st.integers(0, 50), min_size=1, max_size=40),
        k=st.integers(1, 9),
        start=st.integers(0, 8),
    )
    def test_all_three_invariants(self, totals, k, start):
        """The appendix's simultaneous ±1 invariants hold for every
        input — this is the core correctness property of the snake."""
        M = snake_distribute(np.asarray(totals), k, start=start % k)
        # class totals conserved
        assert (M.sum(axis=0) == np.asarray(totals)).all()
        # per-class balance
        if k > 1:
            spread_per_class = M.max(axis=0) - M.min(axis=0)
            assert (spread_per_class <= 1).all()
        # per-participant totals balance
        rs = M.sum(axis=1)
        assert rs.max() - rs.min() <= 1
        assert (M >= 0).all()

    @given(
        totals=st.lists(st.integers(0, 20), min_size=1, max_size=10),
        k=st.integers(2, 6),
    )
    def test_matches_sequential_dealer(self, totals, k):
        """The vectorised implementation equals the obvious sequential
        circular deal (oracle test)."""
        M = snake_distribute(np.asarray(totals), k, start=0)
        ptr = 0
        for j, t in enumerate(totals):
            assert np.array_equal(M[:, j], even_split(t, k, start=ptr))
            ptr = (ptr + t) % k

    def test_pointer_advances_by_total(self):
        # class 0 deals 6 packets from position 1: 6 mod 4 = 2 -> class 1
        # starts at position 3
        M = snake_distribute([6, 1], 4, start=1)
        assert M[:, 1].tolist() == [0, 0, 0, 1]

    def test_continuity_gives_row_balance(self):
        rows = snake_distribute([4, 5, 1, 2, 8], 3).sum(axis=1)
        assert rows.max() - rows.min() <= 1
