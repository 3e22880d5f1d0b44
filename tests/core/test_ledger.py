"""ClassLedger: the compact active-class form of the d/b matrices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.balance import snake_distribute
from repro.core.ledger import ClassLedger


def random_dense(n: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.integers(0, 4, size=(n, n))
    m[rng.random((n, n)) < 0.6] = 0  # keep it sparse-ish
    return m.astype(np.int64)


class TestRoundTrip:
    def test_from_dense_dense_round_trip(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 17):
            m = random_dense(n, rng)
            led = ClassLedger.from_dense(m)
            led.check_consistency()
            assert np.array_equal(led.dense(), m)
            assert led.total() == int(m.sum())
            assert np.array_equal(led.row_sums, m.sum(axis=1))
            assert np.array_equal(led.diag, np.diagonal(m))

    def test_from_dense_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            ClassLedger.from_dense(np.zeros((2, 3), dtype=np.int64))

    def test_needs_positive_n(self):
        with pytest.raises(ValueError, match="n >= 1"):
            ClassLedger(0)


class TestAccessors:
    def test_get_add_set_with_pruning(self):
        led = ClassLedger(4)
        led.add(0, 2, 3)
        assert led.get(0, 2) == 3
        assert led.row_sum(0) == 3
        led.add(0, 2, -3)  # back to zero: entry must be pruned
        assert led.get(0, 2) == 0
        assert 2 not in led.rows[0]
        led.add(1, 1, 7)  # diagonal path
        assert led.get(1, 1) == 7
        assert led.rows[1] == {}
        assert led.total() == 7
        assert np.array_equal(led.dense()[1], [0, 7, 0, 0])
        assert "ClassLedger" in repr(led)
        led.check_consistency()

    def test_positive_classes_matches_dense_nonzero_order(self):
        rng = np.random.default_rng(1)
        for n in (2, 6, 13):
            m = random_dense(n, rng)
            led = ClassLedger.from_dense(m)
            for i in range(n):
                expect = np.nonzero(m[i] > 0)[0].tolist()
                assert led.positive_classes(i) == expect

    def test_min_value_and_active_entries(self):
        led = ClassLedger.from_dense(
            np.array([[2, 0, 1], [0, 0, 0], [0, 5, 3]], dtype=np.int64)
        )
        assert led.min_value() == 0  # empty diagonal entry
        assert led.active_entries() == 4  # 2 diag + 2 off-diag
        led.add(0, 1, -2)
        assert led.min_value() == -2


class TestSnakeRedeal:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_snake_distribute(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        m = random_dense(n, rng)
        k = int(rng.integers(2, n + 1))
        parts = rng.permutation(n)[:k].tolist()
        start = int(rng.integers(k))

        led = ClassLedger.from_dense(m)
        sums = led.snake_redeal(parts, start)
        led.check_consistency()

        expect = m.copy()
        dealt = snake_distribute(m[parts].sum(axis=0), k, start=start)
        expect[parts] = dealt
        assert np.array_equal(led.dense(), expect)
        assert sums == dealt.sum(axis=1).tolist()

    def test_empty_rows_early_out(self):
        led = ClassLedger(5)
        led.add(4, 0, 9)  # an untouched row keeps its content
        assert led.snake_redeal([0, 1, 2], start=1) == [0, 0, 0]
        assert led.get(4, 0) == 9
        led.check_consistency()


class TestConsistency:
    def test_detects_stale_row_sum(self):
        led = ClassLedger(2)
        led.add(0, 1, 2)
        led.row_sums[0] = 99  # corrupt the cache behind the API's back
        with pytest.raises(AssertionError, match="stale"):
            led.check_consistency()

    def test_detects_unpruned_zero(self):
        led = ClassLedger(2)
        led.rows[0][1] = 0
        with pytest.raises(AssertionError, match="unpruned"):
            led.check_consistency()

    def test_detects_diagonal_in_row(self):
        led = ClassLedger(2)
        led.rows[1][1] = 3
        led.row_sums[1] = 3
        with pytest.raises(AssertionError, match="diagonal"):
            led.check_consistency()
