"""Tests for the bounded per-processor task queues."""

import numpy as np
import pytest

from repro.core.balance import even_split
from repro.service.queues import TaskQueues


class TestBasics:
    def test_push_pop_fifo_and_sojourn(self):
        q = TaskQueues(2, cap=4)
        q.push(0, 1.0)
        q.push(0, 2.0)
        assert q.depth(0) == 2
        assert q.pop_oldest(0, 5.0) == pytest.approx(4.0)  # the t=1 task
        assert q.pop_oldest(0, 5.0) == pytest.approx(3.0)
        assert q.completed == 2
        assert q.sojourns.tolist() == [4.0, 3.0]

    def test_full_queue_rejects_push(self):
        q = TaskQueues(1, cap=2)
        q.push(0, 0.0)
        q.push(0, 0.0)
        assert q.full(0)
        with pytest.raises(RuntimeError, match="admission must"):
            q.push(0, 1.0)

    def test_depths_and_total(self):
        q = TaskQueues(3, cap=5)
        q.push(1, 0.0)
        q.push(1, 0.0)
        q.push(2, 0.0)
        assert q.depths().tolist() == [0, 2, 1]
        assert q.total() == 3

    def test_hot_fraction(self):
        q = TaskQueues(4, cap=4)
        for _ in range(3):
            q.push(0, 0.0)
        q.push(1, 0.0)
        # watermark 0.5 -> hot when depth > 2
        assert q.hot_fraction(0.5) == pytest.approx(0.25)
        assert q.hot_fraction(0.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskQueues(0, cap=1)
        with pytest.raises(ValueError):
            TaskQueues(1, cap=0)


class TestMigrate:
    def test_mirrors_even_split(self):
        q = TaskQueues(3, cap=10)
        for t in range(6):
            q.push(0, float(t))
        alive = np.array([0, 1, 2])
        before = np.array([6, 0, 0])
        after = even_split(6, 3, start=0)
        moved = q.migrate(alive, before, after)
        assert moved == 6 - int(after[0])
        assert q.depths().tolist() == list(after)
        assert q.migrated_tasks == moved

    def test_donors_keep_oldest_receivers_stay_sorted(self):
        q = TaskQueues(2, cap=10)
        for t in (0.0, 1.0, 2.0, 3.0):
            q.push(0, t)
        q.push(1, 0.5)
        # donor 0 gives its two newest (2.0, 3.0); receiver 1 merges
        q.migrate(np.array([0, 1]), np.array([4, 1]), np.array([2, 3]))
        assert q.contents(0) == [0.0, 1.0]
        assert q.contents(1) == [0.5, 2.0, 3.0]

    def test_noop_when_nothing_moves(self):
        q = TaskQueues(2, cap=4)
        q.push(0, 0.0)
        q.push(1, 0.0)
        assert q.migrate(
            np.array([0, 1]), np.array([1, 1]), np.array([1, 1])
        ) == 0
        assert q.migrated_tasks == 0


class TestStatistics:
    def test_percentiles_empty_is_zero(self):
        q = TaskQueues(1, cap=1)
        assert q.sojourn_percentiles(50, 99) == [0.0, 0.0]

    def test_percentiles_computed(self):
        q = TaskQueues(1, cap=10)
        for t in range(10):
            q.push(0, 0.0)
            q.pop_oldest(0, float(t + 1))
        p50, p99 = q.sojourn_percentiles(50, 99)
        assert p50 == pytest.approx(5.5)
        assert p99 > p50

    def test_worst_sojourns_ranked(self):
        q = TaskQueues(1, cap=10)
        for sj in (1.0, 9.0, 4.0):
            q.push(0, 0.0)
            q.pop_oldest(0, sj)
        worst = q.worst_sojourns(k=2)
        assert [s for s, _ in worst] == [9.0, 4.0]
        assert all(0 < share <= 1 for _, share in worst)
