"""Tests for the deterministic event queue."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simulation.eventqueue import EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(3.0, "c")
        q.push(1.0, "a")
        q.push(2.0, "b")
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        for name in "abcde":
            q.push(1.0, name)
        assert [q.pop().payload for _ in range(5)] == list("abcde")

    def test_equal_times_with_unorderable_payloads_pop_in_insertion_order(self):
        # the sequence number decides every tie, so payloads (dicts here)
        # are never compared
        q = EventQueue()
        for k in range(5):
            q.push(2.0, {"k": k})
        q.push(1.0, {"k": -1})
        assert [q.pop().payload["k"] for _ in range(6)] == [-1, 0, 1, 2, 3, 4]

    def test_events_are_plain_tuples(self):
        q = EventQueue()
        ev = q.push(1.5, "x")
        assert isinstance(ev, tuple)
        assert (ev.time, ev.seq, ev.payload) == ev == (1.5, 0, "x")

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, "x")

    def test_peek_and_len(self):
        q = EventQueue()
        assert q.peek_time() is None
        assert not q
        q.push(5.0, "x")
        assert q.peek_time() == 5.0
        assert len(q) == 1

    def test_drain_until(self):
        q = EventQueue()
        for t in (0.5, 1.5, 2.5, 3.5):
            q.push(t, t)
        drained = [ev.payload for ev in q.drain_until(2.5)]
        assert drained == [0.5, 1.5, 2.5]
        assert len(q) == 1

    def test_push_during_drain(self):
        """Events scheduled by handlers inside the horizon are seen."""
        q = EventQueue()
        q.push(1.0, "first")
        seen = []
        for ev in q.drain_until(10.0):
            seen.append(ev.payload)
            if ev.payload == "first":
                q.push(2.0, "chained")
        assert seen == ["first", "chained"]

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=50))
    def test_always_sorted(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, t)
        out = [q.pop().time for _ in range(len(times))]
        assert out == sorted(out)
