"""Deterministic discrete-event queue.

A thin, fully deterministic wrapper over ``heapq``: events at equal
times pop in insertion order (a monotone sequence number breaks ties),
so simulations are reproducible regardless of float-time collisions.

An :class:`Event` is a plain ``(time, seq, payload)`` tuple, so
``heapq`` orders it with C tuple comparison.  ``seq`` is unique, so two
events never compare equal on ``(time, seq)`` and the payload is never
compared: it need not be orderable.
"""

from __future__ import annotations

import heapq
from typing import Any, Generic, Iterator, NamedTuple, TypeVar

P = TypeVar("P")

__all__ = ["Event", "EventQueue"]


class Event(NamedTuple):
    """One scheduled event; ordering is (time, seq)."""

    time: float
    seq: int
    payload: Any


_new_event = tuple.__new__
_heappush = heapq.heappush
_heappop = heapq.heappop


class EventQueue(Generic[P]):
    """Min-heap of :class:`Event` with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0

    def push(self, time: float, payload: P) -> Event:
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        ev = _new_event(Event, (time, self._seq, payload))
        self._seq += 1
        _heappush(self._heap, ev)
        return ev

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return _heappop(self._heap)

    def peek_time(self) -> float | None:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def take_all(self) -> tuple[list[Event], int]:
        """Remove every pending event; return them (in heap order) with
        the next sequence number, for :meth:`restore`."""
        events, self._heap = self._heap, []
        return events, self._seq

    def restore(self, events: list[Event], seq: int) -> None:
        """Replace the pending events (any order; ``seq`` values unique
        and below ``seq``) and the next sequence number."""
        heap = list(events)
        heapq.heapify(heap)
        self._heap = heap
        self._seq = seq

    def drain_until(self, horizon: float) -> Iterator[Event]:
        """Pop events with ``time <= horizon`` in order."""
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            yield _heappop(heap)
