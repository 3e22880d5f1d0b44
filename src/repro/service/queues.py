"""Bounded per-processor task queues with sojourn accounting.

The engines treat load as an integer vector; a *service* additionally
owes every admitted task an answer, so :class:`TaskQueues` shadows the
load vector with per-processor FIFO queues of arrival timestamps.  The
invariant (asserted by the service tests) is exact: ``depth(i) ==
engine.l[i]`` at every point where the engine is quiescent, because
every path that changes ``l`` goes through a queue operation —

* an admitted arrival pushes its timestamp (``push``),
* a consume action pops the oldest timestamp and records the task's
  *sojourn time* — admission to completion, wherever the task was
  balanced to in between (``pop_oldest``),
* a balancing operation migrates timestamps alongside the integer
  loads (``migrate``): donors give up their *newest* tasks (the oldest
  keep their place in line), receivers merge them in arrival order.

Because of that invariant the front door routes on the engine's load
vector; :meth:`TaskQueues.depths` rebuilds the same n-array from the
queues and is kept for end-of-run checks, not for the per-event path.

Queues are *bounded* (``cap``): the front door rejects arrivals to a
full queue (reject-newest — see
:class:`~repro.service.admission.AdmissionController`), and the
watermark fractions feed the backpressure signals the degradation
ladder consumes (:meth:`hot_fraction`).

Representation
--------------
The queues are columnar, so the compiled event walk of
:mod:`repro.core.event_walk` reads and writes them in place: an
``(n, cap)`` float64 ring of arrival times with a head and a depth
column, and the sojourns in a growable float64 buffer
(:attr:`TaskQueues.sojourns` is a read-only view of its filled part).
Both lanes of the async engine use this one representation; the
Python handlers go through the methods below, the walk transcribes
them.

Everything here is deterministic and RNG-free.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["TaskQueues"]


class TaskQueues:
    """``n`` bounded FIFO queues of arrival timestamps."""

    def __init__(self, n: int, cap: int) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if cap < 1:
            raise ValueError(f"queue cap must be >= 1, got {cap}")
        self.n = n
        self.cap = cap
        # queue i holds _ring[i, (_head[i] + k) % cap] for k < _depth[i],
        # oldest first
        self._ring = np.zeros((n, cap), dtype=np.float64)
        self._head = np.zeros(n, dtype=np.int64)
        self._depth = np.zeros(n, dtype=np.int64)
        self._soj = np.zeros(1024, dtype=np.float64)
        self._nsoj = 0
        self.completed = 0
        self.migrated_tasks = 0

    # -- depth signals ----------------------------------------------------

    def depth(self, i: int) -> int:
        return int(self._depth[i])

    def depths(self) -> np.ndarray:
        return self._depth.copy()

    def full(self, i: int) -> bool:
        return self._depth[i] >= self.cap

    def total(self) -> int:
        return int(self._depth.sum())

    def hot_fraction(self, watermark: float) -> float:
        """Fraction of processors whose depth exceeds ``watermark * cap``."""
        level = watermark * self.cap
        return int(np.count_nonzero(self._depth > level)) / self.n

    def contents(self, i: int) -> list[float]:
        """Queue ``i``'s arrival times, oldest first."""
        idx = (int(self._head[i]) + np.arange(int(self._depth[i]))) % self.cap
        return self._ring[i, idx].tolist()

    @property
    def sojourns(self) -> np.ndarray:
        """Completed-task sojourn times in completion order (read-only)."""
        view = self._soj[: self._nsoj]
        view.flags.writeable = False
        return view

    # -- task flow --------------------------------------------------------

    def push(self, i: int, t_arrival: float) -> None:
        """Enqueue an admitted task (the caller checked :meth:`full`)."""
        d = int(self._depth[i])
        if d >= self.cap:
            raise RuntimeError(
                f"queue {i} is full (cap {self.cap}); admission must "
                "reject before pushing"
            )
        self._ring[i, (int(self._head[i]) + d) % self.cap] = t_arrival
        self._depth[i] = d + 1

    def pop_oldest(self, i: int, now: float) -> float:
        """Complete the oldest task on ``i``; record and return its sojourn."""
        d = int(self._depth[i])
        if d == 0:
            raise IndexError(f"pop from empty queue {i}")
        h = int(self._head[i])
        sojourn = now - float(self._ring[i, h])
        self._head[i] = (h + 1) % self.cap
        self._depth[i] = d - 1
        self._reserve(1)
        self._soj[self._nsoj] = sojourn
        self._nsoj += 1
        self.completed += 1
        return sojourn

    def _reserve(self, extra: int) -> None:
        """Room for ``extra`` more sojourns (the buffer doubles)."""
        need = self._nsoj + extra
        if need > len(self._soj):
            grown = np.zeros(max(need, 2 * len(self._soj)), dtype=np.float64)
            grown[: self._nsoj] = self._soj[: self._nsoj]
            self._soj = grown

    def migrate(
        self, alive_idx: Sequence[int], before: Sequence[int], after: Sequence[int]
    ) -> int:
        """Mirror a balancing redistribution onto the timestamp queues.

        ``before``/``after`` are the per-participant loads around the
        engine's even split.  Donors (``after < before``) surrender
        their newest tasks; the pooled tasks are handed to receivers in
        participant order and each receiving queue is re-merged so the
        FIFO (arrival-order) invariant survives.  Returns the number of
        tasks moved.
        """
        cap, ring = self.cap, self._ring
        moving: list[float] = []
        for k, i in enumerate(alive_idx):
            i = int(i)
            give = int(before[k]) - int(after[k])
            if give <= 0:
                continue
            d = int(self._depth[i])
            if give > d:
                raise RuntimeError(f"queue {i} holds {d} tasks, cannot give {give}")
            h = int(self._head[i])
            for x in range(d - 1, d - give - 1, -1):  # newest first
                moving.append(float(ring[i, (h + x) % cap]))
            self._depth[i] = d - give
        if not moving:
            return 0
        moving.sort()  # oldest first: receivers absorb seniors first
        moved = len(moving)
        self.migrated_tasks += moved
        pos = 0
        for k, i in enumerate(alive_idx):
            take = int(after[k]) - int(before[k])
            if take <= 0:
                continue
            i = int(i)
            merged = sorted(self.contents(i) + moving[pos:pos + take])
            pos += take
            if len(merged) > cap:
                raise RuntimeError(f"migrate overfills queue {i} (cap {cap})")
            ring[i, (int(self._head[i]) + np.arange(len(merged))) % cap] = merged
            self._depth[i] = len(merged)
        if pos != moved:  # pragma: no cover - split bookkeeping bug
            raise RuntimeError(
                f"migrate imbalance: {moved} donated, {pos} received"
            )
        return moved

    # -- end-of-run statistics -------------------------------------------

    def sojourn_percentiles(self, *qs: float) -> list[float]:
        """Percentiles of completed-task sojourn times (0 when none)."""
        if not self._nsoj:
            return [0.0 for _ in qs]
        arr = self.sojourns
        return [float(np.percentile(arr, q)) for q in qs]

    def worst_sojourns(self, k: int = 10) -> list[tuple[float, float]]:
        """The ``k`` largest sojourns as ``(sojourn, completion share)``.

        The share is the completion index divided by the total count —
        a cheap "when in the run did the slow tasks finish" signal for
        the report's waterfall.  Ties rank in completion order.
        """
        soj = self.sojourns
        order = np.argsort(-soj, kind="stable")[:k].tolist()
        total = max(len(soj), 1)
        return [(float(soj[j]), (j + 1) / total) for j in order]
