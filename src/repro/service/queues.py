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

Everything here is deterministic and RNG-free.
"""

from __future__ import annotations

from collections import deque
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
        self._q: list[deque[float]] = [deque() for _ in range(n)]
        self.sojourns: list[float] = []
        self.completed = 0
        self.migrated_tasks = 0

    # -- depth signals ----------------------------------------------------

    def depth(self, i: int) -> int:
        return len(self._q[i])

    def depths(self) -> np.ndarray:
        return np.array([len(q) for q in self._q], dtype=np.int64)

    def full(self, i: int) -> bool:
        return len(self._q[i]) >= self.cap

    def total(self) -> int:
        return sum(len(q) for q in self._q)

    def hot_fraction(self, watermark: float) -> float:
        """Fraction of processors whose depth exceeds ``watermark * cap``."""
        level = watermark * self.cap
        return sum(1 for q in self._q if len(q) > level) / self.n

    # -- task flow --------------------------------------------------------

    def push(self, i: int, t_arrival: float) -> None:
        """Enqueue an admitted task (the caller checked :meth:`full`)."""
        if len(self._q[i]) >= self.cap:
            raise RuntimeError(
                f"queue {i} is full (cap {self.cap}); admission must "
                "reject before pushing"
            )
        self._q[i].append(t_arrival)

    def pop_oldest(self, i: int, now: float) -> float:
        """Complete the oldest task on ``i``; record and return its sojourn."""
        t_arrival = self._q[i].popleft()
        sojourn = now - t_arrival
        self.sojourns.append(sojourn)
        self.completed += 1
        return sojourn

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
        moving: list[float] = []
        for k, i in enumerate(alive_idx):
            give = int(before[k]) - int(after[k])
            q = self._q[int(i)]
            for _ in range(give):
                moving.append(q.pop())
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
            q = self._q[int(i)]
            merged = sorted(list(q) + moving[pos:pos + take])
            pos += take
            q.clear()
            q.extend(merged)
        if pos != moved:  # pragma: no cover - split bookkeeping bug
            raise RuntimeError(
                f"migrate imbalance: {moved} donated, {pos} received"
            )
        return moved

    # -- end-of-run statistics -------------------------------------------

    def sojourn_percentiles(self, *qs: float) -> list[float]:
        """Percentiles of completed-task sojourn times (0 when none)."""
        if not self.sojourns:
            return [0.0 for _ in qs]
        arr = np.asarray(self.sojourns)
        return [float(np.percentile(arr, q)) for q in qs]

    def worst_sojourns(self, k: int = 10) -> list[tuple[float, float]]:
        """The ``k`` largest sojourns as ``(sojourn, completion share)``.

        The share is the completion index divided by the total count —
        a cheap "when in the run did the slow tasks finish" signal for
        the report's waterfall.
        """
        order = sorted(
            range(len(self.sojourns)),
            key=lambda j: self.sojourns[j],
            reverse=True,
        )[:k]
        total = max(len(self.sojourns), 1)
        return [(self.sojourns[j], (j + 1) / total) for j in order]
