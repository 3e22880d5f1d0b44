"""Admission control: the service's front door.

Two independent gates protect the processors from open-loop traffic
(``docs/SERVICE.md`` has the full policy):

* a :class:`TokenBucket` caps the *sustained admission rate* with a
  burst allowance — the classic rate limiter, refilled continuously in
  model time.  The degradation ladder scales the refill rate down
  (``set_scale``) as the service degrades, which is what "tightening
  admission" means mechanically;
* a queue-depth gate rejects arrivals whose routed target queue is
  full (*reject-newest*: the freshest work is the cheapest to refuse —
  nothing has been invested in it yet).

A third gate exists only in the ``shedding`` state: the *brown-out*
sheds non-critical requests outright, before they touch the bucket,
preserving both tokens and queue slots for critical work.

Decisions are deterministic functions of ``(time, state)`` — no RNG —
so a replayed arrival stream produces bit-identical admit/shed
decisions.  Every decision is counted by reason; the counters feed the
``service_shed`` trace events and the SLO document.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TokenBucket", "AdmissionController", "SHED_REASONS"]

#: decision reasons, in gate order (brown-out fires first, depth last)
SHED_REASONS = ("brownout", "bucket", "depth")


class TokenBucket:
    """Continuous-refill token bucket in model time.

    ``rate`` tokens accrue per time unit (scaled by :meth:`set_scale`),
    up to ``burst`` banked tokens.  ``try_take`` consumes one token if
    available.  Time must be fed monotonically (the event queue
    guarantees that).
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.scale = 1.0
        self.tokens = float(burst)
        self._t_last = 0.0

    def set_scale(self, scale: float) -> None:
        """Scale the refill rate (degradation ladder hook)."""
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale}")
        self.scale = float(scale)

    def _refill(self, now: float) -> None:
        dt = now - self._t_last
        if dt > 0:
            self.tokens = min(self.burst, self.tokens + dt * self.rate * self.scale)
            self._t_last = now

    def try_take(self, now: float) -> bool:
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Compose the gates; route and decide one arrival at a time."""

    def __init__(self, bucket: TokenBucket, queues) -> None:
        self.bucket = bucket
        self.queues = queues
        self.brownout = False
        self.offered = 0
        self.admitted = 0
        self.shed = dict.fromkeys(SHED_REASONS, 0)

    def set_brownout(self, active: bool) -> None:
        """Enable/disable the non-critical brown-out (ladder hook)."""
        self.brownout = bool(active)

    def decide(self, now: float, arrival, loads: np.ndarray):
        """Decide one arrival: ``(admitted, target, reason)``.

        ``target`` is the routed processor (power-of-two-choices over
        the engine's ``loads``, which equal the live queue depths);
        ``reason`` is ``None`` on admit, else one of
        :data:`SHED_REASONS`.  Counters update as a side effect.
        """
        self.offered += 1
        target = arrival.route(loads)
        if self.brownout and not arrival.critical:
            self.shed["brownout"] += 1
            return False, target, "brownout"
        if not self.bucket.try_take(now):
            self.shed["bucket"] += 1
            return False, target, "bucket"
        if self.queues.full(target):
            self.shed["depth"] += 1
            return False, target, "depth"
        self.admitted += 1
        return True, target, None

    def shed_total(self) -> int:
        return sum(self.shed.values())

    def counters(self) -> dict:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed_total(),
            "shed_by_reason": dict(self.shed),
        }
