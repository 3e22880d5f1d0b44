"""Trigger policies: when does a processor initiate a balancing operation?

The paper's rule (appendix): processor ``i`` initiates whenever its
self-generated load ``d[i][i]`` satisfies

    ``d[i][i] >= f * l_old``   (growth trigger)   or
    ``d[i][i] <= l_old / f``   (decrease trigger),

where ``l_old`` is the value of ``d[i][i]`` recorded at the processor's
previous balancing operation.

Taken literally the rule degenerates at ``l_old = 0``: both comparisons
hold for ``d[i][i] = 0``, so an idle processor would balance on every
tick forever.  The paper's timing model (one local-clock tick per
balancing operation, load changes by at most a factor ``f`` between
ticks) implicitly assumes a processor only re-triggers once its load has
actually *changed* by the factor.  :class:`FactorTrigger` therefore
offers two modes:

* guarded (default): never trigger while ``d[i][i] == l_old == 0``; the
  growth trigger at ``l_old == 0`` fires as soon as the first packet
  appears, the decrease trigger requires ``l_old >= 1``.
* strict: the literal rule, for studying the degenerate behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["TriggerDecision", "FactorTrigger"]


class TriggerDecision(Enum):
    """Outcome of a trigger test."""

    NONE = "none"
    GROWTH = "growth"
    DECREASE = "decrease"

    def __bool__(self) -> bool:
        return self is not TriggerDecision.NONE


@dataclass(frozen=True, slots=True)
class FactorTrigger:
    """The factor-``f`` trigger of the appendix.

    Parameters
    ----------
    f:
        Trigger factor, finite and ``f >= 1``.
    strict:
        Use the paper's literal comparisons (degenerate at
        ``l_old = 0``); default False (guarded, see module docstring).
    """

    f: float
    strict: bool = False

    def __post_init__(self) -> None:
        if not self.f >= 1.0:
            raise ValueError(f"f must be >= 1, got {self.f}")
        if not math.isfinite(self.f):
            raise ValueError(f"f must be finite, got {self.f}")

    def check(self, own_load: int, l_old: int) -> TriggerDecision:
        """Test the trigger for current self-load and recorded ``l_old``."""
        if own_load < 0 or l_old < 0:
            raise ValueError(
                f"loads must be non-negative, got own={own_load}, l_old={l_old}"
            )
        if self.strict:
            if own_load >= self.f * l_old:
                return TriggerDecision.GROWTH
            if own_load <= l_old / self.f:
                return TriggerDecision.DECREASE
            return TriggerDecision.NONE

        if l_old == 0:
            # growth: first self-generated packet(s) trigger immediately
            return TriggerDecision.GROWTH if own_load >= 1 else TriggerDecision.NONE
        if own_load >= self.f * l_old and own_load > l_old:
            return TriggerDecision.GROWTH
        if own_load <= l_old / self.f and own_load < l_old:
            return TriggerDecision.DECREASE
        return TriggerDecision.NONE

    def quiet_interval(
        self, l_old: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integer quiet band per processor: ``(lo, hi)``, both exclusive.

        For *integer* own-loads the trigger is a pure threshold test:
        ``check(own, old) is NONE``  iff  ``lo < own < hi``.  The bounds
        come from the same IEEE-double products as :meth:`check` — for an
        integer ``own`` and a float threshold ``x``, ``own >= x`` iff
        ``own >= ceil(x)`` and ``own <= x`` iff ``own <= floor(x)``, and
        ``ceil``/``floor`` of a float64 are exact — so the band agrees
        with the scalar method bit for bit, not approximately (pinned by
        the sweep + hypothesis property in ``tests/core/test_triggers.py``).

        Bands let the engines classify a whole network in one fused pass
        (growth and decrease tests for both post-action loads out of one
        band computation) and let the columnar engine bound how many ±1
        ticks a processor can absorb before re-classification is needed:
        the band margin *is* the deep-quiet horizon (see
        ``docs/PERFORMANCE.md``).
        """
        old = np.atleast_1d(np.asarray(l_old, dtype=np.int64))
        # growth fires iff own >= hi; the minimum keeps a pathological
        # f * old overflow (inf) from wrapping in the int64 cast — loads
        # can never reach 2**62, so the clamp preserves "never fires"
        hi = np.minimum(np.ceil(self.f * old), 2.0**62).astype(np.int64)
        # decrease fires iff own <= lo
        lo = np.floor(old / self.f).astype(np.int64)
        if self.strict:
            return lo, hi
        np.maximum(hi, old + 1, out=hi)  # guarded growth also needs own > old
        np.minimum(lo, old - 1, out=lo)  # guarded decrease also needs own < old
        # guarded l_old == 0: fire (growth) iff own >= 1, never decrease
        zero = old == 0
        lo = np.where(zero, np.int64(-(2**62)), lo)
        hi = np.where(zero, np.int64(1), hi)
        return lo, hi

