"""The graceful-degradation ladder: ``healthy → backpressure → shedding
→ recovering → healthy``.

A live service cannot promise the Theorem-4 band unconditionally — a
flash crowd during a crash burst *will* overload it.  What it can
promise is to fail in a controlled order and to climb back.  The
ladder is a small deterministic state machine evaluated at every
engine snapshot from two backpressure signals:

* ``hot`` — the fraction of processors whose queue depth exceeds the
  high watermark (:meth:`~repro.service.queues.TaskQueues.hot_fraction`);
* ``depth_sheds`` — arrivals rejected at full queues since the last
  evaluation (the hard backpressure signal: bounded queues pushed
  back).

States and their actions (applied on entry; see ``docs/SERVICE.md``):

``healthy``
    Full admission rate, configured trigger factor, no brown-out.
``backpressure``
    Admission refill scaled by ``BP_SCALE`` — the soft push-back.
``shedding``
    Admission scaled by ``SHED_SCALE``, the brown-out sheds
    non-critical arrivals, and the balancing trigger is *widened*
    (factor pulled toward 1) so the engine redistributes backlog more
    eagerly.
``recovering``
    Brown-out off, admission still tightened (``RECOVER_SCALE``),
    trigger still widened; after ``HOLD`` consecutive calm snapshots
    the service is ``healthy`` again and every knob is restored.

Transitions are emitted as schema-registered ``service_state`` trace
events and recorded in :attr:`DegradationLadder.transitions` — the
degradation-state timeline of ``results/service.json``.
"""

from __future__ import annotations

__all__ = ["DegradationLadder", "STATES"]

HEALTHY = "healthy"
BACKPRESSURE = "backpressure"
SHEDDING = "shedding"
RECOVERING = "recovering"

STATES = (HEALTHY, BACKPRESSURE, SHEDDING, RECOVERING)

# Thresholds and knob settings.  The watermark is a fraction of the
# queue cap; ``ENTER_*`` / ``EXIT_*`` are fractions of processors over
# it.  Exit levels sit below entry levels on purpose (hysteresis: the
# ladder must not flap on a noisy boundary).
HIGH_WATERMARK = 0.5    # queue depth fraction counting as hot
ENTER_BP = 0.125        # hot fraction: healthy -> backpressure
ENTER_SHED = 0.3        # hot fraction: -> shedding
EXIT_SHED = 0.15        # hot fraction to leave shedding
EXIT_BP = 0.05          # hot fraction counting as calm
HOLD = 8                # calm snapshots before healthy again
BP_SCALE = 0.7          # admission refill scale in backpressure
SHED_SCALE = 0.4        # admission refill scale in shedding
RECOVER_SCALE = 0.7     # admission refill scale in recovering
TRIGGER_WIDEN = 0.5     # widened f = 1 + (f-1) * TRIGGER_WIDEN


class DegradationLadder:
    """Evaluate the ladder at snapshots; apply knob changes on entry."""

    def __init__(self, *, admission, engine, tracer=None) -> None:
        self.admission = admission
        self.engine = engine
        self.tracer = tracer
        self.state = HEALTHY
        self.transitions: list[dict] = []
        self._f0 = float(engine.params.f)
        self._calm = 0

    @property
    def widened_f(self) -> float:
        return 1.0 + (self._f0 - 1.0) * TRIGGER_WIDEN

    # -- evaluation -------------------------------------------------------

    def evaluate(self, t: float, hot: float, depth_sheds: int) -> None:
        """One snapshot's worth of ladder logic."""
        pressed = hot >= ENTER_SHED or depth_sheds > 0
        if self.state == HEALTHY:
            if pressed:
                self._to(SHEDDING, t, self._why(hot, depth_sheds))
            elif hot >= ENTER_BP:
                self._to(BACKPRESSURE, t, f"hot={hot:.2f}")
        elif self.state == BACKPRESSURE:
            if pressed:
                self._to(SHEDDING, t, self._why(hot, depth_sheds))
            elif hot <= EXIT_BP:
                self._to(RECOVERING, t, f"hot={hot:.2f}")
        elif self.state == SHEDDING:
            if hot <= EXIT_SHED and depth_sheds == 0:
                self._to(RECOVERING, t, f"hot={hot:.2f}")
        else:  # RECOVERING
            if pressed:
                self._to(SHEDDING, t, self._why(hot, depth_sheds))
            elif hot >= ENTER_BP:
                self._to(BACKPRESSURE, t, f"hot={hot:.2f}")
            else:
                calm = hot <= EXIT_BP and depth_sheds == 0
                self._calm = self._calm + 1 if calm else 0
                if self._calm >= HOLD:
                    self._to(HEALTHY, t, f"calm for {self._calm} snapshots")

    @staticmethod
    def _why(hot: float, depth_sheds: int) -> str:
        if depth_sheds > 0:
            return f"{depth_sheds} depth shed(s), hot={hot:.2f}"
        return f"hot={hot:.2f}"

    # -- transition machinery ---------------------------------------------

    def _to(self, state: str, t: float, reason: str) -> None:
        prev = self.state
        self.state = state
        self._calm = 0
        self._apply(state)
        self.transitions.append(
            {"t": float(t), "prev": prev, "state": state, "reason": reason}
        )
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                "service_state",
                time=float(t), prev=prev, state=state, reason=reason,
            )

    def _apply(self, state: str) -> None:
        if state == HEALTHY:
            self.admission.bucket.set_scale(1.0)
            self.admission.set_brownout(False)
            self.engine.set_trigger_factor(self._f0)
        elif state == BACKPRESSURE:
            self.admission.bucket.set_scale(BP_SCALE)
            self.admission.set_brownout(False)
        elif state == SHEDDING:
            self.admission.bucket.set_scale(SHED_SCALE)
            self.admission.set_brownout(True)
            self.engine.set_trigger_factor(self.widened_f)
        else:  # RECOVERING: keep the widened trigger while draining
            self.admission.bucket.set_scale(RECOVER_SCALE)
            self.admission.set_brownout(False)

    # -- reporting --------------------------------------------------------

    def timeline(self) -> list[dict]:
        """The transition log (the ``service.json`` timeline section)."""
        return list(self.transitions)

    def time_in_state(self, t_end: float) -> dict[str, float]:
        """Total model time spent in each state up to ``t_end``."""
        out = dict.fromkeys(STATES, 0.0)
        t_prev, state = 0.0, HEALTHY
        for tr in self.transitions:
            out[state] += tr["t"] - t_prev
            t_prev, state = tr["t"], tr["state"]
        out[state] += max(t_end - t_prev, 0.0)
        return out
