"""Live telemetry: windowed time-series sampling.

Everything else in this package is post-hoc — you learn what a run did
after it ends.  This module is the live half of the observability
story.  A :class:`TelemetrySampler` is attached to a running service
engine (which samples it at snapshot boundaries) and keeps a bounded
sliding window of service-level observations: the Theorem-4 statistic
and its rolling band occupancy, sojourn quantiles, admission/shed
counters, degradation-ladder state, monitor breach counts, tracer
ring-buffer drops.  Sampling is strictly *read-only* over the attached
sources — it never touches an RNG, never mutates engine state, and
costs nothing when no sampler is attached (the engine holds ``None``
and skips the call with one branch), so the bit-identity contract of
the service golden document extends to telemetry verbatim.  Consumers
render the sampler: the Prometheus text-exposition endpoint and the
``repro top`` TUI (:mod:`repro.observability.export`).
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from repro.metrics.band import band_occupancy, extreme_ratio
from repro.observability.tracer import NULL_TRACER

__all__ = ["TelemetrySampler"]


class TelemetrySampler:
    """Bounded sliding window of live service-level observations.

    A :class:`~repro.service.engine.ServiceEngine` binds it
    (:meth:`bind_service`) and samples it at snapshot boundaries.
    Every :meth:`sample` call is read-only over the bound sources; the
    exporters (:mod:`repro.observability.export`) render the window.

    Parameters
    ----------
    interval:
        Minimum model-time spacing between accepted samples; calls
        inside the interval are ignored (the cadence knob).
    window:
        Maximum points kept (sliding); also the horizon of the rolling
        band-occupancy statistic.
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`
        surfaced in the exposition.
    """

    def __init__(
        self,
        *,
        interval: float = 0.5,
        window: int = 240,
        metrics=None,
    ) -> None:
        if interval < 0:
            raise ValueError(f"interval must be >= 0, got {interval}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.interval = float(interval)
        self.window = int(window)
        self.metrics = metrics
        # service sources (bound by bind_service)
        self.band: float | None = None
        self.C: int | None = None
        self.tracer = NULL_TRACER
        self.monitors = None
        self.slo = None
        self.ladder = None
        self.admission = None
        self.queues = None
        self.samples = 0
        self.points: deque[dict] = deque(maxlen=self.window)
        self._last: float | None = None
        self._lock = threading.Lock()

    # -- binding ----------------------------------------------------------

    def bind_service(self, engine) -> None:
        """Wire the sampler to a service engine's observable parts."""
        self.slo = engine.slo
        self.ladder = engine.ladder
        self.admission = engine.admission
        self.queues = engine.queues
        self.band = engine.slo.band
        self.C = engine.slo.C
        self.tracer = engine.tracer
        self.monitors = engine.monitors

    # -- sampling ---------------------------------------------------------

    def sample(self, t: float, loads) -> bool:
        """Take one observation at model time ``t`` of the per-processor
        ``loads`` (read-only).

        Returns whether the sample was accepted (``interval`` thins the
        call stream down to the configured cadence).
        """
        t = float(t)
        if self._last is not None and t - self._last < self.interval:
            return False
        point: dict = {"t": t}
        if self.C is not None and len(loads) > 0:
            loads = np.asarray(loads)
            point["rho"] = float(extreme_ratio(loads, self.C))
            point["load_min"] = float(loads.min())
            point["load_max"] = float(loads.max())
        if self.queues is not None:
            p50, p99 = self.queues.sojourn_percentiles(50, 99)
            point["sojourn_p50"] = p50
            point["sojourn_p99"] = p99
            point["completed"] = self.queues.completed
        if self.slo is not None and self.slo.hot:
            # the hot fraction the engine handed the SLO tracker and the
            # ladder at this snapshot
            point["hot"] = self.slo.hot[-1]
        if self.admission is not None:
            counters = self.admission.counters()
            point["offered"] = counters["offered"]
            point["admitted"] = counters["admitted"]
            point["shed"] = dict(counters["shed_by_reason"])
        if self.ladder is not None:
            point["state"] = self.ladder.state
        if self.monitors is not None:
            breaches: dict[str, int] = {}
            for b in self.monitors.breaches:
                breaches[b.monitor] = breaches.get(b.monitor, 0) + 1
            point["breaches"] = breaches
        point["tracer_dropped"] = int(getattr(self.tracer, "dropped", 0))
        with self._lock:
            self.points.append(point)
            self.samples += 1
            self._last = t
        return True

    # -- reading (exporters hold the same lock) ---------------------------

    def snapshot(self) -> dict:
        """Exporter view: the latest point, the window, and derived
        rolling statistics — safe to call from the HTTP thread."""
        with self._lock:
            points = list(self.points)
            samples = self.samples
        latest = points[-1] if points else {}
        out = {
            "samples": samples,
            "window": len(points),
            "latest": latest,
            "points": points,
            "band": self.band,
        }
        rho = [p["rho"] for p in points if "rho" in p]
        if rho and self.band is not None:
            times = [p["t"] for p in points if "rho" in p]
            span = (
                self.interval * self.window
                if self.interval > 0
                else times[-1] - times[0]
            )
            out["band_occupancy"] = band_occupancy(
                times, rho, self.band, since=times[-1] - span
            )
        return out

    def series(self, key: str) -> list[float]:
        """One windowed series (points lacking ``key`` are skipped)."""
        with self._lock:
            return [p[key] for p in self.points if key in p]
