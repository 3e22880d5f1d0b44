"""Live telemetry: windowed sampling and cross-process trace context.

Everything else in this package is post-hoc — you learn what a run did
after it ends.  This module is the live half of the observability
story, with two independent jobs:

**Windowed time-series sampling.**  A :class:`TelemetrySampler` is
attached to a running engine (the service engine samples it at
snapshot boundaries, the synchronous driver per tick) and keeps a
bounded sliding window of service-level observations: the Theorem-4
statistic and its rolling band occupancy, sojourn quantiles,
admission/shed counters, degradation-ladder state, monitor breach
counts, tracer ring-buffer drops.  Sampling is strictly *read-only*
over the attached sources — it never touches an RNG, never mutates
engine state, and costs nothing when no sampler is attached (the
engines hold ``None`` and skip the call with one branch), so the
bit-identity contract of the monitors-off golden tests extends to
telemetry verbatim.  Consumers render the sampler: the Prometheus
text-exposition endpoint and the ``repro top`` TUI
(:mod:`repro.observability.export`).

**Cross-process trace context.**  A :class:`TraceContext` names a run
(``run_id``) and the parent span a batch was dispatched under, and
travels across the :class:`~repro.simulation.parallel.BatchClient`
boundary: the client wraps each task so the worker process sees
:func:`current_context` with its own ``worker`` index before the task
function runs.  Workers record into private tracers and ship
:func:`worker_payload` dicts back (the same serialise-and-reduce shape
the metrics registry uses); :func:`merge_worker_traces` folds any
number of payloads into one causally-ordered, schema-valid timeline —
span ids remapped so they cannot collide, a ``trace_context``
provenance event opening each buffer, a ``trace_truncated`` warning
wherever a ring buffer had evicted events, ``seq`` reassigned so
:func:`~repro.observability.schema.validate_trace` passes.  The wire
contract is documented in ``docs/OBSERVABILITY.md`` ("Telemetry").
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from repro.observability.tracer import NULL_TRACER

__all__ = [
    "TraceContext",
    "current_context",
    "set_current_context",
    "worker_payload",
    "merge_worker_traces",
    "TelemetrySampler",
    "event_time",
]


# -- cross-process trace context ------------------------------------------


@dataclass(frozen=True, slots=True)
class TraceContext:
    """Provenance a batch dispatch carries across the process boundary.

    ``run_id`` names the whole run (every worker of a run shares it);
    ``parent_span`` is the span id the dispatch site was recording
    under (-1 when none); ``worker`` is the per-task index the backend
    stamps via :meth:`child` (-1 in the parent).
    """

    run_id: str
    parent_span: int = -1
    worker: int = -1

    def child(self, worker: int) -> "TraceContext":
        """The context a worker task runs under: same run, own index."""
        return replace(self, worker=int(worker))

    def describe(self) -> dict:
        return {
            "run_id": self.run_id,
            "parent_span": self.parent_span,
            "worker": self.worker,
        }


_CURRENT: TraceContext | None = None


def current_context() -> TraceContext | None:
    """The :class:`TraceContext` installed in this process, if any."""
    return _CURRENT


def set_current_context(ctx: TraceContext | None) -> None:
    """Install (or clear) the process-wide trace context.

    Worker processes are single-task-at-a-time, so one module-level
    slot suffices; the batch client installs the child context before the
    task function runs and clear it after.
    """
    global _CURRENT
    _CURRENT = ctx


def worker_payload(tracer, context: TraceContext | None = None) -> dict:
    """The plain-dict trace a worker ships back through the pool.

    ``context`` defaults to :func:`current_context` — inside a
    backend-dispatched task that is the propagated parent context with
    this task's ``worker`` index already stamped.
    """
    ctx = context if context is not None else current_context()
    return {
        "context": ctx.describe() if ctx is not None else {
            "run_id": "", "parent_span": -1, "worker": -1,
        },
        "events": list(getattr(tracer, "events", ())),
        "dropped": int(getattr(tracer, "dropped", 0)),
    }


def event_time(ev: Mapping) -> float:
    """An event's timestamp: async events carry ``time``, synchronous
    and span events carry ``t`` (``span``-less events without either —
    e.g. ``backend_fallback`` — sort at 0.0)."""
    return float(ev.get("time", ev.get("t", 0.0)))


def merge_worker_traces(
    payloads: Iterable[Mapping], *, start_seq: int = 0
) -> list[dict]:
    """Fold per-worker trace payloads into one causally-ordered timeline.

    ``payloads`` are :func:`worker_payload` dicts in *causal priority
    order*: put the parent's buffer first so that at equal timestamps
    the parent's events (the spans that dispatched the work) sort
    before the workers' (the spans they opened in response) — the
    property test pins that parent spans open before their children.

    Per payload, in order:

    * a ``trace_context`` provenance event opens the buffer (stamped
      with the payload's run id, worker index, parent span and drop
      count, at the buffer's first event time);
    * span ids are remapped by a per-payload offset so independently
      allocated ids cannot collide in the merged stream;
    * a ``trace_truncated`` warning event is injected when the
      payload's ring buffer had evicted events — truncation is loud,
      never silent.

    The merged stream is sorted by ``(time, payload rank, original
    seq)`` and ``seq`` reassigned from ``start_seq``, so the result
    passes :func:`~repro.observability.schema.validate_trace`.
    """
    staged: list[tuple[float, int, int, dict]] = []
    span_offset = 0
    for rank, payload in enumerate(payloads):
        ctx = payload.get("context") or {}
        events = payload.get("events") or []
        dropped = int(payload.get("dropped", 0))
        t0 = event_time(events[0]) if events else 0.0
        # rank breaks ties at equal times; -2/-1 keep the provenance
        # marker (and truncation warning) ahead of the buffer's events
        staged.append((t0, rank, -2, {
            "type": "trace_context",
            "time": t0,
            "run_id": str(ctx.get("run_id", "")),
            "worker": int(ctx.get("worker", -1)),
            "parent_span": int(ctx.get("parent_span", -1)),
            "dropped": dropped,
        }))
        if dropped:
            staged.append((t0, rank, -1, {
                "type": "trace_truncated",
                "time": t0,
                "worker": int(ctx.get("worker", -1)),
                "dropped": dropped,
            }))
        max_span = -1
        for ev in events:
            ev = dict(ev)
            if ev.get("type") in ("span_start", "span_point", "span_end"):
                sid = int(ev["span"])
                max_span = max(max_span, sid)
                ev["span"] = sid + span_offset
            staged.append((event_time(ev), rank, int(ev.get("seq", 0)), ev))
        span_offset += max_span + 1
    staged.sort(key=lambda item: item[:3])
    merged = []
    for seq, (_, _, _, ev) in enumerate(staged, start=start_seq):
        ev["seq"] = seq
        merged.append(ev)
    return merged


# -- the windowed sampler --------------------------------------------------


class TelemetrySampler:
    """Bounded sliding window of live service-level observations.

    Attach with :meth:`bind_service` (a
    :class:`~repro.service.engine.ServiceEngine` samples it at snapshot
    boundaries) or pass ``telemetry=`` to
    :func:`~repro.simulation.driver.run_simulation` (sampled per tick).
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
    params:
        Optional :class:`~repro.params.LBParams`; enables the Theorem-4
        statistic (``rho``, band, rolling occupancy) for engines that
        have no SLO tracker attached.
    tracer / metrics / monitors:
        Optional sources surfaced in the exposition (ring-buffer drops,
        the generic metric registry, breach counts).
    """

    def __init__(
        self,
        *,
        interval: float = 0.5,
        window: int = 240,
        params=None,
        tracer=None,
        metrics=None,
        monitors=None,
    ) -> None:
        if interval < 0:
            raise ValueError(f"interval must be >= 0, got {interval}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.interval = float(interval)
        self.window = int(window)
        self.band: float | None = None
        self.C: int | None = None
        if params is not None:
            from repro.theory.bounds import theorem4_bound

            self.band = theorem4_bound(None, params.delta, params.f)
            self.C = params.C
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.monitors = monitors
        # service sources (bound by bind_service)
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
        if self.tracer is NULL_TRACER:
            self.tracer = engine.tracer
        if self.monitors is None:
            self.monitors = getattr(engine, "monitors", None)

    # -- sampling ---------------------------------------------------------

    def sample(self, t: float, loads=None) -> bool:
        """Take one observation at model time ``t`` (read-only).

        Returns whether the sample was accepted (``interval`` thins the
        call stream down to the configured cadence).
        """
        t = float(t)
        if self._last is not None and t - self._last < self.interval:
            return False
        point: dict = {"t": t}
        if loads is not None and self.C is not None and len(loads) > 0:
            lo = float(min(loads))
            hi = float(max(loads))
            point["rho"] = hi / (lo + self.C)
            point["load_min"] = lo
            point["load_max"] = hi
        elif self.slo is not None and self.slo.rho:
            point["rho"] = self.slo.rho[-1]
        if self.queues is not None:
            p50, p99 = self.queues.sojourn_percentiles(50, 99)
            point["sojourn_p50"] = p50
            point["sojourn_p99"] = p99
            point["completed"] = self.queues.completed
            if self.ladder is not None:
                point["hot"] = self.queues.hot_fraction(
                    self.ladder.cfg.high_watermark
                )
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
        if getattr(self.tracer, "enabled", False):
            churn: dict[str, int] = {}
            for ev in self.tracer:
                k = ev.get("type")
                if k in ("topology_change", "node_leave", "node_join"):
                    churn[k] = churn.get(k, 0) + 1
            if churn:
                point["churn"] = churn
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
            from repro.dynnet.metrics import rolling_band_occupancy

            times = [p["t"] for p in points if "rho" in p]
            span = (
                self.interval * self.window
                if self.interval > 0
                else times[-1] - times[0]
            )
            out["band_occupancy"] = rolling_band_occupancy(
                times, rho, self.band, window=span
            )
        return out

    def series(self, key: str) -> list[float]:
        """One windowed series (points lacking ``key`` are skipped)."""
        with self._lock:
            return [p[key] for p in self.points if key in p]
