"""Metrics registry: counters, gauges and histograms.

The simulation layer updates a :class:`MetricsRegistry` as it runs (the
driver per tick, the engines at run end).  Design rules:

* **Plain-data snapshot.**  :meth:`MetricsRegistry.as_dict` renders
  the registry as nested dicts of numbers; the Prometheus exposition
  and :meth:`repro.observability.profiler.Profiler.summary` read it.
* **Stable naming.**  Metric names are dotted paths
  (``engine.balance_ops``, ``load.spread``); the full catalogue of
  names emitted by the stock driver is documented in
  ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (powers of two; the driver's
#: ``load.spread`` histogram uses these — per-tick spreads beyond 1024
#: land in the overflow bucket).
DEFAULT_BUCKETS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount


class Gauge:
    """Last-observed value (``None`` until first set)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max (Prometheus-style).

    ``bounds`` are inclusive upper bucket edges; observations above the
    last bound land in an implicit overflow bucket, so ``counts`` has
    ``len(bounds) + 1`` entries.  ``min``/``max`` are the extreme
    observations (``inf``/``-inf`` while empty).
    """

    __slots__ = ("bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        b = tuple(float(x) for x in bounds)
        if not b or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"bounds must be non-empty and increasing, got {bounds}")
        self.bounds = b
        self.counts = [0] * (len(b) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        # the first edge >= value is the inclusive bucket; past the last
        # edge bisect returns len(bounds), the overflow bucket
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Named counters / gauges / histograms with get-or-create access.

    A name is owned by the first kind that claims it; asking for the
    same name as a different kind raises (silent shadowing would make
    the snapshot ambiguous).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- access ----------------------------------------------------------

    def _claim(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other, table in owners.items():
            if other != kind and name in table:
                raise ValueError(f"metric {name!r} already registered as a {other}")

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            self._claim(name, "counter")
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            self._claim(name, "gauge")
            g = self._gauges[name] = Gauge()
        return g

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            self._claim(name, "histogram")
            h = self._histograms[name] = Histogram(bounds)
        elif h.bounds != tuple(float(x) for x in bounds):
            raise ValueError(
                f"histogram {name!r} already registered with bounds {h.bounds}"
            )
        return h

    def __contains__(self, name: str) -> bool:
        return (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        )

    # -- snapshot --------------------------------------------------------

    def as_dict(self) -> dict:
        """Plain-data snapshot (picklable / JSON-able)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                }
                for k, h in sorted(self._histograms.items())
            },
        }
