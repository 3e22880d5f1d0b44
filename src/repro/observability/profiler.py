"""Profiling hooks: wall-clock section timers for the hot paths.

The engines wrap their hot sections — trigger evaluation, partner
selection, the snake re-deal, the columnar passes — in
:meth:`Profiler.section` context managers, but only when a profiler was
passed in: like the tracer, the hot path holds a cached boolean and
skips the instrumentation with one branch when profiling is off, so a
non-profiled run pays nothing.

A section is a histogram ``section.<name>`` (seconds, buckets
:data:`SECTION_BUCKETS`) in the profiler's
:class:`~repro.observability.metrics.MetricsRegistry`, so sections
render in the Prometheus exposition as the ``repro_section_seconds``
family.
Section names are the benchmark's layer names (``perfbench/layers.py``).

Timings use :func:`time.perf_counter_ns` (monotonic, ns resolution).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator

from repro.observability.metrics import Histogram, MetricsRegistry

__all__ = ["Profiler", "SECTION_BUCKETS", "SECTION_PREFIX"]

#: section histogram bucket edges, seconds: powers of 4 from 1 µs to ~4 s
SECTION_BUCKETS: tuple[float, ...] = tuple(1e-6 * 4**k for k in range(12))

#: registry name prefix of a section histogram
SECTION_PREFIX = "section."


class Profiler:
    """Named wall-clock section timers over a metrics registry.

    >>> prof = Profiler()
    >>> with prof.section("deal"):
    ...     pass
    >>> prof.summary()[0][:2]
    ('deal', 1)
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        # name -> histogram, so the hot path skips the registry's
        # get-or-create bounds check
        self._sections: dict[str, Histogram] = {}

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.observe_ns(name, time.perf_counter_ns() - t0)

    def observe_ns(self, name: str, ns: int) -> None:
        try:
            h = self._sections[name]
        except KeyError:
            h = self._sections[name] = self.registry.histogram(
                SECTION_PREFIX + name, SECTION_BUCKETS
            )
        # Histogram.observe, inlined to save a Python call per observation
        v = ns / 1e9
        h.counts[bisect_left(h.bounds, v)] += 1
        h.sum += v
        h.count += 1
        if v < h.min:
            h.min = v
        if v > h.max:
            h.max = v

    def summary(
        self,
    ) -> list[tuple[str, int, float, float, float, float, float]]:
        """Rows ``(section, calls, total_ms, share_pct, mean_us, min_us,
        max_us)`` sorted by total time descending.

        Reads every ``section.*`` histogram of the registry.
        ``share_pct`` is the section's share of the summed total across
        all sections — a quick "where does the time go" column.  Nested sections both
        count their wall time, so shares can exceed 100 in aggregate;
        within one nesting level they partition it.
        """
        sections = {
            name[len(SECTION_PREFIX):]: h
            for name, h in self.registry.as_dict()["histograms"].items()
            if name.startswith(SECTION_PREFIX) and h["count"]
        }
        grand_total = sum(h["sum"] for h in sections.values())
        rows = [
            (
                name,
                h["count"],
                h["sum"] * 1e3,
                100.0 * h["sum"] / grand_total if grand_total else 0.0,
                h["sum"] / h["count"] * 1e6,
                h["min"] * 1e6,
                h["max"] * 1e6,
            )
            for name, h in sections.items()
        ]
        rows.sort(key=lambda r: -r[2])
        return rows
