"""Observability: structured tracing, metrics, and profiling.

The paper's statements (Theorems 1-4, the section-5 variation
recursion, the section-6 cost lemmas) are all *per-tick, per-processor*
claims — load ratios, balancing-operation counts, borrow/debt traffic.
The experiment harness historically surfaced only end-of-run aggregates
(:class:`repro.metrics.collector.MultiRunCollector` envelopes).  This
package turns every simulation into an inspectable trace:

* :mod:`repro.observability.tracer` — a ring-buffered structured event
  tracer with NDJSON export.  Zero overhead when disabled: the engines
  hold a plain boolean and skip every emission site with a single
  branch.
* :mod:`repro.observability.schema` — the instrumentation contract: a
  registry of every event type and its required fields, plus
  validators for single events, in-memory traces and NDJSON files.
  ``docs/OBSERVABILITY.md`` is the prose rendering of this registry and
  a smoke test keeps the two in lock-step.
* :mod:`repro.observability.metrics` — counters / gauges / histograms
  in a :class:`MetricsRegistry` that the simulation driver updates per
  tick.
* :mod:`repro.observability.profiler` — context-manager wall-clock
  timers around the hot paths (trigger evaluation, partner selection,
  the snake re-deal, the columnar passes), named after the benchmark's
  layers.  Each section is a ``section.<name>`` histogram in a
  :class:`MetricsRegistry`, so sections show in the live exposition.
* :mod:`repro.observability.analysis` — summarise, reconcile and diff
  recorded traces (``repro trace`` prints them).
* :mod:`repro.observability.monitors` — streaming conformance monitors
  checking the paper's theorem bands *while the run executes*; breaches
  land in the trace as ``monitor_*`` events.
* :mod:`repro.observability.spans` — balancing-operation spans: one
  causal story per trigger fire, derived from the ordinary events of
  any trace and ranked most troubled first.
* :mod:`repro.observability.report` — render a traced run as a
  self-contained markdown/HTML report, one renderer per section
  (``repro report``; ``repro spans`` and ``repro profile`` print its
  spans and profiler sections).  The bench-document compare behind
  ``repro report --compare`` lives with the bench writer in
  :mod:`repro.experiments.microbench`.
* :mod:`repro.observability.telemetry` — live telemetry: a windowed
  time-series sampler over a service run's metrics/SLO/monitor state.
* :mod:`repro.observability.export` — telemetry consumers: Prometheus
  text exposition over HTTP (``repro serve --telemetry``) and Chrome
  trace-event / Perfetto export (``repro trace --export chrome``).
* :mod:`repro.observability.top` — the ``repro top`` live terminal
  dashboard scraping a telemetry endpoint.

The instrumentation contract — which events exist, what fields they
carry and which theorem or figure each one supports — is documented in
``docs/OBSERVABILITY.md``.
"""

from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    event_time,
)
from repro.observability.schema import (
    EVENT_SCHEMAS,
    EventSchema,
    SchemaError,
    validate_event,
    validate_ndjson,
    validate_trace,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.profiler import Profiler
from repro.observability.analysis import (
    diff_summaries,
    loads_from_trace,
    ops_per_tick_from_trace,
    reconcile_async_trace,
    reconcile_trace,
    render_summary,
    summarise_trace,
)
from repro.observability.monitors import (
    Breach,
    ConservationMonitor,
    FixpointMonitor,
    Monitor,
    MonitorSuite,
    OpBudgetMonitor,
    Recovery,
    Theorem4BandMonitor,
    VariationMonitor,
)
from repro.observability.report import (
    build_report,
    profiler_section,
    sparkline,
    spans_section,
    to_html,
)
from repro.observability.spans import (
    Span,
    rank_spans,
    render_waterfall,
    spans_from_trace,
    worst_span,
)
from repro.observability.telemetry import TelemetrySampler

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "EventSchema",
    "EVENT_SCHEMAS",
    "SchemaError",
    "validate_event",
    "validate_trace",
    "validate_ndjson",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Profiler",
    "summarise_trace",
    "render_summary",
    "diff_summaries",
    "ops_per_tick_from_trace",
    "loads_from_trace",
    "reconcile_trace",
    "reconcile_async_trace",
    "Monitor",
    "MonitorSuite",
    "Breach",
    "Recovery",
    "Theorem4BandMonitor",
    "FixpointMonitor",
    "VariationMonitor",
    "ConservationMonitor",
    "OpBudgetMonitor",
    "Span",
    "spans_from_trace",
    "rank_spans",
    "worst_span",
    "render_waterfall",
    "build_report",
    "spans_section",
    "profiler_section",
    "to_html",
    "sparkline",
    "TelemetrySampler",
    "event_time",
]
