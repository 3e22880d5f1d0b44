"""Telemetry consumers: Prometheus exposition, Chrome/Perfetto traces.

Three export surfaces over the live telemetry layer
(:mod:`repro.observability.telemetry`):

* :mod:`repro.observability.export.prometheus` — render a
  :class:`~repro.observability.telemetry.TelemetrySampler` in the
  Prometheus text exposition format and serve it over HTTP with the
  stdlib ``http.server`` (``repro serve --telemetry PORT``), plus the
  small exposition parser the ``repro top`` client uses;
* :mod:`repro.observability.export.chrome` — render a recorded event
  trace as a Chrome trace-event JSON file loadable in Perfetto /
  ``chrome://tracing`` (``repro trace --export chrome``, ``repro bench
  --trace-out``).

Formats and metric names are documented in ``docs/OBSERVABILITY.md``
("Telemetry").
"""

from repro.observability.export.chrome import (
    chrome_trace_events,
    write_chrome_trace,
)
from repro.observability.export.prometheus import (
    TelemetryServer,
    parse_exposition,
    render_exposition,
)

__all__ = [
    "render_exposition",
    "parse_exposition",
    "TelemetryServer",
    "chrome_trace_events",
    "write_chrome_trace",
]
