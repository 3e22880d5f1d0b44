"""Prometheus text exposition over a :class:`TelemetrySampler`.

Two halves:

* :func:`render_exposition` — the pure renderer: sampler state in, the
  Prometheus `text exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_ out
  (``# HELP`` / ``# TYPE`` comments, ``name{labels} value`` samples).
  Counters end in ``_total``; the attached
  :class:`~repro.observability.metrics.MetricsRegistry` (when any) is
  exported generically with dotted names sanitised to underscores and
  histograms rendered as cumulative ``_bucket{le=...}`` series, except
  the profiler's ``section.<name>`` histograms, which render as one
  family ``repro_section_seconds{section="<name>"}``.  The registry is
  read without a lock while the run writes it: every value is read
  whole, but a scrape can fall between the field updates of one
  observation, so a histogram's ``_count`` may lead its ``+Inf`` bucket
  by an observation or two.
* :class:`TelemetryServer` — a stdlib ``http.server`` endpoint serving
  the rendering at ``/metrics`` from a daemon thread, so a live
  ``repro serve --telemetry PORT`` run can be scraped while the
  episode executes.  Zero third-party dependencies, zero RNG use, and
  strictly read-only over the sampler: attaching it cannot perturb a
  run (the bit-identity contract).

:func:`parse_exposition` is the matching reader used by ``repro top``
and the smoke tests — it understands exactly what the renderer writes.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

from repro.observability.profiler import SECTION_PREFIX

__all__ = ["render_exposition", "parse_exposition", "TelemetryServer"]

_PREFIX = "repro_"


def _sanitise(name: str) -> str:
    """Dotted registry names to Prometheus metric names."""
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return _PREFIX + out


def _labels(labels: Mapping[str, str] | None) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value)) if isinstance(value, float) else str(value)


class _Lines:
    """Accumulates exposition lines, writing HELP/TYPE once per metric."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._typed: set[str] = set()

    def add(
        self,
        name: str,
        value: float,
        *,
        mtype: str,
        help_: str,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        if name not in self._typed:
            self.lines.append(f"# HELP {name} {help_}")
            self.lines.append(f"# TYPE {name} {mtype}")
            self._typed.add(name)
        self.lines.append(f"{name}{_labels(labels)} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_exposition(sampler) -> str:
    """Render a sampler's current state as Prometheus exposition text."""
    snap = sampler.snapshot()
    latest = snap["latest"]
    out = _Lines()
    out.add(
        "repro_telemetry_samples_total", snap["samples"],
        mtype="counter", help_="Telemetry samples accepted since start.",
    )
    out.add(
        "repro_telemetry_window_points", snap["window"],
        mtype="gauge", help_="Points currently held in the sliding window.",
    )
    if snap.get("band") is not None:
        out.add(
            "repro_theorem4_band", snap["band"],
            mtype="gauge",
            help_="The Theorem-4 bound f^2*delta/(delta+1-f).",
        )
    if "band_occupancy" in snap:
        out.add(
            "repro_theorem4_band_occupancy", snap["band_occupancy"],
            mtype="gauge",
            help_="Fraction of windowed snapshots with rho inside the "
            "Theorem-4 band.",
        )
    if "rho" in latest:
        out.add(
            "repro_rho", latest["rho"],
            mtype="gauge",
            help_="Instantaneous extreme ratio max(l)/(min(l)+C).",
        )
    for key, name in (("load_min", "repro_load_min"),
                      ("load_max", "repro_load_max")):
        if key in latest:
            out.add(
                name, latest[key], mtype="gauge",
                help_="Extreme of the latest sampled load vector.",
            )
    for q, key in (("0.5", "sojourn_p50"), ("0.99", "sojourn_p99")):
        if key in latest:
            out.add(
                "repro_sojourn_seconds", latest[key],
                mtype="gauge", labels={"quantile": q},
                help_="Completed-task sojourn quantiles (model time).",
            )
    if "hot" in latest:
        out.add(
            "repro_queue_hot_fraction", latest["hot"],
            mtype="gauge",
            help_="Fraction of queues above the ladder's high watermark.",
        )
    for key, name, help_ in (
        ("offered", "repro_offered_total", "Arrivals offered to admission."),
        ("admitted", "repro_admitted_total", "Arrivals admitted to a queue."),
        ("completed", "repro_completed_total", "Tasks completed."),
    ):
        if key in latest:
            out.add(name, latest[key], mtype="counter", help_=help_)
    for reason, count in sorted((latest.get("shed") or {}).items()):
        out.add(
            "repro_shed_total", count,
            mtype="counter", labels={"reason": reason},
            help_="Arrivals shed, by admission gate.",
        )
    if "state" in latest:
        from repro.service.degradation import STATES

        for state in STATES:
            out.add(
                "repro_ladder_state", 1 if state == latest["state"] else 0,
                mtype="gauge", labels={"state": state},
                help_="Degradation-ladder state (one-hot).",
            )
    for monitor, count in sorted((latest.get("breaches") or {}).items()):
        out.add(
            "repro_monitor_breaches_total", count,
            mtype="counter", labels={"monitor": monitor},
            help_="Conformance-monitor breaches, by monitor.",
        )
    out.add(
        "repro_tracer_dropped_total", latest.get("tracer_dropped", 0),
        mtype="counter",
        help_="Events evicted from the tracer ring buffer.",
    )
    if sampler.metrics is not None:
        payload = sampler.metrics.as_dict()
        for name, value in payload["counters"].items():
            out.add(
                _sanitise(name) + "_total", value,
                mtype="counter", help_=f"Registry counter {name!r}.",
            )
        for name, value in payload["gauges"].items():
            if value is not None:
                out.add(
                    _sanitise(name), value,
                    mtype="gauge", help_=f"Registry gauge {name!r}.",
                )
        for name, data in payload["histograms"].items():
            if name.startswith(SECTION_PREFIX):
                base = "repro_section_seconds"
                labels = {"section": name[len(SECTION_PREFIX):]}
                help_ = "Profiler section wall time (seconds), by section."
            else:
                base, labels = _sanitise(name), {}
                help_ = f"Registry histogram {name!r}."
            cum = 0
            edges = [_fmt(float(b)) for b in data["bounds"]] + ["+Inf"]
            for le, count in zip(edges, data["counts"]):
                cum += count
                out.add(base + "_bucket", cum, mtype="histogram",
                        labels={**labels, "le": le}, help_=help_)
            out.lines.append(f"{base}_sum{_labels(labels)} {_fmt(data['sum'])}")
            out.lines.append(f"{base}_count{_labels(labels)} {data['count']}")
    return out.text()


def parse_exposition(text: str) -> dict[str, dict[tuple, float]]:
    """Parse exposition text back into ``{name: {labels: value}}``.

    ``labels`` is a sorted tuple of ``(key, value)`` pairs (``()`` for
    unlabelled samples).  Understands the subset of the format
    :func:`render_exposition` emits — enough for ``repro top`` and the
    CI scrape assertions, not a general Prometheus parser.
    """
    out: dict[str, dict[tuple, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        if not head:
            continue
        labels: tuple = ()
        name = head
        if "{" in head:
            name, _, rest = head.partition("{")
            rest = rest.rstrip("}")
            pairs = []
            for part in filter(None, rest.split(",")):
                k, _, v = part.partition("=")
                pairs.append((k, v.strip('"')))
            labels = tuple(sorted(pairs))
        try:
            out.setdefault(name, {})[labels] = float(value)
        except ValueError:
            continue
    return out


class _Handler(BaseHTTPRequestHandler):
    """Serves ``/metrics`` (exposition) and ``/`` (a pointer to it)."""

    server_version = "repro-telemetry/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path.split("?", 1)[0] not in ("/", "/metrics"):
            self.send_error(404, "only /metrics is served here")
            return
        if self.path.split("?", 1)[0] == "/":
            body = b"repro telemetry endpoint; scrape /metrics\n"
            ctype = "text/plain; charset=utf-8"
        else:
            body = render_exposition(self.server.sampler).encode()
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:  # pragma: no cover - silence
        pass


class TelemetryServer:
    """Serve a sampler's exposition from a daemon thread.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start` (the tests and the CLI's startup banner do).  The
    server thread only ever *reads* sampler state under its lock, so
    attaching it to a live run cannot change the run's results.
    """

    def __init__(self, sampler, *, host: str = "127.0.0.1", port: int = 0):
        self.sampler = sampler
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.sampler = sampler
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}/metrics"

    def start(self) -> "TelemetryServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
