"""Tests for the telemetry exporters and the ``repro top`` client.

Prometheus text exposition (render + parse round-trip, HTTP server),
the Chrome trace-event exporter (shapes, fault windows, truncation
handling), and the dashboard rendering.
"""

import io
import json

import pytest

from repro.observability import (
    MetricsRegistry,
    Profiler,
    TelemetrySampler,
    Tracer,
    spans_from_trace,
)
from repro.observability.export import (
    TelemetryServer,
    chrome_trace_events,
    parse_exposition,
    render_exposition,
    write_chrome_trace,
)
from repro.observability.top import (
    TopHistory,
    fetch_metrics,
    render_frame,
    run_top,
)
from repro.params import LBParams
from repro.service import ServiceConfig, service_run

PARAMS = LBParams(f=1.5, delta=1, C=2)


def _service_sampler(seed=0):
    sampler = TelemetrySampler(interval=0.0)
    service_run(ServiceConfig.smoke(seed=seed), chaos=True, telemetry=sampler)
    return sampler


class TestExposition:
    def test_parse_inverts_render(self):
        sampler = _service_sampler()
        parsed = parse_exposition(render_exposition(sampler))
        snap = sampler.snapshot()
        latest = snap["latest"]
        assert parsed["repro_telemetry_samples_total"][()] == snap["samples"]
        assert parsed["repro_offered_total"][()] == latest["offered"]
        assert parsed["repro_theorem4_band_occupancy"][()] == pytest.approx(
            snap["band_occupancy"]
        )
        assert parsed["repro_sojourn_seconds"][
            (("quantile", "0.99"),)
        ] == pytest.approx(latest["sojourn_p99"])
        for reason, count in latest["shed"].items():
            assert parsed["repro_shed_total"][(("reason", reason),)] == count

    def test_counters_end_in_total(self):
        text = render_exposition(_service_sampler())
        for line in text.splitlines():
            if line.startswith("# TYPE") and line.endswith(" counter"):
                assert line.split()[2].endswith("_total"), line

    def test_ladder_state_is_one_hot(self):
        parsed = parse_exposition(render_exposition(_service_sampler()))
        values = list(parsed["repro_ladder_state"].values())
        assert sorted(values) == [0.0, 0.0, 0.0, 1.0]

    def test_tracer_drops_always_exposed(self):
        # even a bare sampler exports the drop counter (at zero)...
        sampler = TelemetrySampler(interval=0.0)
        sampler.sample(0.0, [])
        parsed = parse_exposition(render_exposition(sampler))
        assert parsed["repro_tracer_dropped_total"][()] == 0.0
        # ...and a sampler bound to a service whose ring evicts reports
        # the drops
        tracer = Tracer(capacity=2)
        sampler = TelemetrySampler(interval=0.0)
        service_run(
            ServiceConfig.smoke(seed=0), tracer=tracer, telemetry=sampler
        )
        parsed = parse_exposition(render_exposition(sampler))
        assert parsed["repro_tracer_dropped_total"][()] == tracer.dropped > 0

    def test_registry_metrics_exported(self):
        registry = MetricsRegistry()
        registry.counter("sim.ticks").inc(7)
        registry.gauge("load.mean").set(2.5)
        for v in (1, 2, 10):
            registry.histogram("load.spread").observe(v)
        sampler = TelemetrySampler(interval=0.0, metrics=registry)
        sampler.sample(0.0, [])
        parsed = parse_exposition(render_exposition(sampler))
        assert parsed["repro_sim_ticks_total"][()] == 7.0
        assert parsed["repro_load_mean"][()] == 2.5
        buckets = parsed["repro_load_spread_bucket"]
        assert buckets[(("le", "+Inf"),)] == 3.0
        # cumulative: every bucket <= the +Inf bucket
        assert all(v <= 3.0 for v in buckets.values())
        assert parsed["repro_load_spread_count"][()] == 3.0
        assert parsed["repro_load_spread_sum"][()] == 13.0

    def test_section_histograms_render_as_one_family(self):
        registry = MetricsRegistry()
        profiler = Profiler(registry)
        for ns in (2_000, 50_000, 3_000_000):
            profiler.observe_ns("columnar.residual", ns)
        profiler.observe_ns("columnar.classify", 1_000)
        sampler = TelemetrySampler(interval=0.0, metrics=registry)
        sampler.sample(0.0, [])
        text = render_exposition(sampler)
        assert 'repro_section_seconds_bucket{le="+Inf",section="columnar.residual"} 3' in text
        assert text.count("# TYPE repro_section_seconds_bucket histogram") == 1
        parsed = parse_exposition(text)
        residual = (("section", "columnar.residual"),)
        assert parsed["repro_section_seconds_count"][residual] == 3.0
        assert parsed["repro_section_seconds_sum"][residual] == pytest.approx(3.052e-3)
        assert parsed["repro_section_seconds_count"][(("section", "columnar.classify"),)] == 1.0
        buckets = parsed["repro_section_seconds_bucket"]
        assert buckets[(("le", "1e-06"), ("section", "columnar.classify"))] == 1.0
        assert {dict(k)["section"] for k in buckets} == {
            "columnar.residual", "columnar.classify",
        }
        # no per-section families from the generic registry rendering
        assert not any(name.startswith("repro_section_columnar") for name in parsed)


class TestTelemetryServer:
    def test_scrape_over_http(self):
        sampler = _service_sampler()
        with TelemetryServer(sampler) as server:
            assert server.port > 0
            parsed = fetch_metrics(server.url)
        assert parsed["repro_telemetry_samples_total"][()] == sampler.samples

    def test_unknown_path_is_404(self):
        import urllib.error
        import urllib.request

        with TelemetryServer(TelemetrySampler()) as server:
            base = server.url.rsplit("/", 1)[0]
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(f"{base}/nope", timeout=2)
            assert exc.value.code == 404


def _traced_events():
    """One asynchronous operation across a fault window."""
    tracer = Tracer()
    tracer.emit("async_accept", time=0.0, initiator=1, group=[1, 3])
    tracer.emit("fault_crash", time=1.0, proc=2)
    tracer.emit(
        "async_balance", time=1.5, initiator=1, group=[1, 3],
        loads_before=[4, 0], loads_after=[2, 2], migrated=2,
    )
    tracer.emit("fault_recover", time=2.0, proc=2)
    return tracer.events


class TestChromeExport:
    def test_event_shapes(self):
        out = chrome_trace_events(_traced_events())
        assert out[0]["ph"] == "M"  # process-name metadata first
        phases = [(e["ph"], e.get("cat")) for e in out[1:]]
        assert phases == [
            ("B", "span"), ("i", "span"), ("E", None),
            ("i", "event"), ("i", "event"), ("X", "fault"),
        ]
        begin, point, end = out[1:4]
        assert begin["name"] == "async_balance" and begin["tid"] == 1
        assert (point["name"], point["ts"]) == ("partner_select", 0.0)
        assert end["ts"] == 1500.0
        assert end["args"] == {"status": "completed", "migrated": 2}
        window = out[-1]
        assert window["name"] == "crash" and window["tid"] == 2
        assert window["ts"] == 1000.0 and window["dur"] == 1000.0

    def test_one_span_per_balancing_operation(self):
        from repro.simulation.driver import run_simulation
        from repro.workload import Section7Workload

        tracer = Tracer()
        res = run_simulation(
            16, LBParams(f=1.3, delta=2, C=4),
            Section7Workload(16, 120, layout_rng=0), 120, seed=0,
            tracer=tracer,
        )
        out = chrome_trace_events(tracer.events, run_id="r")
        begins = [e for e in out if e["ph"] == "B"]
        ends = [e for e in out if e["ph"] == "E"]
        assert len(begins) == len(ends) == res.total_ops > 0
        assert {e["args"]["run_id"] for e in begins} == {"r"}

    def test_unclosed_fault_window_closes_at_horizon(self):
        tracer = Tracer()
        tracer.emit("fault_crash", time=1.0, proc=0)
        tracer.emit("fault_crash", time=2.0, proc=0)  # refresh, no recover
        out = chrome_trace_events(tracer.events)
        open_windows = [e for e in out if e.get("name") == "crash (open)"]
        assert len(open_windows) == 1

    def test_profiler_sections_become_aggregate_slabs(self):
        profiler = Profiler()
        profiler.observe_ns("selection.select", 4_000)
        profiler.observe_ns("selection.select", 6_000)
        profiler.observe_ns("triggers.check", 1_000)
        out = chrome_trace_events(_traced_events(), profiler=profiler)
        slabs = [e for e in out if e.get("cat") == "profiler"]
        assert [(e["ph"], e["name"], e["args"]["count"]) for e in slabs] == [
            ("X", "selection.select", 2), ("X", "triggers.check", 1),
        ]
        assert slabs[0]["dur"] == pytest.approx(10.0)  # us
        assert slabs[1]["ts"] == pytest.approx(slabs[0]["dur"])
        assert slabs[0]["args"]["mean_ns"] == pytest.approx(5_000.0)
        assert any(e.get("args", {}).get("name") == "profiler (aggregate)"
                   for e in out if e["ph"] == "M")
        # an empty profiler adds no lane
        assert chrome_trace_events(_traced_events(), profiler=Profiler()) == (
            chrome_trace_events(_traced_events())
        )

    def test_write_returns_count_and_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, _traced_events(), run_id="r1")
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == count
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["run_id"] == "r1"

    def test_spans_from_trace_warns_on_truncation(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.emit("async_accept", time=float(i), initiator=i, group=[i, 9])
            tracer.emit(
                "async_balance", time=float(i) + 0.5, initiator=i,
                group=[i, 9], loads_before=[2, 0], loads_after=[1, 1],
                migrated=1,
            )
        warn = Tracer()
        recovered = spans_from_trace(tracer.events, tracer=warn)
        warnings = [e for e in warn.events if e["type"] == "trace_truncated"]
        assert len(warnings) == 1 and warnings[0]["dropped"] > 0
        assert recovered  # the surviving spans still reconstruct


def _frame_history():
    sampler = _service_sampler()
    history = TopHistory()
    parsed = parse_exposition(render_exposition(sampler))
    history.add(parsed, at=0.0)
    history.add(parsed, at=1.0)
    return history


class TestTop:
    def test_history_rate_from_counter_deltas(self):
        history = TopHistory()
        history.add({"repro_offered_total": {(): 10.0}}, at=0.0)
        history.add({"repro_offered_total": {(): 30.0}}, at=2.0)
        assert history.rate("repro_offered_total") == 10.0
        assert history.series("repro_offered_total") == [10.0, 30.0]
        assert history.rate("repro_nope_total") is None

    def test_render_frame_shows_vitals_and_keybindings(self):
        lines = render_frame(_frame_history())
        text = "\n".join(lines)
        assert "band occupancy" in text
        assert "sojourn p50" in text
        assert "offered" in text and "admit rate" in text
        assert "q quit · p pause · any key refresh" in text

    def test_render_frame_before_first_scrape(self):
        assert "waiting" in render_frame(TopHistory())[0]

    def test_run_top_once_prints_one_frame(self):
        with TelemetryServer(_service_sampler()) as server:
            out = io.StringIO()
            assert run_top(server.url, once=True, out=out) == 0
        assert "repro top" in out.getvalue()

    def test_run_top_once_unreachable_exits_1(self, capsys):
        assert run_top(
            "http://127.0.0.1:9/metrics", once=True, out=io.StringIO()
        ) == 1
        assert "cannot scrape" in capsys.readouterr().err
