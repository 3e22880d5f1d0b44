"""Tests for the live telemetry layer: sampler, trace context, merging.

Covers the two halves of :mod:`repro.observability.telemetry` —

* the windowed :class:`TelemetrySampler` (interval thinning, window
  bound, service binding, rolling band occupancy) and its bit-identity
  contract: a run with a sampler attached is indistinguishable, down
  to the RNG stream state, from a run without one;
* cross-process trace context (:class:`TraceContext`,
  :func:`worker_payload`, :func:`merge_worker_traces`) including a
  hypothesis property that merged timelines are causally ordered —
  time-sorted, schema-valid ``seq``, parent spans open before their
  children.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.columnar import ColumnarEngine
from repro.core.engine import Engine, EngineConfig
from repro.observability import (
    SpanRecorder,
    TelemetrySampler,
    TraceContext,
    Tracer,
    current_context,
    merge_worker_traces,
    set_current_context,
    validate_trace,
    worker_payload,
)
from repro.observability.tracer import event_time
from repro.params import LBParams
from repro.service import ServiceConfig, service_run
from repro.simulation.driver import Simulation, run_simulation
from repro.workload import UniformRandom

PARAMS = LBParams(f=1.5, delta=1, C=2)


@pytest.fixture(autouse=True)
def _clean_context():
    """Never leak an installed trace context between tests."""
    set_current_context(None)
    yield
    set_current_context(None)


class TestTraceContext:
    def test_child_stamps_worker_only(self):
        ctx = TraceContext("run-7", parent_span=3)
        child = ctx.child(5)
        assert child == TraceContext("run-7", parent_span=3, worker=5)
        assert ctx.worker == -1  # frozen parent untouched

    def test_describe_is_plain_data(self):
        assert TraceContext("r", parent_span=1, worker=2).describe() == {
            "run_id": "r", "parent_span": 1, "worker": 2,
        }

    def test_install_and_clear(self):
        assert current_context() is None
        ctx = TraceContext("r")
        set_current_context(ctx)
        assert current_context() is ctx
        set_current_context(None)
        assert current_context() is None


class TestWorkerPayload:
    def test_without_context_uses_sentinel(self):
        payload = worker_payload(Tracer())
        assert payload == {
            "context": {"run_id": "", "parent_span": -1, "worker": -1},
            "events": [],
            "dropped": 0,
        }

    def test_picks_up_installed_context(self):
        set_current_context(TraceContext("r", parent_span=0, worker=4))
        assert worker_payload(Tracer())["context"]["worker"] == 4

    def test_explicit_context_wins(self):
        set_current_context(TraceContext("installed"))
        ctx = TraceContext("explicit", worker=1)
        assert worker_payload(Tracer(), ctx)["context"]["run_id"] == "explicit"

    def test_carries_events_and_drops(self):
        tracer = Tracer(capacity=2)
        spans = SpanRecorder(tracer)
        for i in range(3):
            sid = spans.start(t=float(i), op=f"op{i}", proc=0)
            spans.end(sid, t=float(i), status="completed")
        payload = worker_payload(tracer)
        assert len(payload["events"]) == 2
        assert payload["dropped"] == 4


def _span_payload(times, worker, *, run_id="run", parent_span=0):
    """A well-formed worker payload with one closed span per time."""
    tracer = Tracer()
    spans = SpanRecorder(tracer)
    for i, t in enumerate(times):
        sid = spans.start(t=float(t), op=f"w{worker}:{i}", proc=max(worker, 0))
        spans.end(sid, t=float(t), status="completed")
    ctx = TraceContext(run_id, parent_span=parent_span, worker=worker)
    return worker_payload(tracer, ctx)


class TestMergeWorkerTraces:
    def test_merged_timeline_is_schema_valid(self):
        merged = merge_worker_traces([
            _span_payload([0.0, 2.0], -1),
            _span_payload([1.0], 0),
            _span_payload([0.5, 3.0], 1),
        ])
        counts = validate_trace(merged)  # raises on bad seq/fields
        assert counts["trace_context"] == 3
        assert counts["span_start"] == 5

    def test_span_ids_cannot_collide(self):
        # both workers allocated span ids 0..1 independently
        merged = merge_worker_traces([
            _span_payload([0.0, 1.0], 0),
            _span_payload([0.0, 1.0], 1),
        ])
        sids = [ev["span"] for ev in merged if ev["type"] == "span_start"]
        assert len(sids) == len(set(sids)) == 4

    def test_provenance_event_opens_each_buffer(self):
        merged = merge_worker_traces(
            [_span_payload([5.0], 0, run_id="abc")], start_seq=10
        )
        head = merged[0]
        assert head["type"] == "trace_context"
        assert head["run_id"] == "abc"
        assert head["time"] == 5.0  # stamped at the buffer's first event
        assert [ev["seq"] for ev in merged] == list(range(10, 10 + len(merged)))

    def test_truncated_buffer_warns_loudly(self):
        tracer = Tracer(capacity=2)
        spans = SpanRecorder(tracer)
        for i in range(4):
            sid = spans.start(t=float(i), op=f"op{i}", proc=0)
            spans.end(sid, t=float(i), status="completed")
        payload = worker_payload(tracer, TraceContext("r", worker=2))
        merged = merge_worker_traces([payload])
        warnings = [ev for ev in merged if ev["type"] == "trace_truncated"]
        assert len(warnings) == 1
        assert warnings[0]["dropped"] == payload["dropped"] > 0
        assert warnings[0]["worker"] == 2

    def test_parent_rank_breaks_timestamp_ties(self):
        # parent dispatches at t=0, workers start at t=0 too: the
        # parent's span must still open first in the merged stream
        merged = merge_worker_traces([
            _span_payload([0.0], -1, parent_span=-1),
            _span_payload([0.0], 0),
            _span_payload([0.0], 1),
        ])
        starts = [ev for ev in merged if ev["type"] == "span_start"]
        assert starts[0]["op"] == "w-1:0"

    @given(
        worker_times=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0),
                min_size=0, max_size=6,
            ).map(sorted),
            min_size=0, max_size=4,
        )
    )
    def test_merge_properties(self, worker_times):
        """Merged timelines are causally ordered, whatever the buffers.

        Time-sorted, strictly increasing seq (via validate_trace), one
        provenance event per payload, and the parent's spans open
        before any worker span at the same or later time.
        """
        parent = _span_payload([0.0], -1, parent_span=-1)
        payloads = [parent] + [
            _span_payload(times, w) for w, times in enumerate(worker_times)
        ]
        merged = merge_worker_traces(payloads)
        validate_trace(merged)
        stamps = [event_time(ev) for ev in merged]
        assert stamps == sorted(stamps)
        n_contexts = sum(ev["type"] == "trace_context" for ev in merged)
        assert n_contexts == len(payloads)
        starts = [ev for ev in merged if ev["type"] == "span_start"]
        if starts:  # worker times are all >= the parent's t=0 dispatch
            assert starts[0]["op"] == "w-1:0"


class TestTelemetrySampler:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="interval"):
            TelemetrySampler(interval=-1.0)
        with pytest.raises(ValueError, match="window"):
            TelemetrySampler(window=0)

    def test_interval_thins_the_call_stream(self):
        sampler = TelemetrySampler(interval=1.0)
        assert sampler.sample(0.0) is True
        assert sampler.sample(0.5) is False
        assert sampler.sample(0.99) is False
        assert sampler.sample(1.0) is True
        assert sampler.samples == 2

    def test_window_bounds_the_points(self):
        sampler = TelemetrySampler(interval=0.0, window=5)
        for t in range(20):
            sampler.sample(float(t))
        snap = sampler.snapshot()
        assert snap["samples"] == 20  # lifetime counter keeps counting
        assert snap["window"] == 5
        assert [p["t"] for p in snap["points"]] == [15.0, 16.0, 17.0, 18.0, 19.0]

    def test_loads_with_params_yield_theorem4_statistic(self):
        sampler = TelemetrySampler(interval=0.0, params=PARAMS)
        assert sampler.band is not None
        sampler.sample(1.0, loads=[1, 5])
        point = sampler.snapshot()["latest"]
        assert point["rho"] == pytest.approx(5.0 / (1.0 + PARAMS.C))
        assert (point["load_min"], point["load_max"]) == (1.0, 5.0)

    def test_rolling_band_occupancy_in_snapshot(self):
        sampler = TelemetrySampler(interval=0.0, window=8, params=PARAMS)
        for t in range(8):
            # alternate inside (balanced) / far outside the band
            loads = [4, 4] if t % 2 == 0 else [1, 50]
            sampler.sample(float(t), loads=loads)
        occ = sampler.snapshot()["band_occupancy"]
        assert 0.0 < occ < 1.0

    def test_series_skips_points_without_key(self):
        sampler = TelemetrySampler(interval=0.0, params=PARAMS)
        sampler.sample(0.0, loads=[1, 2])
        sampler.sample(1.0)  # no loads: no rho on this point
        sampler.sample(2.0, loads=[2, 2])
        assert len(sampler.series("rho")) == 2
        assert len(sampler.series("t")) == 3

    def test_empty_snapshot(self):
        snap = TelemetrySampler().snapshot()
        assert snap["samples"] == 0 and snap["latest"] == {}

    def test_tracer_drops_surfaced(self):
        tracer = Tracer(capacity=1)
        spans = SpanRecorder(tracer)
        sid = spans.start(t=0.0, op="x", proc=0)
        spans.end(sid, t=1.0, status="completed")
        sampler = TelemetrySampler(interval=0.0, tracer=tracer)
        sampler.sample(0.0)
        assert sampler.snapshot()["latest"]["tracer_dropped"] > 0


class TestServiceBinding:
    def test_service_run_populates_the_window(self):
        sampler = TelemetrySampler(interval=0.0)
        run = service_run(
            ServiceConfig.smoke(seed=0), chaos=True, telemetry=sampler
        )
        assert sampler.samples > 0
        assert sampler.band == run.doc["band"]
        latest = sampler.snapshot()["latest"]
        for key in ("rho", "sojourn_p50", "sojourn_p99", "offered",
                    "admitted", "shed", "state", "hot", "completed"):
            assert key in latest, key
        assert latest["offered"] == run.doc["slo"]["offered"]
        # the smoke episode sheds during the burst: the funnel shows it
        assert sum(latest["shed"].values()) > 0
        assert 0.0 <= sampler.snapshot()["band_occupancy"] <= 1.0

    def test_bind_inherits_engine_tracer(self):
        tracer = Tracer()
        sampler = TelemetrySampler(interval=0.0)
        service_run(
            ServiceConfig.smoke(seed=0), chaos=True,
            tracer=tracer, telemetry=sampler,
        )
        assert sampler.tracer is tracer


class TestBitIdentity:
    """Telemetry attached vs not: bit-identical runs, both engines."""

    @pytest.mark.parametrize("engine_cls", [Engine, ColumnarEngine])
    def test_run_simulation_identical(self, engine_cls):
        def go(telemetry):
            return run_simulation(
                16, PARAMS, UniformRandom(16, 0.6, 0.4), steps=60,
                seed=5, telemetry=telemetry, engine_cls=engine_cls,
            )

        off = go(None)
        on = go(TelemetrySampler(interval=0.0, params=PARAMS))
        assert np.array_equal(on.loads, off.loads)
        assert on.counters == off.counters
        assert on.total_ops == off.total_ops
        assert on.packets_migrated == off.packets_migrated

    @pytest.mark.parametrize("engine_cls", [Engine, ColumnarEngine])
    def test_rng_stream_state_untouched(self, engine_cls):
        """The strongest form: identical generator state after the run."""
        def go(telemetry):
            engine = engine_cls(
                EngineConfig(n=8, params=PARAMS), rng=3
            )
            workload_rng = np.random.default_rng(11)
            sim = Simulation(
                engine, UniformRandom(8, 0.6, 0.4),
                workload_rng=workload_rng, telemetry=telemetry,
            )
            sim.run(40)
            return (
                engine.rng.bit_generator.state,
                workload_rng.bit_generator.state,
            )

        assert go(TelemetrySampler(interval=0.0, params=PARAMS)) == go(None)

    def test_traced_runs_identical(self):
        """Golden event streams match with and without a sampler."""
        def go(telemetry):
            tracer = Tracer()
            run_simulation(
                8, PARAMS, UniformRandom(8, 0.6, 0.4), steps=40,
                seed=1, tracer=tracer, telemetry=telemetry,
            )
            return tracer.events

        assert go(TelemetrySampler(interval=0.0)) == go(None)

    def test_service_document_identical(self):
        cfg = ServiceConfig.smoke(seed=0)
        off = service_run(cfg, chaos=True)
        on = service_run(
            cfg, chaos=True, telemetry=TelemetrySampler(interval=0.0)
        )
        assert on.doc == off.doc
