"""Tests for the live telemetry layer.

Covers the windowed :class:`TelemetrySampler` of
:mod:`repro.observability.telemetry` (interval thinning, window bound,
service binding, rolling band occupancy, cumulative churn counts) and
its bit-identity contract: a run with a sampler attached is
indistinguishable, down to the RNG stream state, from a run without
one.
"""

import numpy as np
import pytest

from repro.core.columnar import ColumnarEngine
from repro.core.engine import Engine, EngineConfig
from repro.observability import TelemetrySampler, Tracer
from repro.observability.export.prometheus import (
    parse_exposition,
    render_exposition,
)
from repro.params import LBParams
from repro.service import ServiceConfig, service_run
from repro.simulation.driver import Simulation, run_simulation
from repro.workload import UniformRandom

PARAMS = LBParams(f=1.5, delta=1, C=2)


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
        tracer.emit("fault_crash", time=0.0, proc=0)
        tracer.emit("fault_recover", time=1.0, proc=0)
        sampler = TelemetrySampler(interval=0.0, tracer=tracer)
        sampler.sample(0.0)
        assert sampler.snapshot()["latest"]["tracer_dropped"] > 0

    def test_churn_counter_never_decreases_while_the_ring_evicts(self):
        tracer = Tracer(capacity=4)
        sampler = TelemetrySampler(interval=0.0, tracer=tracer)
        scraped = []
        events = ["node_leave", "node_leave"] + ["tick"] * 6
        for t, etype in enumerate(events):
            tracer.emit(etype, t=float(t), proc=0)
            sampler.sample(float(t))
            series = parse_exposition(render_exposition(sampler))
            counter = series.get("repro_churn_events_total", {})
            scraped.append(sum(counter.values()))
        assert tracer.dropped > 0  # both leaves were evicted
        assert scraped == [1, 2, 2, 2, 2, 2, 2, 2]


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
