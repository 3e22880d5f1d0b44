"""Tests for the live telemetry layer.

Covers the windowed :class:`TelemetrySampler` of
:mod:`repro.observability.telemetry` (interval thinning, window bound,
service binding, rolling band occupancy) and its bit-identity contract:
a service run with a sampler attached is indistinguishable, down to the
RNG stream state, from a run without one.
"""

from types import SimpleNamespace

import pytest

from repro.observability import TelemetrySampler, Tracer
from repro.observability.tracer import NULL_TRACER
from repro.params import LBParams
from repro.service import ServiceConfig, SLOTracker, service_run

PARAMS = LBParams(f=1.5, delta=1, C=2)


def bound_sampler(tracer=NULL_TRACER, **knobs) -> TelemetrySampler:
    """A sampler bound to the Theorem-4 band and ``C`` of ``PARAMS``
    (an SLO tracker with no queues, admission or ladder behind it)."""
    sampler = TelemetrySampler(**knobs)
    sampler.bind_service(SimpleNamespace(
        slo=SLOTracker(PARAMS), ladder=None, admission=None, queues=None,
        tracer=tracer, monitors=None,
    ))
    return sampler


class TestTelemetrySampler:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="interval"):
            TelemetrySampler(interval=-1.0)
        with pytest.raises(ValueError, match="window"):
            TelemetrySampler(window=0)

    def test_interval_thins_the_call_stream(self):
        sampler = TelemetrySampler(interval=1.0)
        assert sampler.sample(0.0, []) is True
        assert sampler.sample(0.5, []) is False
        assert sampler.sample(0.99, []) is False
        assert sampler.sample(1.0, []) is True
        assert sampler.samples == 2

    def test_window_bounds_the_points(self):
        sampler = TelemetrySampler(interval=0.0, window=5)
        for t in range(20):
            sampler.sample(float(t), [])
        snap = sampler.snapshot()
        assert snap["samples"] == 20  # lifetime counter keeps counting
        assert snap["window"] == 5
        assert [p["t"] for p in snap["points"]] == [15.0, 16.0, 17.0, 18.0, 19.0]

    def test_loads_with_params_yield_theorem4_statistic(self):
        sampler = bound_sampler(interval=0.0)
        assert sampler.band is not None
        sampler.sample(1.0, loads=[1, 5])
        point = sampler.snapshot()["latest"]
        assert point["rho"] == pytest.approx(5.0 / (1.0 + PARAMS.C))
        assert (point["load_min"], point["load_max"]) == (1.0, 5.0)

    def test_rolling_band_occupancy_in_snapshot(self):
        sampler = bound_sampler(interval=0.0, window=8)
        for t in range(8):
            # alternate inside (balanced) / far outside the band
            loads = [4, 4] if t % 2 == 0 else [1, 50]
            sampler.sample(float(t), loads=loads)
        occ = sampler.snapshot()["band_occupancy"]
        assert 0.0 < occ < 1.0

    def test_series_skips_points_without_key(self):
        sampler = bound_sampler(interval=0.0)
        sampler.sample(0.0, loads=[1, 2])
        sampler.sample(1.0, loads=[])  # no processors: no rho on this point
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
        sampler = bound_sampler(tracer, interval=0.0)
        sampler.sample(0.0, [1, 2])
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
    """Telemetry attached vs not: bit-identical service runs."""

    @pytest.mark.parametrize("chaos", [True, False], ids=["chaos", "calm"])
    def test_rng_stream_state_untouched(self, chaos):
        """The strongest form: identical generator state after the run,
        with and without fault injection."""
        def go(telemetry):
            run = service_run(
                ServiceConfig.smoke(seed=0), chaos=chaos, telemetry=telemetry
            )
            return run.engine.rng.bit_generator.state

        assert go(TelemetrySampler(interval=0.0)) == go(None)

    def test_traced_runs_identical(self):
        """Golden event streams match with and without a sampler."""
        def go(telemetry):
            tracer = Tracer()
            service_run(
                ServiceConfig.smoke(seed=1), chaos=True,
                tracer=tracer, telemetry=telemetry,
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
