"""End-to-end tests of the live service mode (``repro serve``).

The smoke-scenario assertions here are the acceptance contract of the
service mode: a seeded crash-burst run must produce a schema-valid
document whose degradation timeline enters ``shedding`` during the
burst and returns to ``healthy`` after it, deterministically.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.async_engine import ConstantRates
from repro.observability.monitors import MonitorSuite
from repro.observability.schema import validate_trace
from repro.observability.tracer import Tracer
from repro.params import LBParams
from repro.service import (
    SERVICE_SHAPE,
    ServiceConfig,
    ServiceEngine,
    service_run,
)
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.queues import TaskQueues
from repro.simulation.serialize import check_document


#: sha256 of the seed-0 smoke chaos run: its document (sorted-key
#: JSON), final loads and final engine RNG state.  The serve loop's
#: speed-ups (routing on the load vector, the tuple heap, int-level
#: balance completion, compiled partner draws) must leave it unchanged;
#: perfbench's serve digest covers no chaos path.
GOLDEN_CHAOS_SHA256 = "30ae36845c7a6854f8d73d6a554eee0236b1b4c7b1cafdc1063b66e191525edf"


@pytest.fixture(scope="module")
def smoke_run():
    """One smoke chaos run, shared by the read-only assertions."""
    return service_run(ServiceConfig.smoke(seed=0), chaos=True)


class TestSmokeScenario:
    def test_document_is_schema_valid(self, smoke_run):
        assert check_document(smoke_run.doc, SERVICE_SHAPE) == []

    def test_timeline_enters_shedding_during_burst(self, smoke_run):
        cfg = ServiceConfig.smoke(seed=0)
        lo, hi = cfg.burst_at, cfg.burst_at + cfg.burst_duration
        assert any(
            tr["state"] == "shedding" and lo <= tr["t"] < hi
            for tr in smoke_run.timeline
        ), smoke_run.timeline

    def test_returns_to_healthy_after_burst(self, smoke_run):
        cfg = ServiceConfig.smoke(seed=0)
        assert smoke_run.doc["final_state"] == "healthy"
        back = [
            tr["t"] for tr in smoke_run.timeline if tr["state"] == "healthy"
        ]
        assert back and back[-1] > cfg.burst_at + cfg.burst_duration

    def test_slo_counters_are_consistent(self, smoke_run):
        slo = smoke_run.doc["slo"]
        assert slo["offered"] == slo["admitted"] + slo["shed"]
        assert slo["shed"] == sum(slo["shed_by_reason"].values())
        assert 0 < slo["completed"] <= slo["admitted"]
        assert 0.0 <= slo["time_in_band"] <= 1.0
        assert slo["sojourn_p99"] >= slo["sojourn_p50"] > 0

    def test_brownout_actually_shed_noncritical_work(self, smoke_run):
        # the burst drives the ladder into shedding, whose brown-out
        # must have refused at least some non-critical arrivals
        assert smoke_run.doc["slo"]["shed_by_reason"]["brownout"] > 0

    def test_chaos_stats_recorded(self, smoke_run):
        stats = smoke_run.doc["counters"]["fault_stats"]
        assert stats is not None and stats["crashes"] > 0

    def test_queues_mirror_loads_after_run(self, smoke_run):
        engine = smoke_run.engine
        assert (engine.queues.depths() == engine.l).all()
        assert engine.queues.total() == int(engine.l.sum())

    def test_golden_chaos_digest(self, smoke_run):
        blob = json.dumps(
            {
                "doc": smoke_run.doc,
                "loads": [int(v) for v in smoke_run.engine.l],
                "rng": smoke_run.engine.rng.bit_generator.state,
            },
            sort_keys=True,
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_CHAOS_SHA256


class TestDepthEqualsLoad:
    """Arrivals route on the load vector because it equals the live
    queue depths at every event boundary, chaos included."""

    @pytest.mark.parametrize("seed", [0, 1009])
    def test_depths_equal_loads_after_every_queue_event(self, monkeypatch, seed):
        checked = dict.fromkeys(("_handle_arrival", "_on_consume", "_post_balance"), 0)

        def checking(name):
            original = getattr(ServiceEngine, name)

            def wrapper(self, *args):
                original(self, *args)
                assert np.array_equal(self.queues.depths(), self.l), (name, self.time)
                checked[name] += 1

            return wrapper

        for name in checked:
            monkeypatch.setattr(ServiceEngine, name, checking(name))
        run = service_run(ServiceConfig.smoke(seed=seed), chaos=True)
        assert run.doc["counters"]["fault_stats"]["lost_messages"] > 0
        assert all(checked.values()), checked

    def test_serve_episode_never_reads_queue_depths(self, monkeypatch, smoke_run):
        def forbidden(self):
            raise AssertionError("the serve loop read TaskQueues.depths()")

        monkeypatch.setattr(TaskQueues, "depths", forbidden)
        run = service_run(ServiceConfig.smoke(seed=0), chaos=True)
        assert run.doc == smoke_run.doc


class TestDeterminism:
    def test_golden_monitors_on_off(self):
        """Identical admission/shed/SLO counters with monitors on & off."""
        cfg = ServiceConfig.smoke(seed=0)
        off = service_run(cfg, chaos=True)
        on = service_run(
            cfg, chaos=True, monitors=MonitorSuite.standard(cfg.params())
        )
        assert on.doc["slo"] == off.doc["slo"]
        assert on.doc["timeline"] == off.doc["timeline"]
        assert on.doc["series"] == off.doc["series"]
        assert on.doc["counters"] == off.doc["counters"]
        assert np.array_equal(on.result.loads, off.result.loads)

    def test_same_seed_same_document(self):
        cfg = ServiceConfig.smoke(seed=3)
        a = service_run(cfg, chaos=True)
        b = service_run(cfg, chaos=True)
        assert a.doc == b.doc

    def test_different_seed_differs(self):
        a = service_run(ServiceConfig.smoke(seed=0), chaos=True)
        b = service_run(ServiceConfig.smoke(seed=1), chaos=True)
        assert a.doc["slo"] != b.doc["slo"]

    def test_replay_reproduces_the_run(self, smoke_run):
        cfg = ServiceConfig.smoke(seed=0)
        rep = service_run(cfg, chaos=True, replay=smoke_run.trace)
        assert rep.doc["slo"] == smoke_run.doc["slo"]
        assert rep.doc["timeline"] == smoke_run.doc["timeline"]

    def test_replay_wrong_n_rejected(self, smoke_run):
        cfg = replace(ServiceConfig.smoke(seed=0), n=8)
        with pytest.raises(ValueError, match="n="):
            service_run(cfg, chaos=True, replay=smoke_run.trace)

    def test_tracing_does_not_perturb_the_run(self, smoke_run):
        cfg = ServiceConfig.smoke(seed=0)
        tracer = Tracer()
        traced = service_run(cfg, chaos=True, tracer=tracer)
        assert traced.doc["slo"] == smoke_run.doc["slo"]
        counts = validate_trace(tracer.events)
        assert counts["service_state"] == len(smoke_run.timeline)
        assert counts["service_shed"] > 0
        assert counts["arrival"] if "arrival" in counts else True


class TestQuietService:
    def test_underloaded_run_stays_healthy(self):
        cfg = replace(
            ServiceConfig(seed=0), rate=1.0, horizon=30.0
        )
        run = service_run(cfg)
        assert run.doc["timeline"] == []
        assert run.doc["final_state"] == "healthy"
        assert run.doc["chaos"] is None
        assert run.doc["slo"]["shed"] == 0 or (
            run.doc["slo"]["shed_by_reason"]["bucket"]
            == run.doc["slo"]["shed"]
        )

    def test_traffic_profiles_all_run(self):
        for profile in ("poisson", "bursty", "diurnal"):
            cfg = replace(
                ServiceConfig(seed=0), traffic=profile, horizon=20.0, rate=2.0
            )
            assert check_document(service_run(cfg).doc, SERVICE_SHAPE) == []


class TestServiceEngineGuards:
    def test_rejects_generating_rates(self):
        n = 4
        rates = ConstantRates(np.full(n, 0.3), np.full(n, 0.3))
        queues = TaskQueues(n, cap=4)
        admission = AdmissionController(TokenBucket(5.0, 5.0), queues)
        with pytest.raises(ValueError, match="consume-only"):
            ServiceEngine(
                LBParams(f=1.3, delta=2, C=4), rates,
                queues=queues, admission=admission,
            )


class TestValidator:
    def test_flags_missing_and_wrong_fields(self, smoke_run):
        import copy

        doc = copy.deepcopy(smoke_run.doc)
        doc["slo"].pop("time_in_band")
        doc["final_state"] = "on-fire"
        doc["series"]["rho"] = doc["series"]["rho"][:-1]
        problems = check_document(doc, SERVICE_SHAPE)
        assert any("time_in_band" in p for p in problems)
        assert any("on-fire" in p for p in problems)
        assert any("unequal series" in p for p in problems)

    def test_flags_wrong_schema(self):
        assert any(
            "schema" in p for p in check_document({"schema": "nope"}, SERVICE_SHAPE)
        )
