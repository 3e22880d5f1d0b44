"""Tests for the streaming conformance monitors.

The tier-2 acceptance story: a clean traced run reports ZERO breaches
across the whole stock suite, while the crash-burst resilience scenario
reports a Theorem-4-band breach at the crash burst and a recovery event
when the ratio re-enters the band — and the fault-free baseline arm of
the same scenario stays clean.
"""

import numpy as np
import pytest

from repro import LBParams
from repro.observability import MonitorSuite, Tracer, validate_trace
from repro.observability.monitors import (
    ConservationMonitor,
    FixpointMonitor,
    OpBudgetMonitor,
    Theorem4BandMonitor,
    VariationMonitor,
)

PARAMS = LBParams(f=1.3, delta=2, C=4)


def feed(monitor, rows, engine=None, t0=0.0, dt=1.0):
    suite = MonitorSuite([monitor])
    for k, row in enumerate(rows):
        suite.observe(t0 + k * dt, np.asarray(row, dtype=np.int64), engine)
    return suite


class TestTheorem4BandMonitor:
    # band for f=1.3, delta=2: 1.3^2 * 2/(3-1.3) = 1.988...
    IN = [10, 10, 10, 10]        # rho = 10/14 — inside
    OUT = [40, 1, 1, 1]          # rho = 40/5 = 8 — far outside

    def test_inside_band_never_breaches(self):
        m = Theorem4BandMonitor(PARAMS)
        suite = feed(m, [self.IN] * 50)
        assert suite.ok() and m.breach_count == 0

    def test_short_excursion_absorbed_by_grace(self):
        m = Theorem4BandMonitor(PARAMS, grace=4)
        suite = feed(m, [self.IN] * 5 + [self.OUT] * 3 + [self.IN] * 5)
        assert suite.ok()

    def test_streak_breaches_at_streak_start(self):
        m = Theorem4BandMonitor(PARAMS, grace=4)
        suite = feed(m, [self.IN] * 5 + [self.OUT] * 6 + [self.IN] * 3)
        assert len(suite.breaches) == 1
        b = suite.breaches[0]
        # the streak started at t=5 even though the breach was declared
        # only at the 4th consecutive out-of-band snapshot
        assert b.t == 5.0
        assert b.monitor == "theorem4_band"
        assert b.severity == "warn"
        assert b.procs == (0, 1)          # argmax, argmin
        assert b.value > b.bound
        assert len(suite.recoveries) == 1
        r = suite.recoveries[0]
        assert r.t == 11.0 and r.ticks_out == 6

    def test_open_breach_reported_in_verdict(self):
        m = Theorem4BandMonitor(PARAMS, grace=2)
        feed(m, [self.OUT] * 5)
        v = m.verdict()
        assert not v["ok"] and v["open"] is True

    def test_grace_validation(self):
        with pytest.raises(ValueError):
            Theorem4BandMonitor(PARAMS, grace=0)


class TestFixpointMonitor:
    def test_balanced_network_stays_under_fixpoint(self):
        m = FixpointMonitor(PARAMS, warmup=5)
        suite = feed(m, [[8, 9, 10, 9]] * 30)
        assert suite.ok()
        assert 0 < m.estimate < m._bound

    def test_persistent_imbalance_breaches_running_mean(self):
        m = FixpointMonitor(PARAMS, warmup=5)
        suite = feed(m, [[100, 1, 1, 1]] * 30)
        assert not suite.ok()
        assert suite.breaches[0].monitor == "fixpoint"

    def test_idle_snapshots_skipped(self):
        m = FixpointMonitor(PARAMS, warmup=5, min_mean=1.0)
        feed(m, [[0, 0, 0, 0]] * 20)
        assert m._busy == 0 and m.breach_count == 0


class TestVariationMonitor:
    def test_uniform_loads_have_zero_variation(self):
        m = VariationMonitor(warmup=3)
        suite = feed(m, [[5, 5, 5, 5]] * 10)
        assert suite.ok() and m.worst == 0.0

    def test_extreme_spread_breaches_limit(self):
        m = VariationMonitor(limit=0.5, warmup=3)
        suite = feed(m, [[100, 0, 0, 0]] * 10)
        assert not suite.ok()


def make_engine(n=8, steps=60, seed=3):
    from repro.core.engine import Engine, EngineConfig
    from repro.rng import RngFactory
    from repro.simulation.driver import Simulation
    from repro.workload import UniformRandom

    fac = RngFactory(seed)
    eng = Engine(EngineConfig(n=n, params=PARAMS), rng=fac.named("engine"))
    sim = Simulation(
        eng, UniformRandom(n, 0.55, 0.45), workload_rng=fac.named("workload")
    )
    sim.run(steps)
    return eng


class TestConservationMonitor:
    def test_healthy_engine_obeys_all_laws(self):
        eng = make_engine()
        m = ConservationMonitor()
        suite = feed(m, [eng.l.copy()] * 3, engine=eng)
        assert suite.ok() and m.checked == 3

    def test_skips_engines_without_ledgers(self):
        m = ConservationMonitor()
        feed(m, [[1, 2, 3]] * 3, engine=object())
        assert m.checked == 0 and m.breach_count == 0

    def test_corrupted_load_trips_once(self):
        eng = make_engine()
        eng.l[0] += 1  # break l == d row sums AND the net-load law
        m = ConservationMonitor()
        suite = feed(m, [eng.l.copy()] * 5, engine=eng)
        assert not suite.ok()
        assert "rowsum" in m._tripped and "netload" in m._tripped
        # each broken law reports exactly once, not once per tick
        assert m.breach_count == len(m._tripped)
        assert all(b.severity == "critical" for b in suite.breaches)

    def test_over_capacity_entry_trips_capacity_law(self):
        eng = make_engine()
        eng.b.add(0, 1, PARAMS.C + 2)  # forge an impossible debt entry
        m = ConservationMonitor()
        feed(m, [eng.l.copy()], engine=eng)
        assert "capacity" in m._tripped

    def test_debt_entry_of_two_trips_capacity_law_whatever_C(self):
        eng = make_engine()
        assert PARAMS.C > 2
        eng.b.add(0, 1, 2)  # two debts of one class: never legitimate
        eng.counters.total_borrow += 2  # the debt ledger still closes
        m = ConservationMonitor()
        suite = feed(m, [eng.l.copy()], engine=eng)
        assert "capacity" in m._tripped
        assert [(b.value, b.bound) for b in suite.breaches] == [(2.0, 1.0)]


class TestOpBudgetMonitor:
    def test_real_engine_within_budget(self):
        eng = make_engine()
        m = OpBudgetMonitor()
        suite = feed(m, [eng.l.copy()] * 3, engine=eng)
        assert suite.ok()
        assert m.last_ops <= m.last_budget

    def test_forged_ops_breach_once(self):
        eng = make_engine()
        eng.total_ops = eng.total_generated + eng.total_consumed + 10_000
        m = OpBudgetMonitor()
        suite = feed(m, [eng.l.copy()] * 5, engine=eng)
        assert len(suite.breaches) == 1
        assert suite.breaches[0].severity == "critical"


class TestMonitorSuite:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MonitorSuite([VariationMonitor(), VariationMonitor()])

    def test_breach_and_recover_events_validate(self):
        tracer = Tracer()
        m = Theorem4BandMonitor(PARAMS, grace=2)
        suite = MonitorSuite([m], tracer=tracer)
        for k, row in enumerate(
            [TestTheorem4BandMonitor.OUT] * 4 + [TestTheorem4BandMonitor.IN]
        ):
            suite.observe(float(k), np.asarray(row, dtype=np.int64))
        counts = validate_trace(tracer.events)
        assert counts["monitor_breach"] == 1
        assert counts["monitor_recover"] == 1

    def test_standard_suite_has_all_five(self):
        suite = MonitorSuite.standard(PARAMS)
        assert [m.name for m in suite.monitors] == [
            "theorem4_band", "fixpoint", "variation", "conservation",
            "op_budget",
        ]

    def test_render_smoke(self):
        suite = MonitorSuite.standard(PARAMS)
        suite.observe(0.0, np.array([3, 3, 3, 3], dtype=np.int64))
        out = suite.render()
        assert "theorem4_band" in out and "OK" in out


class TestGraceWindows:
    """Churn-aware suppression (repro.dynnet opens these windows)."""

    OUT = np.array([40, 1, 1, 1], dtype=np.int64)

    def test_warn_monitors_suppressed_inside_window(self):
        m = Theorem4BandMonitor(PARAMS, grace=1)
        suite = MonitorSuite([m])
        suite.grace(0.0, 10.0)
        for k in range(8):
            suite.observe(float(k), self.OUT)
        assert suite.ok()
        assert m.breach_count == 0
        assert suite.suppressed_snapshots == 8

    def test_observation_resumes_after_window(self):
        m = Theorem4BandMonitor(PARAMS, grace=1)
        suite = MonitorSuite([m])
        suite.grace(0.0, 3.0)
        for k in range(8):
            suite.observe(float(k), self.OUT)
        # t=0,1,2 suppressed; t=3.. breach immediately (grace=1)
        assert suite.suppressed_snapshots == 3
        assert not suite.ok()
        assert suite.breaches[0].t == 3.0

    def test_critical_monitors_still_observe(self):
        eng = make_engine()
        eng.l[0] += 1  # break the conservation laws
        m = ConservationMonitor()
        suite = MonitorSuite([m])
        suite.grace(0.0, 100.0)
        suite.observe(1.0, eng.l.copy(), eng)
        assert not suite.ok()
        assert suite.breaches[0].severity == "critical"

    def test_windows_extend_never_shrink(self):
        suite = MonitorSuite.standard(PARAMS)
        suite.grace(0.0, 10.0)
        suite.grace(2.0, 1.0)  # would end at 3.0 — ignored
        assert suite.in_grace(9.9)
        suite.grace(5.0, 10.0)  # extends to 15.0
        assert suite.in_grace(14.9)
        assert not suite.in_grace(15.0)

    def test_rejects_negative_duration(self):
        suite = MonitorSuite.standard(PARAMS)
        with pytest.raises(ValueError):
            suite.grace(0.0, -1.0)


@pytest.mark.tier2
class TestAcceptance:
    """The issue's acceptance criterion, both arms."""

    def test_clean_sync_run_zero_breaches(self):
        from repro.simulation.driver import run_simulation
        from repro.workload import Section7Workload

        tracer = Tracer()
        suite = MonitorSuite.standard(PARAMS, tracer=tracer)
        n, steps, seed = 16, 200, 0
        run_simulation(
            n, PARAMS, Section7Workload(n, steps, layout_rng=seed), steps,
            seed=seed, tracer=tracer, monitors=suite,
        )
        assert suite.ok(), [b.as_dict() for b in suite.breaches]
        assert all(v["ok"] for v in suite.verdicts())
        counts = validate_trace(tracer.events)
        assert counts["monitor_breach"] == 0

    @pytest.fixture(scope="class")
    def crash_burst(self):
        """Faulted + baseline arms of the resilience scenario."""
        from repro.experiments.resilience import ResilienceConfig

        cfg = ResilienceConfig()  # n=32, burst [30, 45], seed 0
        arms = {}
        for arm, plan in (("faulted", cfg.plan()), ("baseline", None)):
            tracer = Tracer()
            suite = MonitorSuite.standard(cfg.params(), tracer=tracer)
            engine = cfg.engine(plan, tracer=tracer, monitors=suite)
            res = engine.run(cfg.horizon)
            arms[arm] = (cfg, suite, tracer, res)
        return arms

    def test_crash_burst_breaches_theorem4_band_inside_burst(self, crash_burst):
        cfg, suite, tracer, _ = crash_burst["faulted"]
        band_breaches = [
            b for b in suite.breaches if b.monitor == "theorem4_band"
        ]
        assert len(band_breaches) == 1
        b = band_breaches[0]
        burst_end = cfg.burst_at + cfg.burst_duration
        assert cfg.burst_at <= b.t <= burst_end, (
            f"breach at t={b.t} outside the burst [{cfg.burst_at}, {burst_end}]"
        )
        assert b.value > b.bound
        validate_trace(tracer.events)

    def test_crash_burst_recovers_after_burst(self, crash_burst):
        cfg, suite, _, _ = crash_burst["faulted"]
        recs = [r for r in suite.recoveries if r.monitor == "theorem4_band"]
        assert len(recs) == 1
        r = recs[0]
        assert r.t >= cfg.burst_at + cfg.burst_duration
        assert r.ticks_out > 0
        assert r.value <= r.bound

    def test_baseline_arm_stays_clean(self, crash_burst):
        _, suite, _, _ = crash_burst["baseline"]
        band = [b for b in suite.breaches if b.monitor == "theorem4_band"]
        assert band == []

    def test_monitors_and_spans_do_not_perturb_the_run(self):
        """Observers consume no RNG: loads and non-observer events are
        bit-identical with and without the whole observability stack,
        so the spans derived from either trace are the same."""
        from repro.observability import spans_from_trace
        from repro.simulation.driver import run_simulation
        from repro.workload import Section7Workload

        def run(observed: bool):
            tracer = Tracer()
            kwargs = {}
            if observed:
                kwargs["monitors"] = MonitorSuite.standard(
                    PARAMS, tracer=tracer
                )
            res = run_simulation(
                16, PARAMS, Section7Workload(16, 120, layout_rng=5), 120,
                seed=5, tracer=tracer, **kwargs,
            )
            return res, tracer

        plain_res, plain_tr = run(observed=False)
        obs_res, obs_tr = run(observed=True)
        assert np.array_equal(plain_res.loads, obs_res.loads)
        assert plain_res.total_ops == obs_res.total_ops

        def strip(events, drop_types=()):
            return [
                {k: v for k, v in ev.items() if k != "seq"}
                for ev in events
                if ev["type"] not in drop_types
            ]

        observer_types = ("monitor_breach", "monitor_recover")
        assert strip(plain_tr.events) == strip(obs_tr.events, observer_types)
        assert spans_from_trace(plain_tr.events) == spans_from_trace(
            obs_tr.events
        )
