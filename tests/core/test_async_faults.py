"""Fault injection and bounded retry in the asynchronous engine.

The headline test is the golden-trace replay: a run is a pure function
of ``(engine seed, FaultPlan)``, bit for bit — same event stream, same
snapshots, same counters.  The rest pins the semantics of each fault
channel (crash freeze, message-loss reclaim, stragglers) and of the
bounded-retry policy that replaced the drop-on-refusal behaviour.
"""

import numpy as np
import pytest

from repro.core.async_engine import AsyncEngine, ConstantRates, RetryPolicy
from repro.faults.plan import CrashWindow, FaultPlan, Partition, StragglerWindow
from repro.observability import (
    Tracer,
    reconcile_async_trace,
    validate_trace,
)
from repro.params import LBParams


def make(n=16, f=1.2, delta=2, latency=0.1, seed=0, g=0.7, c=0.3, **kw):
    rates = ConstantRates(np.full(n, g), np.full(n, c))
    return AsyncEngine(
        LBParams(f=f, delta=delta, C=4), rates, latency=latency, seed=seed, **kw
    )


def stress_plan(seed=3):
    return FaultPlan(
        crashes=(
            CrashWindow(proc=2, start=5.0, end=20.0),
            CrashWindow(proc=7, start=10.0, end=25.0),
        ),
        stragglers=(StragglerWindow(proc=0, start=0.0, end=40.0, factor=8.0),),
        partitions=(Partition(start=15.0, end=18.0, groups=((0, 1, 2, 3),)),),
        message_loss=0.05,
        seed=seed,
    )


class TestGoldenTraceReplay:
    def test_bit_for_bit_replay(self):
        """Same (seed, plan) => identical trace, snapshots and counters."""
        runs = []
        for _ in range(2):
            tracer = Tracer(capacity=1_000_000)
            res = make(seed=11, faults=stress_plan()).run(40.0)
            # (engine rebuilt from scratch each iteration)
            runs.append((res, tracer.events))
        (res_a, _), (res_b, _) = runs
        assert np.array_equal(res_a.loads, res_b.loads)
        assert np.array_equal(res_a.times, res_b.times)
        assert res_a.total_ops == res_b.total_ops
        assert res_a.fault_stats == res_b.fault_stats

    def test_traced_replay_identical_events(self):
        traces = []
        for _ in range(2):
            tracer = Tracer(capacity=1_000_000)
            make(seed=11, faults=stress_plan(), tracer=tracer).run(40.0)
            traces.append(list(tracer.events))
        assert traces[0] == traces[1]
        assert any(ev["type"].startswith("fault_") for ev in traces[0])

    def test_plan_seed_only_changes_fault_decisions(self):
        a = make(seed=11, faults=stress_plan(seed=1)).run(40.0)
        b = make(seed=11, faults=stress_plan(seed=2)).run(40.0)
        # different fault stream -> different loss pattern (with high
        # probability for p=0.05 over hundreds of messages)
        assert (
            a.fault_stats["lost_messages"] != b.fault_stats["lost_messages"]
            or not np.array_equal(a.loads, b.loads)
        )

    def test_empty_plan_identical_to_no_faults(self):
        res_none = make(seed=5).run(30.0)
        res_empty = make(seed=5, faults=FaultPlan()).run(30.0)
        assert np.array_equal(res_none.loads, res_empty.loads)
        assert res_none.total_ops == res_empty.total_ops
        assert res_empty.fault_stats is None  # empty plan == perfect network

    def test_trace_validates_and_reconciles(self):
        tracer = Tracer(capacity=1_000_000)
        res = make(seed=11, faults=stress_plan(), tracer=tracer).run(40.0)
        counts = validate_trace(tracer.events)
        assert counts["fault_crash"] == 2
        assert counts["fault_recover"] == 2
        assert reconcile_async_trace(tracer.events, res) == []


class TestAbandonReconciliation:
    """The async_accept / async_abandon facts are recounted, so a lost
    event is reported, not silently absorbed."""

    @pytest.fixture(scope="class")
    def run(self):
        from repro.experiments.resilience import ResilienceConfig

        cfg = ResilienceConfig(
            n=16, latency=3.0, crash_frac=0.5, message_loss=0.3, horizon=60.0
        )
        tracer = Tracer()
        res = cfg.engine(cfg.plan(), tracer=tracer).run(cfg.horizon)
        return tracer.events, res

    def test_every_abandon_reason_occurs_and_reconciles(self, run):
        events, res = run
        reasons = {e["reason"] for e in events if e["type"] == "async_abandon"}
        assert reasons == {"quiesced", "crashed", "stranded"}
        assert res.fault_stats["aborted_ops"] > 0
        assert reconcile_async_trace(events, res) == []

    def test_dropped_stranded_abandon_is_reported(self, run):
        events, res = run
        k = next(
            k for k, e in enumerate(events)
            if e["type"] == "async_abandon" and e["reason"] == "stranded"
        )
        problems = reconcile_async_trace(events[:k] + events[k + 1:], res)
        assert any("stranded async_abandon" in p for p in problems)

    def test_dropped_crashed_abandon_is_reported(self, run):
        events, res = run
        k = next(
            k for k, e in enumerate(events)
            if e["type"] == "async_abandon" and e["reason"] == "crashed"
        )
        problems = reconcile_async_trace(events[:k] + events[k + 1:], res)
        assert any("crashed async_abandon" in p for p in problems)

    def test_first_retry_after_a_crashed_abandon_is_attempt_one(self, run):
        # the crash ends the episode: the next refusal has a fresh budget
        events, res = run
        seen = 0
        for k, e in enumerate(events):
            if e["type"] == "async_abandon" and e["reason"] == "crashed":
                nxt = next(
                    x for x in events[k + 1:]
                    if x["type"] == "async_retry" and x["initiator"] == e["initiator"]
                )
                assert nxt["attempt"] == 1
                seen += 1
        assert seen == res.fault_stats["abandoned_retries"] > 0

    def test_dropped_accept_is_reported(self, run):
        events, res = run
        k = next(k for k, e in enumerate(events) if e["type"] == "async_accept")
        problems = reconcile_async_trace(events[:k] + events[k + 1:], res)
        assert any("async_accept" in p for p in problems)


class TestCrashSemantics:
    def test_crashed_load_frozen(self):
        """A crashed processor's load is dark: frozen until recovery."""
        plan = FaultPlan(crashes=(CrashWindow(proc=3, start=10.0, end=30.0),))
        eng = make(seed=2, faults=plan)
        res = eng.run(40.0)
        times = res.times
        inside = (times > 10.5) & (times < 30.0)
        frozen = res.loads[inside, 3]
        assert len(frozen) > 10
        assert (frozen == frozen[0]).all()
        assert res.fault_stats["crashes"] == 1
        assert res.fault_stats["crashed_skips"] > 0

    def test_dead_to_horizon_excluded_from_balancing(self):
        """With a crash outlasting the horizon the survivors still work."""
        plan = FaultPlan(crashes=(CrashWindow(proc=0, start=0.0, end=1e6),))
        res = make(n=8, seed=4, faults=plan).run(30.0)
        assert res.loads[-1, 0] == 0          # never generated anything
        assert res.total_ops > 0              # the other 7 kept balancing

    def test_partition_declines_counted(self):
        plan = FaultPlan(
            partitions=(
                Partition(start=0.0, end=30.0, groups=((0, 1, 2, 3),)),
            ),
        )
        res = make(n=8, seed=1, faults=plan).run(30.0)
        assert res.fault_stats["partition_declines"] > 0


class TestMessageLossAndReclaim:
    def test_losses_are_reclaimed(self):
        plan = FaultPlan(message_loss=0.2, seed=6)
        tracer = Tracer(capacity=1_000_000)
        eng = make(seed=9, faults=plan, tracer=tracer)
        res = eng.run(60.0)
        fs = res.fault_stats
        assert fs["lost_messages"] > 0
        assert fs["reclaimed_ops"] > 0
        # every lost op is either reclaimed or still awaiting its
        # timeout at the horizon (lost too close to the end)
        assert fs["lost_messages"] - fs["reclaimed_ops"] == len(eng._inflight)
        waited = [
            ev["waited"] for ev in tracer.events if ev["type"] == "fault_reclaim"
        ]
        assert waited and all(w >= 0 for w in waited)

    def test_straggler_ops_counted(self):
        plan = FaultPlan(
            stragglers=(
                StragglerWindow(proc=0, start=0.0, end=50.0, factor=10.0),
            ),
        )
        res = make(seed=3, faults=plan).run(50.0)
        assert res.fault_stats["straggled_ops"] > 0


class TestRetryPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_delay_exponential_with_jitter_bounds(self):
        pol = RetryPolicy(max_retries=3, backoff=0.5, jitter=0.5)
        rng = np.random.default_rng(0)
        for attempt in (1, 2, 3):
            base = 0.5 * 2 ** (attempt - 1)
            delays = [pol.delay(attempt, rng) for _ in range(200)]
            assert all(base <= d <= base * 1.5 for d in delays)

    def test_retries_recover_contended_operations(self):
        """High latency + retries: some retried initiations succeed."""
        tracer = Tracer(capacity=1_000_000)
        res = make(
            n=8, delta=4, latency=2.0, seed=0,
            retry=RetryPolicy(max_retries=3, backoff=0.2),
            tracer=tracer,
        ).run(80.0)
        assert res.retries > 0
        assert res.retries == sum(
            1 for ev in tracer.events if ev["type"] == "async_retry"
        )
        # bounded: give-ups may happen but every drop is accounted for
        assert res.give_ups <= res.dropped_ops
        assert reconcile_async_trace(tracer.events, res) == []

    def test_zero_retries_reproduces_drop_semantics(self):
        res = make(
            n=8, delta=4, latency=2.0, seed=0,
            retry=RetryPolicy(max_retries=0),
        ).run(80.0)
        assert res.retries == 0
        assert res.give_ups == res.dropped_ops  # every drop is final
