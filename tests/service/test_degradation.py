"""Tests for the degradation ladder state machine."""

import pytest

from repro.params import LBParams
from repro.service import degradation
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.degradation import HOLD, STATES, DegradationLadder
from repro.service.queues import TaskQueues


class FakeEngine:
    """Just enough engine surface for the ladder: params + trigger."""

    def __init__(self, f=1.3):
        self.params = LBParams(f=f, delta=2, C=4)
        self.trigger_f = f

    def set_trigger_factor(self, f):
        self.trigger_f = f


def make(f=1.3):
    queues = TaskQueues(4, cap=4)
    admission = AdmissionController(TokenBucket(10.0, 10.0), queues)
    engine = FakeEngine(f=f)
    ladder = DegradationLadder(admission=admission, engine=engine)
    return ladder, admission, engine


class TestConfig:
    """The ladder's constants stay in their valid ranges."""

    def test_defaults_valid(self):
        assert 0 < degradation.HIGH_WATERMARK <= 1
        assert HOLD >= 1
        for scale in (degradation.BP_SCALE, degradation.SHED_SCALE,
                      degradation.RECOVER_SCALE, degradation.TRIGGER_WIDEN):
            assert 0 < scale <= 1

    def test_threshold_ordering_enforced(self):
        # exit levels below entry levels: the hysteresis that keeps the
        # ladder from flapping on a noisy boundary
        assert (0 <= degradation.EXIT_BP <= degradation.EXIT_SHED
                <= degradation.ENTER_SHED <= 1)
        assert 0 <= degradation.ENTER_BP <= degradation.ENTER_SHED


class TestTransitions:
    def test_starts_healthy(self):
        ladder, _, _ = make()
        assert ladder.state == "healthy"
        assert ladder.transitions == []

    def test_hot_enters_backpressure(self):
        ladder, admission, _ = make()
        ladder.evaluate(1.0, hot=0.2, depth_sheds=0)
        assert ladder.state == "backpressure"
        assert admission.bucket.scale == pytest.approx(0.7)
        assert not admission.brownout

    def test_depth_shed_jumps_straight_to_shedding(self):
        ladder, admission, engine = make(f=1.3)
        ladder.evaluate(1.0, hot=0.0, depth_sheds=2)
        assert ladder.state == "shedding"
        assert admission.brownout
        assert admission.bucket.scale == pytest.approx(0.4)
        # trigger widened: 1 + (1.3-1)*0.5
        assert engine.trigger_f == pytest.approx(1.15)

    def test_very_hot_jumps_straight_to_shedding(self):
        ladder, _, _ = make()
        ladder.evaluate(1.0, hot=0.5, depth_sheds=0)
        assert ladder.state == "shedding"

    def test_full_cycle_restores_knobs(self):
        ladder, admission, engine = make()
        ladder.evaluate(1.0, hot=0.6, depth_sheds=1)      # -> shedding
        ladder.evaluate(2.0, hot=0.1, depth_sheds=0)      # -> recovering
        assert ladder.state == "recovering"
        assert not admission.brownout
        assert admission.bucket.scale == pytest.approx(0.7)
        assert engine.trigger_f == pytest.approx(1.15)    # still widened
        for calm in range(1, HOLD):
            ladder.evaluate(2.0 + calm, hot=0.0, depth_sheds=0)
            assert ladder.state == "recovering"
        ladder.evaluate(2.0 + HOLD, hot=0.0, depth_sheds=0)  # -> healthy
        assert ladder.state == "healthy"
        assert admission.bucket.scale == pytest.approx(1.0)
        assert engine.trigger_f == pytest.approx(1.3)     # restored

    def test_recovering_relapses_when_pressed(self):
        ladder, _, _ = make()
        ladder.evaluate(1.0, hot=0.6, depth_sheds=0)      # -> shedding
        ladder.evaluate(2.0, hot=0.1, depth_sheds=0)      # -> recovering
        ladder.evaluate(3.0, hot=0.0, depth_sheds=3)      # relapse
        assert ladder.state == "shedding"

    def test_noisy_calm_resets_hold_counter(self):
        ladder, _, _ = make()
        ladder.evaluate(1.0, hot=0.6, depth_sheds=0)
        ladder.evaluate(2.0, hot=0.1, depth_sheds=0)      # -> recovering
        t = 2.0
        for _ in range(HOLD - 1):                         # calm 1..HOLD-1
            t += 1.0
            ladder.evaluate(t, hot=0.0, depth_sheds=0)
        ladder.evaluate(t + 1.0, hot=0.1, depth_sheds=0)  # not calm: reset
        t += 1.0
        for _ in range(HOLD - 1):                         # calm again
            t += 1.0
            ladder.evaluate(t, hot=0.0, depth_sheds=0)
        assert ladder.state == "recovering"
        ladder.evaluate(t + 1.0, hot=0.0, depth_sheds=0)  # calm HOLD
        assert ladder.state == "healthy"

    def test_transitions_recorded_with_reasons(self):
        ladder, _, _ = make()
        ladder.evaluate(1.5, hot=0.0, depth_sheds=4)
        (tr,) = ladder.transitions
        assert tr["t"] == 1.5
        assert tr["prev"] == "healthy"
        assert tr["state"] == "shedding"
        assert "4 depth shed" in tr["reason"]
        assert set(tr) == {"t", "prev", "state", "reason"}


class TestTimeInState:
    def test_sums_to_horizon(self):
        ladder, _, _ = make()
        ladder.evaluate(10.0, hot=0.6, depth_sheds=0)
        ladder.evaluate(20.0, hot=0.0, depth_sheds=0)
        tis = ladder.time_in_state(50.0)
        assert set(tis) == set(STATES)
        assert sum(tis.values()) == pytest.approx(50.0)
        assert tis["healthy"] == pytest.approx(10.0)
        assert tis["shedding"] == pytest.approx(10.0)
        assert tis["recovering"] == pytest.approx(30.0)

    def test_no_transitions_all_healthy(self):
        ladder, _, _ = make()
        assert ladder.time_in_state(7.0)["healthy"] == pytest.approx(7.0)


class TestTracing:
    def test_emits_schema_valid_service_state_events(self):
        from repro.observability.schema import validate_trace
        from repro.observability.tracer import Tracer

        tracer = Tracer()
        queues = TaskQueues(4, cap=4)
        admission = AdmissionController(TokenBucket(10.0, 10.0), queues)
        ladder = DegradationLadder(
            admission=admission, engine=FakeEngine(), tracer=tracer
        )
        ladder.evaluate(1.0, hot=0.6, depth_sheds=0)
        ladder.evaluate(2.0, hot=0.0, depth_sheds=0)
        counts = validate_trace(tracer.events)
        assert counts["service_state"] == 2
