"""Tests for the factor-f trigger policy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.triggers import FactorTrigger, TriggerDecision


class TestGuardedMode:
    def test_idle_zero_state_never_triggers(self):
        t = FactorTrigger(1.1)
        assert t.check(0, 0) is TriggerDecision.NONE

    def test_first_packet_triggers_growth(self):
        t = FactorTrigger(1.5)
        assert t.check(1, 0) is TriggerDecision.GROWTH

    def test_growth_threshold(self):
        t = FactorTrigger(1.5)
        assert t.check(15, 10) is TriggerDecision.GROWTH  # 15 >= 15
        assert t.check(14, 10) is TriggerDecision.NONE

    def test_decrease_threshold(self):
        t = FactorTrigger(2.0)
        assert t.check(5, 10) is TriggerDecision.DECREASE  # 5 <= 5
        assert t.check(6, 10) is TriggerDecision.NONE

    def test_decrease_to_zero(self):
        t = FactorTrigger(1.1)
        assert t.check(0, 3) is TriggerDecision.DECREASE

    def test_f_one_any_change_triggers(self):
        t = FactorTrigger(1.0)
        assert t.check(11, 10) is TriggerDecision.GROWTH
        assert t.check(9, 10) is TriggerDecision.DECREASE
        assert t.check(10, 10) is TriggerDecision.NONE

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FactorTrigger(1.1).check(-1, 0)

    def test_f_below_one_rejected(self):
        with pytest.raises(ValueError):
            FactorTrigger(0.99)

    @given(
        f=st.floats(1.0, 4.0),
        own=st.integers(0, 1000),
        old=st.integers(0, 1000),
    )
    def test_never_both_and_requires_change(self, f, own, old):
        decision = FactorTrigger(f).check(own, old)
        if decision is TriggerDecision.GROWTH:
            assert own > old
        elif decision is TriggerDecision.DECREASE:
            assert own < old
        else:
            # no trigger: the load really is inside the (1/f, f) band,
            # or the processor is in the idle zero state
            if old > 0 and own > 0:
                assert old / f < own < f * old or own == old or (
                    own < f * old and own > old / f
                )

    @given(own=st.integers(0, 100), old=st.integers(0, 100))
    def test_truthiness(self, own, old):
        d = FactorTrigger(1.3).check(own, old)
        assert bool(d) == (d is not TriggerDecision.NONE)


class TestStrictMode:
    def test_zero_state_triggers_forever(self):
        """The paper's literal rule degenerates at l_old = 0 — this is
        why the guarded mode exists (DESIGN.md, decision 1)."""
        t = FactorTrigger(1.5, strict=True)
        assert t.check(0, 0) is TriggerDecision.GROWTH

    def test_equal_loads_trigger_at_f1(self):
        t = FactorTrigger(1.0, strict=True)
        assert t.check(10, 10) is TriggerDecision.GROWTH


class TestQuietInterval:
    """The integer band (lo, hi) must agree with check().

    ``quiet_interval`` is the classifier's (and the deep-quiet
    horizon's) single source of truth: a processor is quiet iff
    ``lo < own < hi`` with integer ``own``.  Exactness matters — one
    off-by-one and the columnar engine fires (or skips) a balancing
    operation the scalar sweep does not.
    """

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("f", [1.0, 1.1, 1.3, 1.5, 2.0, 2.5])
    def test_band_matches_check_brute_force(self, f, strict):
        import numpy as np

        t = FactorTrigger(f, strict=strict)
        olds = np.arange(0, 60)
        lo, hi = t.quiet_interval(olds)
        for old, lo_i, hi_i in zip(olds.tolist(), lo.tolist(), hi.tolist()):
            for own in range(0, 130):
                in_band = lo_i < own < hi_i
                fired = t.check(own, old) is not TriggerDecision.NONE
                assert in_band == (not fired), (
                    f"f={f} strict={strict} old={old} own={own}: "
                    f"band says quiet={in_band}, check fired={fired}"
                )

    def test_negative_own_probe_domain(self):
        """The classifier probes ``own - 1``, which reaches -1 at own=0.

        ``check`` rejects negatives, so the band fixes the contract
        there: for ``old >= 1`` a negative own always fires (lo >= 0),
        while the guarded ``old == 0`` band keeps ``own = -1`` quiet —
        a starved processor in the idle zero state must not be pushed
        through a DECREASE it cannot trigger in the scalar sweep.
        """
        import numpy as np

        for f in (1.0, 1.3, 2.5):
            lo, hi = FactorTrigger(f).quiet_interval(np.arange(0, 20))
            assert lo[0] < -1 < hi[0]  # old == 0: own-1 probe stays quiet
            assert (lo[1:] >= 0).all()  # old >= 1: negatives fire

    @given(
        f=st.floats(1.0, 4.0),
        old=st.integers(0, 2000),
        own=st.integers(0, 4000),
    )
    def test_band_matches_check_property(self, f, old, own):
        import numpy as np

        t = FactorTrigger(f)
        lo, hi = t.quiet_interval(np.asarray([old]))
        fired = t.check(own, old) is not TriggerDecision.NONE
        assert (int(lo[0]) < own < int(hi[0])) == (not fired)
