"""Tests for the Theorem-4 band statistic and its episode summaries."""

import numpy as np
import pytest

from repro.metrics.band import (
    RecoveryReport,
    band_occupancy,
    extreme_ratio,
    first_in_band,
    max_mean_ratio,
    recovery_report,
)
from repro.params import LBParams
from repro.theory.bounds import theorem4_bound
from repro.theory.fixpoint import fix_limit


class TestStatistics:
    def test_band_formula(self):
        p = LBParams(f=1.3, delta=2, C=4)
        assert theorem4_bound(None, p.delta, p.f) == pytest.approx(
            1.3 * 1.3 * fix_limit(2, 1.3)
        )

    def test_extreme_ratio(self):
        loads = np.array([[4, 2, 0], [6, 6, 6]])
        rho = extreme_ratio(loads, C=4)
        assert rho[0] == pytest.approx(4 / 4)
        assert rho[1] == pytest.approx(6 / 10)

    def test_extreme_ratio_validation(self):
        with pytest.raises(ValueError):
            extreme_ratio(np.float64(3.0), C=4)
        with pytest.raises(ValueError):
            extreme_ratio(np.zeros((2, 0)), C=4)
        with pytest.raises(ValueError):
            extreme_ratio(np.zeros((2, 3)), C=0)
        with pytest.raises(ValueError):
            extreme_ratio(np.zeros((2, 3)), C=4, capacities=np.ones(2))

    def test_snapshot_and_history_forms_agree_bit_for_bit(self):
        rng = np.random.default_rng(7)
        history = rng.integers(0, 10**6, size=(200, 33))
        rho = extreme_ratio(history, 4)
        for row, r in zip(history, rho):
            assert float(extreme_ratio(row, 4)) == r
            assert float(max(row)) / (float(min(row)) + 4) == r

    def test_capacities_normalise_the_loads(self):
        loads = np.array([[8, 2], [4, 4]])
        caps = np.array([2.0, 0.5])
        # normalised rows: [4, 4] and [2, 8]
        assert extreme_ratio(loads, 4, caps).tolist() == [4 / 8, 8 / 6]
        # unit capacities are the plain statistic
        assert np.array_equal(
            extreme_ratio(loads, 4, np.ones(2)), extreme_ratio(loads, 4)
        )

    def test_band_occupancy(self):
        times = [0.0, 1.0, 2.0, 3.0]
        rho = [5.0, 1.0, 5.0, 1.0]
        assert band_occupancy(times, rho, 2.0, since=0.0) == 0.5
        assert band_occupancy(times, rho, 2.0, since=2.5) == 1.0
        # a trailing window always keeps the latest snapshot
        assert band_occupancy(times, rho, 2.0, since=times[-1] - 0.0) == 1.0
        # nothing at or after `since`: undefined, not NaN
        assert band_occupancy(times, rho, 2.0, since=3.5) is None
        with pytest.raises(ValueError):
            band_occupancy(times, rho[:-1], 2.0, since=0.0)

    def test_max_mean_ratio_empty_system(self):
        loads = np.array([[0, 0], [3, 1]])
        mm = max_mean_ratio(loads)
        assert mm[0] == 1.0  # empty: defined as balanced
        assert mm[1] == pytest.approx(1.5)


class TestFirstInBand:
    TIMES = [1.0, 2.0, 3.0, 4.0, 5.0]
    RHO = [3.0, 1.0, 3.0, 3.0, 1.0]   # band 2.0: in band at t=2 and t=5

    @pytest.mark.parametrize(
        "t, index, delay",
        [
            (0.0, 1, 2.0),     # before the first snapshot
            (2.5, 4, 2.5),     # between snapshots, out of band until t=5
            (5.5, None, None), # after the last snapshot
            (2.0, 1, 0.0),     # already in band at the event
        ],
    )
    def test_search(self, t, index, delay):
        k = first_in_band(self.TIMES, self.RHO, 2.0, t)
        assert k == index
        if k is not None:
            assert self.TIMES[k] - t == delay

    def test_never_back_in_band(self):
        assert first_in_band(self.TIMES, [3.0] * 5, 2.0, 0.0) is None


class TestRecoveryReport:
    def make_series(self):
        # healthy (rho ~ 8/(8+4) inside any band) -> spike -> recovery
        times = np.arange(8, dtype=float)
        loads = np.array([
            [8, 8, 8],
            [8, 7, 8],
            [20, 1, 1],   # burst starts at t=2
            [22, 0, 1],
            [10, 4, 5],   # burst ends at t=4
            [9, 3, 4],    # still out of band
            [6, 5, 5],    # re-entered
            [5, 5, 5],
        ])
        return times, loads

    def test_spike_and_reentry(self):
        times, loads = self.make_series()
        p = LBParams(f=1.3, delta=2, C=4)
        rep = recovery_report(times, loads, p, burst_start=2.0, burst_end=4.0)
        assert isinstance(rep, RecoveryReport)
        assert rep.band == pytest.approx(theorem4_bound(None, p.delta, p.f))
        assert rep.spike_ratio == pytest.approx(22 / 4)
        assert rep.pre_fault_ratio == pytest.approx(
            np.mean([8 / 12, 8 / 11])
        )
        # rho at t=4: 10/8=1.25 -> inside band 1.988 immediately
        assert rep.reentry_time == 0.0
        assert rep.reentry_snapshots == 0
        assert rep.final_ratio == pytest.approx(5 / 9)

    def test_reentry_is_the_band_search(self):
        times, loads = self.make_series()
        p = LBParams(f=1.05, delta=1, C=4)  # band 1.16: back in at t=6
        rep = recovery_report(times, loads, p, burst_start=2.0, burst_end=4.0)
        k = first_in_band(times, extreme_ratio(loads, p.C), rep.band, 4.0)
        assert k == 6
        assert rep.reentry_time == times[k] - 4.0
        assert rep.reentry_snapshots == k - 4

    def test_undefined_windows_are_none(self):
        times, loads = self.make_series()
        p = LBParams(f=1.3, delta=2, C=4)
        early = recovery_report(times, loads, p, burst_start=0.0, burst_end=1.0)
        assert early.pre_fault_ratio is None
        late = recovery_report(times, loads, p, burst_start=9.0, burst_end=10.0)
        assert late.spike_ratio is None and late.spike_max_mean is None
        assert late.reentry_time is None

    def test_never_reenters(self):
        times = np.arange(3, dtype=float)
        loads = np.array([[1, 1], [50, 0], [50, 0]])
        p = LBParams(f=1.1, delta=1, C=4)
        rep = recovery_report(times, loads, p, burst_start=1.0, burst_end=1.5)
        assert rep.reentry_time is None
        assert rep.reentry_snapshots is None

    def test_as_dict_roundtrip(self):
        times, loads = self.make_series()
        p = LBParams(f=1.3, delta=2, C=4)
        rep = recovery_report(times, loads, p, burst_start=2.0, burst_end=4.0)
        d = rep.as_dict()
        assert d["band"] == rep.band
        assert set(d) == {
            "band", "pre_fault_ratio", "spike_ratio", "spike_max_mean",
            "reentry_time", "reentry_snapshots", "final_ratio",
        }

    def test_validation(self):
        p = LBParams(f=1.3, delta=2, C=4)
        with pytest.raises(ValueError):
            recovery_report(
                np.arange(3, dtype=float), np.zeros((2, 4)), p,
                burst_start=0.0, burst_end=1.0,
            )
        with pytest.raises(ValueError):
            recovery_report(
                np.arange(2, dtype=float), np.zeros((2, 4)), p,
                burst_start=2.0, burst_end=1.0,
            )
