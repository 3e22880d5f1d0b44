"""Tests for the resilience metrics."""

import numpy as np
import pytest

from repro.faults.metrics import (
    RecoveryReport,
    extreme_ratio,
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
            extreme_ratio(np.zeros(3), C=4)
        with pytest.raises(ValueError):
            extreme_ratio(np.zeros((2, 3)), C=0)

    def test_max_mean_ratio_empty_system(self):
        loads = np.array([[0, 0], [3, 1]])
        mm = max_mean_ratio(loads)
        assert mm[0] == 1.0  # empty: defined as balanced
        assert mm[1] == pytest.approx(1.5)


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
