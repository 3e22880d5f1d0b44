"""Resilience metrics: how far a fault throws the system off Theorem 4,
and how fast it climbs back.

Theorem 4 bounds the expected loads of *any* two processors ``i, j``:

    ``E(l_i) <= f^2 * delta/(delta+1-f) * (E(l_j) + C)``

independent of the workload pattern.  The natural empirical statistic
is therefore the *normalised extreme ratio*

    ``rho(t) = max_i l_i(t) / (min_j l_j(t) + C)``

which the theorem keeps below the band ``f^2 * delta/(delta+1-f)`` in
steady state (up to stochastic fluctuation — expectations vs one
sample path).  A crash burst freezes the victims' loads while the rest
of the network keeps working, so ``rho`` spikes out of the band; the
recovery metrics quantify the spike height and the time until ``rho``
re-enters the band after the burst lifts.  The classic max/mean ratio
is reported alongside as the reader-friendly view.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.params import LBParams
from repro.theory.bounds import theorem4_bound

__all__ = [
    "extreme_ratio",
    "max_mean_ratio",
    "RecoveryReport",
    "recovery_report",
]


def extreme_ratio(loads: np.ndarray, C: int) -> np.ndarray:
    """Per-snapshot ``max / (min + C)`` — the Theorem-4 test statistic.

    ``loads`` is the ``(snapshots, n)`` history; ``C`` the borrow
    capacity (the theorem's additive slack).  Always finite: ``C >= 1``.
    """
    loads = np.asarray(loads, dtype=float)
    if loads.ndim != 2:
        raise ValueError(f"loads must be 2-D (snapshots, n), got {loads.shape}")
    if C < 1:
        raise ValueError(f"C must be >= 1, got {C}")
    return loads.max(axis=1) / (loads.min(axis=1) + C)


def max_mean_ratio(loads: np.ndarray) -> np.ndarray:
    """Per-snapshot ``max / mean`` (1.0 where the system is empty)."""
    loads = np.asarray(loads, dtype=float)
    if loads.ndim != 2:
        raise ValueError(f"loads must be 2-D (snapshots, n), got {loads.shape}")
    mean = loads.mean(axis=1)
    out = np.ones(loads.shape[0])
    busy = mean > 0
    out[busy] = loads.max(axis=1)[busy] / mean[busy]
    return out


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """Resilience statistics of one faulted run.

    Attributes
    ----------
    band:
        The Theorem-4 band ``f^2 * delta/(delta+1-f)``.
    pre_fault_ratio:
        Mean extreme ratio over the snapshots strictly before the burst
        (the healthy baseline; NaN when the burst starts at time 0).
    spike_ratio:
        Maximum extreme ratio at or after the burst start — the
        imbalance spike height.
    spike_max_mean:
        Maximum max/mean ratio over the same window (reader view).
    reentry_time:
        Model time between the burst *end* and the first subsequent
        snapshot whose extreme ratio is back inside the band; ``None``
        if the run never re-enters (horizon too short).
    reentry_snapshots:
        Same, counted in snapshots (ticks for the synchronous engines).
    final_ratio:
        Extreme ratio at the last snapshot.
    """

    band: float
    pre_fault_ratio: float
    spike_ratio: float
    spike_max_mean: float
    reentry_time: float | None
    reentry_snapshots: int | None
    final_ratio: float

    def as_dict(self) -> dict:
        return asdict(self)


def recovery_report(
    times: np.ndarray,
    loads: np.ndarray,
    params: LBParams,
    *,
    burst_start: float,
    burst_end: float,
) -> RecoveryReport:
    """Measure spike height and time-to-rebalance around a fault burst.

    ``times``/``loads`` are the snapshot series of a run (async engine
    snapshots or per-tick load history); ``burst_start``/``burst_end``
    bracket the injected fault window in the same time units.
    """
    times = np.asarray(times, dtype=float)
    loads = np.asarray(loads, dtype=float)
    if times.shape[0] != loads.shape[0]:
        raise ValueError(
            f"times ({times.shape[0]}) and loads ({loads.shape[0]}) disagree"
        )
    if burst_end < burst_start:
        raise ValueError("burst_end must be >= burst_start")
    band = theorem4_bound(None, params.delta, params.f)
    rho = extreme_ratio(loads, params.C)
    mm = max_mean_ratio(loads)

    before = times < burst_start
    pre = float(rho[before].mean()) if before.any() else float("nan")
    after_start = times >= burst_start
    spike = float(rho[after_start].max()) if after_start.any() else float("nan")
    spike_mm = float(mm[after_start].max()) if after_start.any() else float("nan")

    reentry_time: float | None = None
    reentry_snapshots: int | None = None
    post = np.nonzero(times >= burst_end)[0]
    for k, idx in enumerate(post):
        if rho[idx] <= band:
            reentry_time = float(times[idx] - burst_end)
            reentry_snapshots = int(k)
            break
    return RecoveryReport(
        band=float(band),
        pre_fault_ratio=pre,
        spike_ratio=spike,
        spike_max_mean=spike_mm,
        reentry_time=reentry_time,
        reentry_snapshots=reentry_snapshots,
        final_ratio=float(rho[-1]),
    )
