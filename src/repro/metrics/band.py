"""The Theorem-4 band statistic and the episode summaries built on it.

Theorem 4 bounds the expected loads of *any* two processors ``i, j``:

    ``E(l_i) <= f^2 * delta/(delta+1-f) * (E(l_j) + C)``

independent of the workload pattern.  The natural empirical statistic
is therefore the *normalised extreme ratio*

    ``rho(t) = max_i l_i(t) / (min_j l_j(t) + C)``

which the theorem keeps below the band ``f^2 * delta/(delta+1-f)`` in
steady state (up to stochastic fluctuation — expectations vs one
sample path).  :func:`extreme_ratio` is the one place that computes
it: the conformance monitors, the SLO tracker, the telemetry sampler
and the chaos/churn studies all call it.  On top of the ``rho``
series this module measures how an episode treats the band: the
fraction of snapshots inside it (:func:`band_occupancy`), the first
snapshot back inside it after an event (:func:`first_in_band`), and
the spike-and-recovery summary of a fault burst
(:func:`recovery_report`).  Undefined statistics (an empty window)
are ``None``, which the study documents write as ``null``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.params import LBParams
from repro.theory.bounds import theorem4_bound

__all__ = [
    "extreme_ratio",
    "max_mean_ratio",
    "band_occupancy",
    "first_in_band",
    "RecoveryReport",
    "recovery_report",
]


def extreme_ratio(loads, C: int, capacities=None):
    """``max / (min + C)`` over the last axis — the Theorem-4 statistic.

    ``loads`` is one snapshot ``(n,)`` (returns a scalar) or a
    ``(snapshots, n)`` history (returns one ratio per snapshot); ``C``
    is the borrow capacity, the theorem's additive slack, so the ratio
    is always finite.  With ``capacities`` the loads are normalised to
    ``l_i / cap_i`` first: on a heterogeneous network that asks whether
    anyone is loaded far beyond its *share* instead of penalising big
    nodes for holding more (unit capacities give the plain statistic).

    >>> float(extreme_ratio([4, 2, 0], 4))
    1.0
    >>> extreme_ratio([[4, 2, 0], [6, 6, 6]], 4).tolist()
    [1.0, 0.6]
    """
    loads = np.asarray(loads)
    if loads.ndim == 0 or loads.shape[-1] == 0:
        raise ValueError(f"loads must have processors on the last axis, got {loads.shape}")
    if C < 1:
        raise ValueError(f"C must be >= 1, got {C}")
    if capacities is not None:
        capacities = np.asarray(capacities, dtype=float)
        if capacities.shape != loads.shape[-1:]:
            raise ValueError(
                f"capacities must have shape {loads.shape[-1:]}, got {capacities.shape}"
            )
        loads = loads / capacities
    return loads.max(axis=-1) / (loads.min(axis=-1) + C)


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


def _series(times, rho) -> tuple[np.ndarray, np.ndarray]:
    times = np.asarray(times, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if times.shape != rho.shape:
        raise ValueError(f"times {times.shape} and rho {rho.shape} disagree")
    return times, rho


def band_occupancy(times, rho, band: float, *, since: float) -> float | None:
    """Fraction of the snapshots at or after ``since`` with ``rho <= band``.

    ``None`` when no snapshot is that late (a warmup at or past the
    horizon).  The dynamics study passes its warmup; the live telemetry
    window passes ``times[-1] - window``, which always keeps the latest
    snapshot.

    >>> band_occupancy([0, 1, 2, 3], [3.0, 1.0, 1.0, 3.0], 2.0, since=1)
    0.6666666666666666
    >>> band_occupancy([0, 1], [1.0, 1.0], 2.0, since=5) is None
    True
    """
    times, rho = _series(times, rho)
    mask = times >= since
    if not mask.any():
        return None
    return float((rho[mask] <= band).mean())


def first_in_band(times, rho, band: float, t: float) -> int | None:
    """Index of the first snapshot at or after ``t`` with ``rho <= band``.

    ``times`` is the non-decreasing snapshot clock.  ``None`` when the
    series ends still out of band; ``times[k] - t`` is the re-entry
    delay (0.0 when ``t`` is itself an in-band snapshot time).

    >>> first_in_band([0, 1, 2, 3], [3.0, 3.0, 1.0, 1.0], 2.0, 0.5)
    2
    >>> first_in_band([0, 1], [3.0, 3.0], 2.0, 0.0) is None
    True
    """
    times, rho = _series(times, rho)
    start = int(np.searchsorted(times, float(t), side="left"))
    hits = np.nonzero(rho[start:] <= band)[0]
    return start + int(hits[0]) if hits.size else None


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """Resilience statistics of one faulted run.

    Attributes
    ----------
    band:
        The Theorem-4 band ``f^2 * delta/(delta+1-f)``.
    pre_fault_ratio:
        Mean extreme ratio over the snapshots strictly before the burst
        (the healthy baseline; ``None`` when the burst starts at or
        before the first snapshot).
    spike_ratio:
        Maximum extreme ratio at or after the burst start — the
        imbalance spike height (``None`` when the run ends before the
        burst starts).
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
    pre_fault_ratio: float | None
    spike_ratio: float | None
    spike_max_mean: float | None
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
    after = ~before
    k = first_in_band(times, rho, band, burst_end)
    return RecoveryReport(
        band=float(band),
        pre_fault_ratio=float(rho[before].mean()) if before.any() else None,
        spike_ratio=float(rho[after].max()) if after.any() else None,
        spike_max_mean=float(mm[after].max()) if after.any() else None,
        reentry_time=None if k is None else float(times[k] - burst_end),
        reentry_snapshots=(
            None if k is None
            else k - int(np.searchsorted(times, burst_end, side="left"))
        ),
        final_ratio=float(rho[-1]),
    )
