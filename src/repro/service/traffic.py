"""Open-loop traffic generators: the "millions of users" front door.

Every harness before the service mode ran *closed-loop*: the workload
models react to the load vector and the run ends at a fixed horizon.
A live service faces the opposite regime — requests arrive on their
own schedule whether or not the system can take them.  This module
generates those arrival streams.

An :class:`Arrival` is ``(time, target, critical)``: when the request
lands, which processor the front door routes it to, and whether the
degradation ladder's brown-out may shed it (non-critical work goes
first — see ``docs/SERVICE.md``).  Generators pre-compute the full
schedule for a horizon from their own seeded RNG stream, independent
of the engine stream, so a service run is a pure function of
``(engine seed, traffic model, fault plan)`` and replays bit for bit.

Profiles (rates are *network-wide* arrivals per model-time unit):

* :class:`PoissonTraffic` — homogeneous Poisson process, the classic
  open-loop baseline.
* :class:`BurstyTraffic` — Poisson base rate with a multiplicative
  burst window (a flash crowd); the standard chaos scenario overlaps
  the burst with a crash window so the service loses capacity exactly
  when demand spikes.
* :class:`DiurnalTraffic` — sinusoidally modulated rate (a day/night
  cycle compressed to the horizon).
* :class:`ReplayTraffic` — replays a recorded
  :class:`~repro.workload.trace.ArrivalTrace` verbatim
  (``repro serve --replay``).

Time-varying profiles sample by thinning: candidate points are drawn
from a Poisson process at the peak rate and accepted with probability
``rate(t)/peak``, which is exact and keeps the draw count (hence the
RNG stream) independent of the rate shape parameters' effect on
acceptance.

Routing uses power-of-two-choices: the front door picks two candidate
processors and routes to the shorter queue *at arrival time* (the
``depths`` argument of :meth:`Arrival.route`).  The *candidates* are
part of the pre-generated schedule (replay-stable); only the
comparison uses live state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Arrival",
    "PoissonTraffic",
    "BurstyTraffic",
    "DiurnalTraffic",
    "ReplayTraffic",
    "TRAFFIC_PROFILES",
    "make_traffic",
]

#: profile names :func:`make_traffic` accepts (CLI validation source)
TRAFFIC_PROFILES = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True, slots=True)
class Arrival:
    """One open-loop request: when, where it may go, how important."""

    time: float
    targets: tuple[int, int]   # power-of-two-choices candidates
    critical: bool

    def route(self, depths) -> int:
        """Pick the less-loaded candidate (ties go to the first)."""
        a, b = self.targets
        return a if depths[a] <= depths[b] else b


class _ThinnedTraffic:
    """Shared thinning sampler; subclasses define ``rate_at``/``peak``."""

    name = "open-loop"

    def __init__(self, n: int, *, seed: int = 0, critical_frac: float = 0.8):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if not 0.0 <= critical_frac <= 1.0:
            raise ValueError(
                f"critical_frac must be in [0, 1], got {critical_frac}"
            )
        self.n = n
        self.seed = seed
        self.critical_frac = critical_frac

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def peak(self) -> float:
        raise NotImplementedError

    def arrivals(self, horizon: float) -> list[Arrival]:
        """The full arrival schedule on ``[0, horizon]``, time-sorted."""
        peak = self.peak()
        if peak <= 0.0 or horizon <= 0.0:
            return []
        rng = np.random.default_rng(
            np.random.SeedSequence((int(self.seed), 0x7AFF1C))
        )
        out: list[Arrival] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / peak))
            if t > horizon:
                break
            accept = rng.random() < self.rate_at(t) / peak
            # two scalar draws: the same words as integers(n, size=2)
            # (each bounded draw takes its own), without the array set-up
            a, b = int(rng.integers(self.n)), int(rng.integers(self.n))
            critical = bool(rng.random() < self.critical_frac)
            # candidate/criticality draws happen for rejected points
            # too, so the stream position depends only on (seed, peak,
            # horizon) — never on the acceptance outcomes
            if accept:
                out.append(Arrival(time=t, targets=(a, b), critical=critical))
        return out

    def describe(self) -> dict:
        return {
            "model": self.name,
            "n": self.n,
            "seed": self.seed,
            "critical_frac": self.critical_frac,
        }


class PoissonTraffic(_ThinnedTraffic):
    """Homogeneous Poisson arrivals at ``rate`` per model-time unit."""

    name = "poisson"

    def __init__(
        self, n: int, rate: float, *, seed: int = 0, critical_frac: float = 0.8
    ) -> None:
        super().__init__(n, seed=seed, critical_frac=critical_frac)
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self.rate = float(rate)

    def rate_at(self, t: float) -> float:
        return self.rate

    def peak(self) -> float:
        return self.rate

    def describe(self) -> dict:
        return {**super().describe(), "rate": self.rate}


class BurstyTraffic(_ThinnedTraffic):
    """Poisson base rate, multiplied by ``burst_mult`` during the burst.

    The flash-crowd profile: demand is ``rate`` everywhere except
    ``[burst_at, burst_at + burst_duration)`` where it jumps to
    ``rate * burst_mult``.
    """

    name = "bursty"

    def __init__(
        self,
        n: int,
        rate: float,
        *,
        burst_at: float,
        burst_duration: float,
        burst_mult: float = 3.0,
        seed: int = 0,
        critical_frac: float = 0.8,
    ) -> None:
        super().__init__(n, seed=seed, critical_frac=critical_frac)
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if burst_duration <= 0:
            raise ValueError(
                f"burst_duration must be > 0, got {burst_duration}"
            )
        if burst_mult < 1.0:
            raise ValueError(f"burst_mult must be >= 1, got {burst_mult}")
        self.rate = float(rate)
        self.burst_at = float(burst_at)
        self.burst_duration = float(burst_duration)
        self.burst_mult = float(burst_mult)

    def rate_at(self, t: float) -> float:
        if self.burst_at <= t < self.burst_at + self.burst_duration:
            return self.rate * self.burst_mult
        return self.rate

    def peak(self) -> float:
        return self.rate * self.burst_mult

    def describe(self) -> dict:
        return {
            **super().describe(),
            "rate": self.rate,
            "burst_at": self.burst_at,
            "burst_duration": self.burst_duration,
            "burst_mult": self.burst_mult,
        }


class DiurnalTraffic(_ThinnedTraffic):
    """Sinusoidal day/night cycle: ``rate * (1 + amp * sin(2πt/period))``.

    ``amp`` must stay in ``[0, 1]`` so the instantaneous rate is never
    negative; the cycle starts at the mean (t=0 is "morning").
    """

    name = "diurnal"

    def __init__(
        self,
        n: int,
        rate: float,
        *,
        period: float,
        amp: float = 0.5,
        seed: int = 0,
        critical_frac: float = 0.8,
    ) -> None:
        super().__init__(n, seed=seed, critical_frac=critical_frac)
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        if not 0.0 <= amp <= 1.0:
            raise ValueError(f"amp must be in [0, 1], got {amp}")
        self.rate = float(rate)
        self.period = float(period)
        self.amp = float(amp)

    def rate_at(self, t: float) -> float:
        return self.rate * (
            1.0 + self.amp * float(np.sin(2.0 * np.pi * t / self.period))
        )

    def peak(self) -> float:
        return self.rate * (1.0 + self.amp)

    def describe(self) -> dict:
        return {
            **super().describe(),
            "rate": self.rate,
            "period": self.period,
            "amp": self.amp,
        }


class ReplayTraffic:
    """Replay a recorded :class:`~repro.workload.trace.ArrivalTrace`.

    The trace stores the *offered* stream (pre-admission), so a replay
    re-runs the exact same front-door pressure against a possibly
    changed service — the fair-comparison convention of
    ``workload/trace.py`` extended to open-loop arrivals.
    """

    name = "replay"

    def __init__(self, trace) -> None:
        self.trace = trace
        self.n = trace.n

    def arrivals(self, horizon: float) -> list[Arrival]:
        return [
            Arrival(time=t, targets=(a, b), critical=bool(crit))
            for t, a, b, crit in self.trace.rows()
            if t <= horizon
        ]

    def describe(self) -> dict:
        return {"model": self.name, "n": self.n, "recorded": len(self.trace)}


def make_traffic(
    profile: str,
    n: int,
    rate: float,
    *,
    seed: int = 0,
    burst_at: float = 0.0,
    burst_duration: float = 1.0,
    burst_mult: float = 3.0,
    period: float | None = None,
    critical_frac: float = 0.8,
):
    """Construct a traffic model by profile name (CLI helper)."""
    if profile == "poisson":
        return PoissonTraffic(n, rate, seed=seed, critical_frac=critical_frac)
    if profile == "bursty":
        return BurstyTraffic(
            n, rate, burst_at=burst_at, burst_duration=burst_duration,
            burst_mult=burst_mult, seed=seed, critical_frac=critical_frac,
        )
    if profile == "diurnal":
        return DiurnalTraffic(
            n, rate, period=period if period is not None else 40.0,
            seed=seed, critical_frac=critical_frac,
        )
    raise ValueError(
        f"unknown traffic profile {profile!r} "
        f"(known: {', '.join(TRAFFIC_PROFILES)})"
    )
