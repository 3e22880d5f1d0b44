"""Declarative fault schedules: what breaks, when, and for how long.

A :class:`FaultPlan` is pure data — a schedule of crash/recover windows
per processor, straggler windows (latency multipliers), temporary
network partitions, and one per-message loss probability.  It contains
no mutable state and no RNG: the same plan object can drive any number
of runs.  The runtime half — deciding at simulation time whether a
given message is lost, counting what was injected — lives in
:class:`repro.faults.injector.FaultInjector`.

Time units are *model time*: the asynchronous engine reads them as
Poisson-clock time (one unit = one expected action per processor), the
synchronous balancer/machine read them as global tick indices.  A plan
therefore ports between the two engines unchanged.

Reproducibility contract (the subsystem's headline guarantee): a run is
a pure function of ``(engine seed, FaultPlan)``.  The plan's own
``seed`` field drives every probabilistic fault decision (message
loss draws, the ``crash_burst`` victim choice), through a dedicated RNG
stream inside the injector, so fault randomness never perturbs the
engine's workload/selection streams and replaying the same pair is
bit-for-bit identical — event stream, final state, every counter (see
``tests/core/test_async_faults.py``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

__all__ = [
    "CrashWindow",
    "StragglerWindow",
    "Partition",
    "FaultPlan",
    "NO_FAULTS",
]


@dataclass(frozen=True, slots=True)
class CrashWindow:
    """Processor ``proc`` is crashed (fail-stop) during ``[start, end)``.

    While crashed a processor performs no workload actions, initiates no
    balancing operations, declines to join any operation, and its load
    neither grows nor shrinks (its packets are dark, not destroyed).
    Recovery at ``end`` is a cold restart of the scheduler loop; in the
    task runtime the volatile queue contents are lost at ``start`` and
    re-derived from the lineage log at ``end``
    (see ``docs/RESILIENCE.md``).
    """

    proc: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.proc < 0:
            raise ValueError(f"proc must be >= 0, got {self.proc}")
        if not 0 <= self.start < self.end:
            raise ValueError(
                f"need 0 <= start < end, got [{self.start}, {self.end})"
            )
        if not math.isfinite(self.end):
            raise ValueError("crash windows must recover (finite end); "
                             "use an end beyond the horizon for a dead node")

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True, slots=True)
class StragglerWindow:
    """Processor ``proc`` completes balancing ops ``factor`` times slower
    during ``[start, end)`` (multiplies the engine's ``latency``)."""

    proc: int
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if self.proc < 0:
            raise ValueError(f"proc must be >= 0, got {self.proc}")
        if not 0 <= self.start < self.end:
            raise ValueError(
                f"need 0 <= start < end, got [{self.start}, {self.end})"
            )
        if self.factor < 1.0:
            raise ValueError(f"straggler factor must be >= 1, got {self.factor}")

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True, slots=True)
class Partition:
    """The network splits into ``groups`` during ``[start, end)``.

    Processors in different groups cannot take part in the same
    balancing operation; a partner drawn across the cut declines
    (exactly like a busy partner).  Processors not listed in any group
    form one implicit group of their own — they can reach each other
    but no listed group.
    """

    start: float
    end: float
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError(
                f"need 0 <= start < end, got [{self.start}, {self.end})"
            )
        seen: set[int] = set()
        for g in self.groups:
            for p in g:
                if p in seen:
                    raise ValueError(f"processor {p} appears in two groups")
                seen.add(p)

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end

    def side(self, proc: int) -> int:
        """Group index of ``proc`` (-1 = the implicit rest group)."""
        for gi, g in enumerate(self.groups):
            if proc in g:
                return gi
        return -1


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A complete, replayable fault schedule.

    Parameters
    ----------
    crashes / stragglers / partitions:
        The deterministic windows (see the window classes).
    message_loss:
        Probability that any single balancing *completion* message is
        lost in transit (drawn per message from the plan-seeded stream).
        Lost completions leave the group's ``busy`` flags set until the
        engine's timeout path reclaims them.
    seed:
        Root seed of the fault RNG stream — part of the plan on purpose,
        so ``(engine seed, plan)`` fully determines a run.
    """

    crashes: tuple[CrashWindow, ...] = ()
    stragglers: tuple[StragglerWindow, ...] = ()
    partitions: tuple[Partition, ...] = ()
    message_loss: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.message_loss < 1.0:
            raise ValueError(
                f"message_loss must be in [0, 1), got {self.message_loss}"
            )
        by_proc: dict[int, list[CrashWindow]] = {}
        for w in self.crashes:
            by_proc.setdefault(w.proc, []).append(w)
        for proc, windows in by_proc.items():
            windows.sort(key=lambda w: w.start)
            for a, b in zip(windows, windows[1:]):
                if b.start < a.end:
                    raise ValueError(
                        f"overlapping crash windows for processor {proc}: "
                        f"[{a.start}, {a.end}) and [{b.start}, {b.end})"
                    )

    # -- introspection ---------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return (
            not self.crashes
            and not self.stragglers
            and not self.partitions
            and self.message_loss == 0.0
        )

    @property
    def max_time(self) -> float:
        """Latest window boundary (0.0 for a window-free plan)."""
        ends = [w.end for w in self.crashes]
        ends += [w.end for w in self.stragglers]
        ends += [p.end for p in self.partitions]
        return max(ends, default=0.0)

    def validate_for_network(self, n: int) -> None:
        """Every processor the plan names must exist."""
        procs = {w.proc for w in self.crashes}
        procs |= {w.proc for w in self.stragglers}
        for part in self.partitions:
            for g in part.groups:
                procs.update(g)
        bad = sorted(p for p in procs if p >= n)
        if bad:
            raise ValueError(
                f"plan names processors {bad} but the network has n={n}"
            )

    # -- constructors ----------------------------------------------------

    @classmethod
    def crash_burst(
        cls,
        n: int,
        fraction: float,
        at: float,
        duration: float,
        *,
        seed: int = 0,
        message_loss: float = 0.0,
        stragglers: Iterable[StragglerWindow] = (),
    ) -> "FaultPlan":
        """Crash a random ``fraction`` of the ``n`` processors at time
        ``at`` for ``duration`` time units (the sweep's standard
        scenario; victims are drawn from the plan seed)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        k = int(round(n * fraction))
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xFA17)))
        victims = sorted(int(p) for p in rng.choice(n, size=k, replace=False))
        windows = tuple(
            CrashWindow(proc=p, start=at, end=at + duration) for p in victims
        )
        return cls(
            crashes=windows,
            stragglers=tuple(stragglers),
            message_loss=message_loss,
            seed=seed,
        )

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "crashes": [
                {"proc": w.proc, "start": w.start, "end": w.end}
                for w in self.crashes
            ],
            "stragglers": [
                {"proc": w.proc, "start": w.start, "end": w.end,
                 "factor": w.factor}
                for w in self.stragglers
            ],
            "partitions": [
                {"start": p.start, "end": p.end,
                 "groups": [list(g) for g in p.groups]}
                for p in self.partitions
            ],
            "message_loss": self.message_loss,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            crashes=tuple(
                CrashWindow(proc=c["proc"], start=c["start"], end=c["end"])
                for c in data.get("crashes", ())
            ),
            stragglers=tuple(
                StragglerWindow(
                    proc=s["proc"], start=s["start"], end=s["end"],
                    factor=s["factor"],
                )
                for s in data.get("stragglers", ())
            ),
            partitions=tuple(
                Partition(
                    start=p["start"], end=p["end"],
                    groups=tuple(tuple(g) for g in p["groups"]),
                )
                for p in data.get("partitions", ())
            ),
            message_loss=float(data.get("message_loss", 0.0)),
            seed=int(data.get("seed", 0)),
        )

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))


#: The empty plan: a perfect network.  Engines treat ``faults=None`` and
#: a plan with :attr:`FaultPlan.is_empty` identically.
NO_FAULTS = FaultPlan()
