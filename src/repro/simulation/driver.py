"""The simulation run loop.

``Simulation`` couples a balancer (the paper's :class:`~repro.core.
engine.Engine` or any object with the same ``step``/``loads_snapshot``
protocol, e.g. a baseline from :mod:`repro.baselines`) to a workload
model and advances the global clock, recording a load snapshot per
tick.

Randomness is split into two independent streams (workload vs engine)
derived from one root seed via :class:`repro.rng.RngFactory`, so
experiments can hold the workload fixed while varying balancing
randomness and vice versa.

Observability: pass a :class:`~repro.observability.tracer.Tracer` to
record a structured event stream (the driver adds one ``tick`` snapshot
event per global tick on top of the engine's events), a
:class:`~repro.observability.metrics.MetricsRegistry` to maintain
per-tick gauges/histograms plus end-of-run counters, a
:class:`~repro.observability.profiler.Profiler` for hot-path timings
and a :class:`~repro.observability.monitors.MonitorSuite` to check the
paper's theorem bands online against each per-tick snapshot.  All
default to off and cost nothing when off.  Balancing-operation spans
need no observer of their own:
:func:`~repro.observability.spans.spans_from_trace` derives them from
the traced events.  The emitted event types and metric names are
documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any, Protocol

import numpy as np

from repro.core.columnar import ColumnarEngine
from repro.core.engine import Engine, EngineConfig
from repro.core.selection import CandidateSelector
from repro.observability.metrics import MetricsRegistry
from repro.observability.monitors import MonitorSuite
from repro.observability.profiler import Profiler
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.params import LBParams
from repro.rng import RngFactory
from repro.simulation.result import RunResult
from repro.workload.base import WorkloadModel

__all__ = ["Balancer", "Simulation", "run_simulation"]


class Balancer(Protocol):
    """Protocol every balancer (engine or baseline) implements."""

    n: int

    def step(self, actions: np.ndarray) -> None: ...

    def loads_snapshot(self) -> np.ndarray: ...


class Simulation:
    """Glue object: one balancer + one workload + clocks."""

    def __init__(
        self,
        balancer: Balancer,
        workload: WorkloadModel,
        *,
        workload_rng: np.random.Generator,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        monitors: MonitorSuite | None = None,
    ) -> None:
        if balancer.n != workload.n:
            raise ValueError(
                f"balancer has n={balancer.n} but workload has n={workload.n}"
            )
        self.balancer = balancer
        self.workload = workload
        self.workload_rng = workload_rng
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = bool(self.tracer.enabled)
        self.metrics = metrics
        self.monitors = monitors
        self.t = 0
        self.snapshots: list[np.ndarray] = [balancer.loads_snapshot()]

    def tick(self) -> None:
        """Advance one global time step."""
        loads = self.balancer.loads_snapshot()
        actions = self.workload.actions(self.t, loads, self.workload_rng)
        self.balancer.step(actions)
        self.t += 1
        snap = self.balancer.loads_snapshot()
        self.snapshots.append(snap)
        if self._trace:
            # the tick event's t indexes the post-tick snapshot (row t
            # of the RunResult loads); engine events inside this tick
            # carry t - 1, the tick during which they fired
            self.tracer.emit(
                "tick",
                t=self.t,
                loads=[int(v) for v in snap],
                ops=int(getattr(self.balancer, "total_ops", 0)),
                migrated=int(getattr(self.balancer, "packets_migrated", 0)),
            )
        if self.metrics is not None:
            m = self.metrics
            m.counter("sim.ticks").inc()
            lo, hi = int(snap.min()), int(snap.max())
            m.gauge("load.mean").set(float(snap.mean()))
            m.gauge("load.min").set(lo)
            m.gauge("load.max").set(hi)
            m.histogram("load.spread").observe(hi - lo)
        if self.monitors is not None:
            self.monitors.observe(self.t, snap, engine=self.balancer)

    def run(self, steps: int) -> np.ndarray:
        """Advance ``steps`` ticks; return the ``(steps+1, n)`` history."""
        for _ in range(steps):
            self.tick()
        return np.asarray(self.snapshots)


def run_simulation(
    n: int,
    params: LBParams,
    workload: WorkloadModel,
    steps: int,
    *,
    seed: int | RngFactory = 0,
    selector: CandidateSelector | None = None,
    refresh_participants: bool = True,
    strict_trigger: bool = False,
    check_invariants: bool = False,
    meta: dict[str, Any] | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    profiler: Profiler | None = None,
    monitors: MonitorSuite | None = None,
    engine_cls: type[Engine] | None = None,
) -> RunResult:
    """Convenience one-shot: build engine + simulation, run, package.

    This is the primary entry point of the library::

        >>> from repro import LBParams, run_simulation
        >>> from repro.workload import UniformRandom
        >>> res = run_simulation(8, LBParams(f=1.5, delta=1, C=4),
        ...                      UniformRandom(8, 0.6, 0.4), steps=50, seed=1)
        >>> res.loads.shape
        (51, 8)

    ``engine_cls`` swaps the engine implementation (any
    :class:`~repro.core.engine.Engine` subclass with the same
    constructor); the default is the vectorized
    :class:`~repro.core.columnar.ColumnarEngine`, and passing the scalar
    oracle :class:`~repro.core.engine.Engine` gives bit-identical
    results.
    """
    factory = seed if isinstance(seed, RngFactory) else RngFactory(seed)
    engine = (engine_cls or ColumnarEngine)(
        EngineConfig(
            n=n,
            params=params,
            refresh_participants=refresh_participants,
            strict_trigger=strict_trigger,
            check_invariants=check_invariants,
        ),
        rng=factory.named("engine"),
        selector=selector,
        tracer=tracer,
        profiler=profiler,
    )
    sim = Simulation(
        engine,
        workload,
        workload_rng=factory.named("workload"),
        tracer=tracer,
        metrics=metrics,
        monitors=monitors,
    )
    loads = sim.run(steps)
    if metrics is not None:
        metrics.counter("engine.balance_ops").inc(engine.total_ops)
        metrics.counter("engine.packets_migrated").inc(engine.packets_migrated)
        for key, value in engine.counters.as_dict().items():
            metrics.counter(f"borrow.{key}").inc(value)
    info: dict[str, Any] = {
        "n": n,
        "steps": steps,
        **params.as_dict(),
        "workload": type(workload).__name__,
    }
    if meta:
        info.update(meta)
    return RunResult(
        loads=loads,
        counters=engine.counters,
        total_ops=engine.total_ops,
        packets_migrated=engine.packets_migrated,
        meta=info,
    )
