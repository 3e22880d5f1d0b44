"""The dynamic-network runtime: live adjacency + partner selection.

A :class:`DynamicNetwork` couples a base :class:`~repro.network.
topology.Topology`, a :class:`~repro.dynnet.churn.ChurnPlan` and a
:class:`~repro.dynnet.hetero.HeterogeneousProfile` into the one object
both engines thread through their balancing path:

* it implements the :class:`~repro.core.selection.CandidateSelector`
  protocol, so ``Engine(..., dynnet=net)`` / ``AsyncEngine(...,
  dynnet=net)`` draw partners from the *live neighbourhood* of the
  current topology snapshot (away nodes excluded), weighted by partner
  speed when the profile is heterogeneous;
* :meth:`advance` applies every churn event due by the current
  simulation time, emits the ``topology_change`` / ``node_leave`` /
  ``node_join`` trace events, and opens a grace window on the attached
  :class:`~repro.observability.monitors.MonitorSuite` (a topology
  change legitimately throws the statistical bands for a moment — the
  monitors should not cry wolf over it).

Byte-identity fallback: when the base topology is complete, the plan is
empty and the profile homogeneous, selection delegates verbatim to the
stock :class:`~repro.core.selection.GlobalRandomSelector` and
:meth:`advance` is a no-op — the engines' RNG streams and traces are
bit-for-bit identical to a run without the subsystem.
"""

from __future__ import annotations

import numpy as np

from repro.core.selection import GlobalRandomSelector
from repro.dynnet.churn import ChurnPlan, ChurnSchedule
from repro.dynnet.hetero import HeterogeneousProfile
from repro.network.complete import CompleteGraph
from repro.observability.tracer import NULL_TRACER, Tracer

__all__ = ["DynamicNetwork"]


class DynamicNetwork:
    """Mutable runtime view of a churning, heterogeneous network.

    Parameters
    ----------
    topology:
        The base (t=0) interconnection network.
    plan:
        Churn schedule (default: no churn).
    profile:
        Speed/capacity profile (default: homogeneous).
    grace:
        Monitor grace-window length (model time units) opened around
        every applied churn event; 0 disables suppression.
    """

    def __init__(
        self,
        topology,
        *,
        plan: ChurnPlan | None = None,
        profile: HeterogeneousProfile | None = None,
        grace: float = 4.0,
    ) -> None:
        if grace < 0:
            raise ValueError(f"grace must be >= 0, got {grace}")
        self.topology = topology
        self.n = int(topology.n)
        self.plan = plan if plan is not None else ChurnPlan()
        self.profile = (
            profile if profile is not None
            else HeterogeneousProfile.homogeneous(self.n)
        )
        if self.profile.n != self.n:
            raise ValueError(
                f"profile has n={self.profile.n}, topology has n={self.n}"
            )
        self.schedule = ChurnSchedule(topology, self.plan)
        self.grace = float(grace)
        self._global = GlobalRandomSelector(self.n) if self.n >= 2 else None
        #: trivial = the paper's own scenario; selection falls through to
        #: the stock global selector so RNG streams stay byte-identical
        self.is_trivial = (
            isinstance(topology, CompleteGraph)
            and self.plan.is_empty
            and self.profile.is_homogeneous
        )
        self.tracer: Tracer = NULL_TRACER
        self._trace = False
        self.monitors = None
        self.reset()

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        """Rewind to the t=0 topology with everyone present."""
        self._adj: list[set[int]] = [
            set(int(v) for v in self.topology.neighbors(i)) for i in range(self.n)
        ]
        self.alive = np.ones(self.n, dtype=bool)
        self._cursor = 0
        self.rewires_applied = 0
        self.leaves_applied = 0
        self.joins_applied = 0

    def attach(self, *, tracer: Tracer | None = None, monitors=None) -> None:
        """Wire the owning engine's observability objects in.

        Called by the engines at construction; events applied by
        :meth:`advance` are then traced and monitor grace windows
        opened.  Passing ``None`` leaves the current attachment alone.
        """
        if tracer is not None:
            self.tracer = tracer
            self._trace = bool(tracer.enabled)
        if monitors is not None:
            self.monitors = monitors

    # -- time ------------------------------------------------------------

    def advance(self, time: float) -> int:
        """Apply every scheduled event with ``event.time <= time``.

        Returns the number of events applied.  Idempotent per event:
        the cursor only moves forward, so calling with a stale time is
        a no-op.
        """
        events = self.schedule.events
        applied = 0
        while self._cursor < len(events) and events[self._cursor].time <= time:
            ev = events[self._cursor]
            self._cursor += 1
            applied += 1
            if ev.kind == "rewire":
                u, v = ev.drop
                x, y = ev.add
                self._adj[u].discard(v)
                self._adj[v].discard(u)
                self._adj[x].add(y)
                self._adj[y].add(x)
                self.rewires_applied += 1
                if self._trace:
                    self.tracer.emit(
                        "topology_change",
                        time=float(ev.time),
                        dropped=[int(u), int(v)],
                        added=[int(x), int(y)],
                    )
            elif ev.kind == "leave":
                self.alive[ev.proc] = False
                self.leaves_applied += 1
                if self._trace:
                    self.tracer.emit(
                        "node_leave", time=float(ev.time), proc=int(ev.proc)
                    )
            else:  # join
                self.alive[ev.proc] = True
                self.joins_applied += 1
                if self._trace:
                    self.tracer.emit(
                        "node_join", time=float(ev.time), proc=int(ev.proc)
                    )
            if self.monitors is not None and self.grace > 0:
                self.monitors.grace(float(ev.time), self.grace)
        return applied

    def boundary_times(self) -> list[float]:
        """Event times the engines schedule wakeups for."""
        return self.schedule.boundary_times()

    @property
    def pending_events(self) -> int:
        return len(self.schedule.events) - self._cursor

    # -- topology queries ------------------------------------------------

    def live_neighbors(self, i: int) -> np.ndarray:
        """Sorted ids of ``i``'s *present* neighbours right now."""
        alive = self.alive
        return np.fromiter(
            (v for v in sorted(self._adj[i]) if alive[v]),
            dtype=np.int64,
        )

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def is_isolated(self, i: int) -> bool:
        """True when ``i`` currently has no live neighbour to balance with."""
        alive = self.alive
        return not any(alive[v] for v in self._adj[i])

    # -- CandidateSelector protocol --------------------------------------

    def select(
        self, initiator: int, delta: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw up to ``delta`` partners from the live neighbourhood.

        Trivial networks delegate to the stock global selector (the
        byte-identity contract).  Otherwise: the whole pool when it is
        ``delta`` or smaller (as :class:`~repro.core.selection.
        NeighborhoodSelector` does on sparse networks — the operation
        simply involves fewer processors), an *empty* array when the
        initiator is isolated (the engines treat that as a refused /
        re-anchored operation), and a speed-weighted draw without
        replacement when the profile is heterogeneous.
        """
        if self.is_trivial:
            return self._global.select(initiator, delta, rng)
        pool = self.live_neighbors(initiator)
        if pool.size <= delta:
            return pool
        if self.profile.is_homogeneous:
            return rng.choice(pool, size=delta, replace=False)
        w = self.profile.speeds[pool]
        return rng.choice(pool, size=delta, replace=False, p=w / w.sum())

    def __repr__(self) -> str:
        return (
            f"DynamicNetwork(n={self.n}, "
            f"base={type(self.topology).__name__}, "
            f"events={len(self.schedule.events)}, "
            f"trivial={self.is_trivial})"
        )
