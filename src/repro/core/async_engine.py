"""Asynchronous event-driven variant: the *practical* algorithm.

The analysed algorithm (``core.engine``) runs on the paper's idealised
timing model — a global unit clock, instantaneous balancing.  The
algorithmic principle was deployed on real machines [7, 8, 4, 11] in a
simpler form the paper's introduction describes: a processor watches
its *total local load*; when it has changed by the factor ``f`` it
balances with ``delta`` random partners; consumption takes whatever
packet is local (no virtual classes, no borrowing — those exist to make
the *analysis* compositional, not to run the machine).

This module simulates that practical variant under realistic
asynchrony:

* each processor acts at the ticks of its own Poisson clock (rate 1);
* a balancing operation takes ``latency`` time units to complete; the
  re-distribution is computed from the loads at *completion* time
  (state may have drifted — exactly the race a real network has);
* a processor already engaged in an operation declines to join another
  (the initiator proceeds with the partners that accepted; a fully
  declined operation is retried with bounded, jittered backoff — see
  :class:`RetryPolicy` — and dropped for good only after the retry
  budget is spent).

The A3 ablation (``benchmarks/test_bench_async.py``) uses this to show
the paper's synchronous-model conclusions carry over: balance quality
degrades only mildly with latency, and the f/delta trade-offs keep
their ordering.

Fault injection
---------------
Passing ``faults=`` (a :class:`~repro.faults.plan.FaultPlan` or
:class:`~repro.faults.injector.FaultInjector`) breaks the perfect
network on a declarative, seed-replayable schedule
(``docs/RESILIENCE.md`` is the contract):

* **crashes** — a crashed processor skips its workload actions,
  initiates nothing, and declines every join; its load is dark (frozen)
  until recovery, when its stale trigger reference makes it rebalance
  against the drifted network;
* **lost messages** — each ``complete`` message is lost with the plan's
  probability; the group's ``busy`` flags stay set until the timeout
  path (``max(4 * latency, 1)`` after the expected completion)
  reclaims them, so contention cannot deadlock;
* **stragglers** — per-processor windows multiply the initiator's
  operation latency;
* **partitions** — partners across a partition cut decline like busy
  partners.

All fault randomness draws from the plan-seeded injector stream, never
from the engine stream, so a run is a pure function of
``(seed, FaultPlan)`` and replays bit for bit.

Concurrency model
-----------------
The asynchrony is *simulated*, not threaded: a single
:class:`~repro.simulation.eventqueue.EventQueue` totally orders the
message kinds — ``action`` (a processor's Poisson clock fires: do one
workload action, maybe initiate), ``complete`` (a balancing operation's
latency elapsed: redistribute among the group, release the ``busy``
flags), ``retry`` (backoff elapsed after a fully declined initiation),
``timeout`` (reclaim the ``busy`` flags of an operation whose
completion message was lost) and ``fault`` (a scheduled crash/recover
boundary).  Handlers run to completion one at a time, so all
interleaving nondeterminism is concentrated in the queue order and the
RNGs — which makes runs exactly reproducible from one seed (plus the
fault plan), races included: the load redistribution is computed from
the group's loads at *completion* time, which may have drifted since
initiation, precisely the race a real network exhibits.

Two lanes deliver the events, with identical results.  A fault-free
run with no tracer or profiler (monitors and telemetry are fine) takes
the compiled event walk of :mod:`repro.core.event_walk`: the handlers
of this class (and of the live service's arrivals) transcribed into C,
draining the queue order in C and returning to Python only at snapshot
boundaries, where monitors and the ``_on_snapshot`` hook run.  Every
other run delivers through the Python handlers below, which stay the
oracle the walk is probed against at its first use.  Snapshot ``k``
is taken at ``k * snapshot_dt`` (:func:`snapshot_schedule`), after
exactly the events before it, in both lanes.

When a :class:`~repro.observability.tracer.Tracer` is attached, every
message delivery is emitted as an ``async_deliver`` event; accepted /
completed / dropped / retried / abandoned operations as
``async_accept`` / ``async_balance`` / ``async_drop`` / ``async_retry``
/ ``async_giveup`` / ``async_abandon``; and injected faults as the
``fault_*`` family (see ``docs/OBSERVABILITY.md``).  Balancing-operation
spans are derived from these events
(:func:`~repro.observability.spans.spans_from_trace`).  A
:class:`~repro.observability.profiler.Profiler` times the
``async.action`` / ``async.complete`` / ``async.retry`` handler
sections.  The tracer is single-process state here — one engine, one
buffer; merging across worker processes only arises for the *metrics
registry* path used by the multi-run harness (see
:mod:`repro.simulation.parallel`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.core.balance import even_split
from repro.core.event_walk import EventWalk, same_run
from repro.core.rngadvance import event_walk_function, floyd_branch, walk_probed
from repro.core.selection import CandidateSelector, GlobalRandomSelector
from repro.core.triggers import FactorTrigger, TriggerDecision
from repro.faults.injector import FaultInjector, as_injector
from repro.faults.plan import FaultPlan
from repro.observability.monitors import MonitorSuite
from repro.observability.profiler import Profiler
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.params import LBParams
from repro.rng import make_rng
from repro.simulation.eventqueue import EventQueue

__all__ = [
    "RateProvider",
    "ConstantRates",
    "TableRates",
    "RetryPolicy",
    "AsyncEngine",
    "AsyncResult",
    "STUDY_COUNTERS",
    "snapshot_schedule",
]


class RateProvider(Protocol):
    """Per-processor generate/consume rates as a function of time."""

    n: int

    def rates(self, time: float) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(g, c)`` probability vectors at ``time``."""
        ...


class ConstantRates:
    """Time-invariant rates."""

    def __init__(self, g: np.ndarray | list[float], c: np.ndarray | list[float]):
        self.g = np.asarray(g, dtype=float)
        self.c = np.asarray(c, dtype=float)
        if self.g.shape != self.c.shape or self.g.ndim != 1:
            raise ValueError("g and c must be equal-length vectors")
        self.n = self.g.shape[0]

    def rates(self, time: float) -> tuple[np.ndarray, np.ndarray]:
        return self.g, self.c


class TableRates:
    """Rates from per-tick tables (adapter for §7 phase workloads).

    >>> from repro.workload import Section7Workload
    >>> w = Section7Workload(8, 100, layout_rng=0)
    >>> provider = TableRates(*w.phase_tables)
    """

    def __init__(self, g_table: np.ndarray, c_table: np.ndarray) -> None:
        if g_table.shape != c_table.shape or g_table.ndim != 2:
            raise ValueError("tables must be equal-shape 2-D arrays")
        self.g_table = g_table
        self.c_table = c_table
        self.n = g_table.shape[1]

    def rates(self, time: float) -> tuple[np.ndarray, np.ndarray]:
        # clamp both ends: times before the first entry read row 0 (a
        # negative index would silently wrap to the table's tail),
        # times beyond the last entry hold the final row
        idx = min(max(int(time), 0), self.g_table.shape[0] - 1)
        return self.g_table[idx], self.c_table[idx]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded, jittered exponential backoff for fully declined
    initiations.

    When every chosen partner declines, the initiator keeps its trigger
    armed and retries after ``backoff * 2**(attempt-1)`` time units,
    stretched by a uniform jitter of up to ``jitter`` of itself (the
    jitter draw comes from the engine stream, so two refused processors
    do not retry in lock-step).  After ``max_retries`` failed attempts
    the operation is abandoned: the trigger reference is re-anchored to
    the current load, exactly the pre-retry behaviour.
    ``max_retries=0`` reproduces the old drop-immediately semantics.
    """

    max_retries: int = 2
    backoff: float = 0.5
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff <= 0:
            raise ValueError(f"backoff must be > 0, got {self.backoff}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = self.backoff * (2.0 ** (attempt - 1))
        return base * (1.0 + self.jitter * float(rng.random()))


def snapshot_schedule(dt: float, horizon: float) -> list[float]:
    """Times of the periodic snapshots after the one at 0: snapshot
    ``k`` at ``k * dt`` for every ``k * dt`` up to ``horizon``, the last
    one clamped to the horizon.

    Each time is one product, so no error accumulates, and a horizon a
    whole number of intervals long gets its final snapshot even where
    ``k * dt`` rounds above it (``3 * 0.1 > 0.3``).

    >>> snapshot_schedule(0.1, 0.3)
    [0.1, 0.2, 0.3]
    >>> snapshot_schedule(5.0, 12.0)
    [5.0, 10.0]
    """
    count = math.floor(horizon / dt + 1e-9) if horizon > 0 else 0
    return [min(k * dt, horizon) for k in range(1, count + 1)]


#: the operation counters of :meth:`AsyncResult.counters`
STUDY_COUNTERS = ("total_ops", "dropped_ops", "packets_migrated", "retries", "give_ups")


@dataclass(frozen=True, slots=True)
class AsyncResult:
    """Outcome of one asynchronous run."""

    times: np.ndarray          # snapshot times
    loads: np.ndarray          # (len(times), n)
    total_ops: int
    dropped_ops: int
    declined_joins: int
    packets_migrated: int
    retries: int = 0           # rescheduled initiations (RetryPolicy)
    give_ups: int = 0          # initiations abandoned after the budget
    fault_stats: dict | None = field(default=None)  # None = perfect network

    @property
    def n(self) -> int:
        return self.loads.shape[1]

    def counters(self) -> dict:
        """The :data:`STUDY_COUNTERS` block every study document records."""
        return {name: int(getattr(self, name)) for name in STUDY_COUNTERS}

    def final_cv(self) -> float:
        final = self.loads[-1].astype(float)
        mean = final.mean()
        return float(final.std() / mean) if mean > 0 else 0.0


# event payload kinds (payload[1] is always the acting processor;
# -1 for network-wide events like churn wakeups)
_ACTION = 0
_COMPLETE = 1
_RETRY = 2
_TIMEOUT = 3
_FAULT = 4
_CHURN = 5

_KIND_NAMES = {
    _ACTION: "action",
    _COMPLETE: "complete",
    _RETRY: "retry",
    _TIMEOUT: "timeout",
    _FAULT: "fault",
    _CHURN: "churn",
}

#: first event-kind id available to subclasses (see ``_dispatch_extra``)
FIRST_EXTRA_KIND = _CHURN + 1


class AsyncEngine:
    """Poisson-clocked, latency-aware simulation of the practical
    algorithm.

    Parameters
    ----------
    params:
        ``f`` and ``delta`` are used; ``C`` is irrelevant here (no
        borrowing in the practical variant).
    rates:
        Workload rates provider.
    latency:
        Completion delay of a balancing operation (time units; one unit
        = one expected action per processor).
    snapshot_dt:
        Interval between load snapshots.
    retry:
        :class:`RetryPolicy` for fully declined initiations.
    faults:
        Optional :class:`FaultPlan` / :class:`FaultInjector` breaking
        the network on a deterministic schedule (None = perfect).  An
        active plan arms the reclaim timeout: ``max(4 * latency, 1)``
        after an operation's expected completion its ``busy`` flags are
        forcibly reclaimed (a perfect network never loses the
        completion).
    """

    #: which handlers the compiled event walk transcribes for this class
    #: (``"async"`` or ``"service"``); a subclass that does not declare
    #: its own runs the Python handlers
    _WALK_MODE = "async"

    def __init__(
        self,
        params: LBParams,
        rates: RateProvider,
        *,
        latency: float = 0.1,
        snapshot_dt: float = 1.0,
        seed: int | np.random.Generator | None = 0,
        selector: CandidateSelector | None = None,
        tracer: Tracer | None = None,
        profiler: Profiler | None = None,
        monitors: MonitorSuite | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | FaultInjector | None = None,
        dynnet=None,
    ) -> None:
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        if snapshot_dt <= 0:
            raise ValueError(f"snapshot_dt must be > 0, got {snapshot_dt}")
        self.params = params
        self.rates = rates
        self.n = rates.n
        params.validate_for_network(self.n)
        self.latency = latency
        self.snapshot_dt = snapshot_dt
        self.rng = make_rng(seed)
        self.trigger = FactorTrigger(params.f)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = bool(self.tracer.enabled)
        self.profiler = profiler
        self._profile = profiler is not None
        self.monitors = monitors
        self.retry = retry or RetryPolicy()
        # a DynamicNetwork (repro.dynnet) doubles as the selector and
        # additionally scales each processor's Poisson action clock by
        # its speed; node leaves ride on the fault layer as crash
        # windows (ChurnPlan.as_fault_plan), composed automatically
        # when no fault plan of its own was passed
        self.dynnet = dynnet
        self._speeds: np.ndarray | None = None
        if dynnet is not None:
            if selector is not None:
                raise ValueError("pass either selector= or dynnet=, not both")
            if dynnet.n != self.n:
                raise ValueError(
                    f"dynnet has n={dynnet.n}, engine has n={self.n}"
                )
            dynnet.attach(tracer=self.tracer, monitors=monitors)
            self.selector = dynnet
            if not dynnet.profile.is_homogeneous:
                self._speeds = dynnet.profile.speeds
            if dynnet.plan.leaves:
                if faults is not None:
                    raise ValueError(
                        "the churn plan has leave windows and faults= was "
                        "also passed; compose them explicitly via "
                        "ChurnPlan.as_fault_plan before constructing the "
                        "engine"
                    )
                faults = dynnet.plan.as_fault_plan()
        else:
            self.selector = selector or GlobalRandomSelector(self.n)
        self.faults = as_injector(faults)
        if self.faults is not None:
            self.faults.plan.validate_for_network(self.n)
        self.reclaim_timeout = max(4.0 * latency, 1.0)

        self.l = np.zeros(self.n, dtype=np.int64)
        self.l_old = np.zeros(self.n, dtype=np.int64)
        self.busy = np.zeros(self.n, dtype=bool)
        self.queue: EventQueue[tuple] = EventQueue()
        self.time = 0.0
        self.total_ops = 0
        self.dropped_ops = 0
        self.declined_joins = 0
        self.packets_migrated = 0
        self.retries = 0
        self.give_ups = 0
        # fault bookkeeping (all zero on a perfect network)
        self.crash_events = 0
        self.crashed_skips = 0
        self.reclaimed_ops = 0
        self.straggled_ops = 0
        self.aborted_ops = 0
        self.abandoned_retries = 0
        # in-flight operations: op id -> (group, initiation time)
        self._inflight: dict[int, tuple[tuple[int, ...], float]] = {}
        self._op_seq = 0
        self._attempts = np.zeros(self.n, dtype=np.int64)
        self._retry_pending = np.zeros(self.n, dtype=bool)
        # the compiled event walk replaces the Python handlers only when
        # nothing observes them per event (tracer, profiler), the network
        # is perfect (no faults, no dynnet), and the engine's class, rates,
        # retry policy and selector are the ones it transcribes, with
        # partners on numpy's Floyd branch; None = bind at the first run
        # (which finds out whether the kernels are on), False = never
        walkable = (
            type(self).__dict__.get("_WALK_MODE") is not None
            and not self._trace
            and not self._profile
            and self.faults is None
            and dynnet is None
            and type(self.selector) is GlobalRandomSelector
            and self.selector.n == self.n
            and type(rates) in (ConstantRates, TableRates)
            and type(self.retry) is RetryPolicy
            and floyd_branch(self.n - 1, params.delta)
        )
        self._walk: EventWalk | bool | None = None if walkable else False

    # -- simulation -----------------------------------------------------

    def run(self, horizon: float) -> AsyncResult:
        """Simulate until ``horizon``; return snapshots + counters."""
        if self.faults is not None:
            for t, what, proc in self.faults.boundary_events():
                if t <= horizon:
                    self.queue.push(t, (_FAULT, proc, what))
        if self.dynnet is not None:
            for t in self.dynnet.boundary_times():
                if t <= horizon:
                    self.queue.push(t, (_CHURN, -1))
        for i in range(self.n):
            self._schedule_action(i)
        snap_times = [0.0]
        snaps = [self.l.copy()]

        def snapshot(t: float) -> None:
            snap_times.append(t)
            snaps.append(self.l.copy())
            if self.monitors is not None:
                self.monitors.observe(t, snaps[-1])
            self._on_snapshot(t, snaps[-1])

        schedule = snapshot_schedule(self.snapshot_dt, horizon)
        walk = self._event_walk()
        if not (walk and walk.drive(self, horizon, schedule, snapshot)):
            self._deliver(horizon, schedule, snapshot)

        return AsyncResult(
            times=np.asarray(snap_times),
            loads=np.asarray(snaps),
            total_ops=self.total_ops,
            dropped_ops=self.dropped_ops,
            declined_joins=self.declined_joins,
            packets_migrated=self.packets_migrated,
            retries=self.retries,
            give_ups=self.give_ups,
            fault_stats=self._fault_stats(),
        )

    def _deliver(self, horizon: float, schedule: list[float], snapshot) -> None:
        """The Python lane: deliver every event up to ``horizon``, taking
        the snapshots of ``schedule`` between them."""
        k, last = 0, len(schedule)
        for t, _seq, payload in self.queue.drain_until(horizon):
            while k < last and t >= schedule[k] - 1e-12:
                snapshot(schedule[k])
                k += 1
            self.time = t
            kind = payload[0]
            if self._trace:
                self.tracer.emit(
                    "async_deliver",
                    time=float(t),
                    kind=self._kind_name(kind),
                    proc=int(payload[1]),
                )
            if kind == _ACTION:
                if self._profile:
                    with self.profiler.section("async.action"):
                        self._do_action(payload[1])
                else:
                    self._do_action(payload[1])
            elif kind == _COMPLETE:
                if self._profile:
                    with self.profiler.section("async.complete"):
                        self._complete_balance(*payload[1:])
                else:
                    self._complete_balance(*payload[1:])
            elif kind == _RETRY:
                if self._profile:
                    with self.profiler.section("async.retry"):
                        self._do_retry(payload[1])
                else:
                    self._do_retry(payload[1])
            elif kind == _TIMEOUT:
                self._reclaim(payload[1], payload[2])
            elif kind == _FAULT:
                self._fault_boundary(payload[1], payload[2])
            elif kind == _CHURN:
                self.dynnet.advance(self.time)
            else:
                self._dispatch_extra(kind, payload)
        for t in schedule[k:]:
            snapshot(t)

    # -- the compiled lane -------------------------------------------------

    def _event_walk(self) -> EventWalk | bool:
        """The compiled event walk for this run, or False for the Python
        handlers.

        Loaded, probed (once per process, engine class and bit-generator
        class) and bound at the first run; rebound when a column or the
        generator is replaced.
        """
        walk = self._walk
        if walk is None or (walk and not walk.bound_to(self)):
            fn = event_walk_function()
            cls = type(self)
            ok = (
                fn is not None
                and EventWalk.fits(self)
                and walk_probed(
                    type(self.rng.bit_generator),
                    lambda bitgen: cls._probe_event_walk(fn, bitgen),
                    f"event walk of {cls.__name__}",
                )
            )
            walk = self._walk = EventWalk(fn, self) if ok else False
        return walk

    @classmethod
    def _probe_event_walk(cls, fn, bitgen_cls) -> bool:
        """A short seeded run through the walk and through the Python
        handlers: generates and consumes over a changing rate table,
        contended operations, retries and give-ups."""
        n = 10
        wr = np.random.default_rng(28)
        rates = TableRates(wr.uniform(0.1, 0.6, (4, n)), wr.uniform(0.1, 0.4, (4, n)))
        runs = []
        for walked in (True, False):
            eng = cls(
                LBParams(f=1.2, delta=3, C=4), rates, latency=0.3,
                snapshot_dt=0.5, seed=np.random.Generator(bitgen_cls(28)),
            )
            eng._walk = EventWalk(fn, eng) if walked else False
            runs.append((eng, eng.run(5.0)))
        (a, ra), (b, rb) = runs
        return same_run(a, b, ra, rb)

    def _fault_stats(self) -> dict | None:
        if self.faults is None:
            return None
        return {
            "crashes": self.crash_events,
            "crashed_skips": self.crashed_skips,
            "reclaimed_ops": self.reclaimed_ops,
            "straggled_ops": self.straggled_ops,
            "aborted_ops": self.aborted_ops,
            "abandoned_retries": self.abandoned_retries,
            **self.faults.counters(),
        }

    # -- service-layer extension points ----------------------------------
    #
    # The live-service mode (repro.service.engine.ServiceEngine,
    # docs/SERVICE.md) subclasses this engine and feeds it open-loop
    # traffic.  These hooks are its attachment points; all are no-ops
    # here and none touches the RNG, so a base-engine run is
    # bit-identical with or without them.

    def _kind_name(self, kind: int) -> str:
        """Display name of an event kind (``async_deliver`` tracing)."""
        return _KIND_NAMES[kind]

    def _dispatch_extra(self, kind: int, payload: tuple) -> None:
        """Handle an event kind >= :data:`FIRST_EXTRA_KIND`.

        Subclasses that push custom events (e.g. task arrivals) override
        this; the base engine schedules none, so reaching it is a bug.
        """
        raise ValueError(f"unknown event kind {kind!r}")  # pragma: no cover

    def _on_generate(self, i: int) -> None:
        """A workload action generated one packet on ``i``."""

    def _on_consume(self, i: int) -> None:
        """A workload action consumed one packet on ``i``."""

    def _on_snapshot(self, t: float, loads: np.ndarray) -> None:
        """A periodic load snapshot was taken (after monitors ran)."""

    def _post_balance(
        self, alive: Sequence[int], before: Sequence[int], after: Sequence[int]
    ) -> None:
        """Loads were redistributed among ``alive`` (before→after)."""

    def set_trigger_factor(self, f: float) -> None:
        """Re-arm the balancing trigger with a new factor ``f``.

        The degradation ladder uses this to *widen* the trigger (pull
        ``f`` toward 1, making balancing more eager) while the service
        sheds load, and to restore the configured factor on recovery.
        Existing trigger references (``l_old``) are kept.
        """
        if f <= 1.0:
            raise ValueError(f"trigger factor must be > 1, got {f}")
        self.trigger = FactorTrigger(f)

    # -- internals -------------------------------------------------------

    def _schedule_action(self, i: int) -> None:
        gap = self.rng.exponential(1.0)
        if self._speeds is not None:
            gap /= self._speeds[i]
        self.queue.push(self.time + gap, (_ACTION, i))

    def _do_action(self, i: int) -> None:
        if self.faults is not None and self.faults.crashed(i, self.time):
            # fail-stop: no workload progress, no initiation; the clock
            # itself keeps running so recovery needs no re-arming
            self.crashed_skips += 1
            self._schedule_action(i)
            return
        g, c = self.rates.rates(self.time)
        u = self.rng.random()
        if u < g[i]:
            self.l[i] += 1
            self._on_generate(i)
        elif u < g[i] + c[i] and self.l[i] > 0:
            self.l[i] -= 1
            self._on_consume(i)
        self._maybe_initiate(i)
        self._schedule_action(i)

    def _do_retry(self, i: int) -> None:
        self._retry_pending[i] = False
        if self.faults is not None and self.faults.crashed(i, self.time):
            # the episode ends here: the next refusal starts a fresh budget
            self._attempts[i] = 0
            self.abandoned_retries += 1
            if self._trace:
                self.tracer.emit(
                    "async_abandon", time=float(self.time), initiator=int(i),
                    reason="crashed",
                )
            return
        self._maybe_initiate(i)

    def _maybe_initiate(self, i: int) -> None:
        if self.busy[i] or self._retry_pending[i]:
            return
        cur = int(self.l[i])
        # the practical variant triggers on the TOTAL local load (the
        # analysed engine triggers on the own-class load d_ii)
        if self.trigger.check(cur, int(self.l_old[i])) is TriggerDecision.NONE:
            # load drifted back: episode over (outstanding attempts
            # mean a refused episode may still be open)
            if self._trace and self._attempts[i]:
                self.tracer.emit(
                    "async_abandon", time=float(self.time), initiator=int(i),
                    reason="quiesced",
                )
            self._attempts[i] = 0
            return
        partners = self.selector.select(i, self.params.delta, self.rng)
        accepted = []
        for p in partners:
            p = int(p)
            if self.busy[p]:
                continue
            if self.faults is not None and self.faults.partner_declines(
                i, p, self.time
            ):
                continue
            accepted.append(p)
        self.declined_joins += len(partners) - len(accepted)
        if not accepted:
            self._handle_refusal(i, len(partners))
            return
        self._attempts[i] = 0
        group = (i, *accepted)
        for p in group:
            self.busy[p] = True
        op = self._op_seq
        self._op_seq += 1
        if self._trace:
            self.tracer.emit(
                "async_accept", time=float(self.time), initiator=int(i),
                group=[int(p) for p in group],
            )
        eff = self.latency
        if self.faults is not None:
            mult = self.faults.latency_multiplier(i, self.time)
            if mult > 1.0:
                eff *= mult
                self.straggled_ops += 1
                if self._trace:
                    self.tracer.emit(
                        "fault_straggle", time=float(self.time),
                        initiator=int(i), factor=float(mult),
                    )
        self._inflight[op] = (group, self.time)
        self.queue.push(self.time + eff, (_COMPLETE, i, group, op))
        if self.faults is not None:
            # reclaim path: if the completion message is lost, the busy
            # flags must not leak forever
            self.queue.push(
                self.time + eff + self.reclaim_timeout, (_TIMEOUT, i, op)
            )

    def _handle_refusal(self, i: int, declined: int) -> None:
        """Every partner declined: back off and retry, or give up."""
        self.dropped_ops += 1
        if self._trace:
            self.tracer.emit(
                "async_drop", time=float(self.time), initiator=int(i),
                declined=declined,
            )
        attempt = int(self._attempts[i])
        if attempt < self.retry.max_retries:
            self._attempts[i] = attempt + 1
            self._retry_pending[i] = True
            self.retries += 1
            delay = self.retry.delay(attempt + 1, self.rng)
            self.queue.push(self.time + delay, (_RETRY, i))
            if self._trace:
                self.tracer.emit(
                    "async_retry", time=float(self.time), initiator=int(i),
                    attempt=attempt + 1, delay=float(delay),
                )
        else:
            # budget spent: re-anchor the trigger so the refused
            # processor stops asking while the net is congested
            self.give_ups += 1
            self._attempts[i] = 0
            self.l_old[i] = int(self.l[i])
            if self._trace:
                self.tracer.emit(
                    "async_giveup", time=float(self.time), initiator=int(i),
                    attempts=attempt + 1,
                )

    def _complete_balance(
        self, i: int, group: tuple[int, ...], op: int
    ) -> None:
        if op not in self._inflight:
            return  # already reclaimed by the timeout path
        if self.faults is not None and self.faults.message_lost(self.time):
            # the redistribution message vanished: the group stays busy
            # until the timeout reclaims it
            if self._trace:
                self.tracer.emit(
                    "fault_msg_loss", time=float(self.time),
                    initiator=int(i), group=[int(p) for p in group],
                )
            return
        del self._inflight[op]
        # a group is at most delta + 1 processors: plain ints beat numpy
        busy = self.busy
        for p in group:
            busy[p] = False
        if self.faults is not None:
            alive = tuple(
                p for p in group if not self.faults.crashed(p, self.time)
            )
        else:
            alive = group
        if len(alive) < 2:
            # everyone else crashed mid-flight: nothing to equalise
            self.aborted_ops += 1
            if self._trace:
                self.tracer.emit(
                    "async_abandon", time=float(self.time), initiator=int(i),
                    reason="stranded",
                )
            return
        l, l_old = self.l, self.l_old
        before = [int(l[p]) for p in alive]
        after = even_split(
            sum(before), len(alive), start=int(self.rng.integers(len(alive)))
        ).tolist()
        migrated = 0
        for p, b, a in zip(alive, before, after):
            l[p] = a
            l_old[p] = a
            if a > b:
                migrated += a - b
        self._post_balance(alive, before, after)
        self.packets_migrated += migrated
        self.total_ops += 1
        if self._trace:
            self.tracer.emit(
                "async_balance", time=float(self.time), initiator=int(i),
                group=[int(p) for p in alive], loads_before=before,
                loads_after=after, migrated=migrated,
            )

    def _reclaim(self, i: int, op: int) -> None:
        """Timeout: release the busy flags of a lost operation."""
        info = self._inflight.pop(op, None)
        if info is None:
            return  # the completion arrived in time
        group, t0 = info
        for p in group:
            self.busy[p] = False
        self.reclaimed_ops += 1
        if self._trace:
            self.tracer.emit(
                "fault_reclaim", time=float(self.time), initiator=int(i),
                group=[int(p) for p in group], waited=float(self.time - t0),
            )

    def _fault_boundary(self, proc: int, what: str) -> None:
        if what == "crash":
            self.crash_events += 1
            if self._trace:
                self.tracer.emit(
                    "fault_crash", time=float(self.time), proc=int(proc)
                )
        else:
            # the recovered processor keeps its stale trigger reference:
            # its next action re-evaluates the trigger against the
            # drifted network and rebalances promptly — that prompt
            # re-entry is exactly what the resilience sweep measures
            if self._trace:
                self.tracer.emit(
                    "fault_recover", time=float(self.time), proc=int(proc)
                )
