"""The live-service engine: ``repro serve``.

Everything before this module *simulates a run*; this module *operates
a service*.  :class:`ServiceEngine` subclasses the asynchronous engine
through its extension hooks (``core/async_engine.py``) and adds the
pieces a long-running deployment needs:

* open-loop **arrivals** from a traffic generator
  (:mod:`repro.service.traffic`) are scheduled as a new event kind on
  the same deterministic event queue — the load vector is now fed by
  demand, not by the closed-loop workload's generate rate (the rate
  provider must be consume-only);
* every arrival passes the **admission controller**
  (:mod:`repro.service.admission`) before touching a queue, and every
  admitted task lives in the **bounded queues**
  (:mod:`repro.service.queues`) that shadow the engine's load vector;
* the **degradation ladder** (:mod:`repro.service.degradation`)
  re-tunes admission, brown-out and the balancing trigger at snapshot
  boundaries; the **SLO tracker** (:mod:`repro.service.slo`) turns the
  same snapshots into service-level metrics.

Determinism contract (pinned by the golden test): a service run is a
pure function of ``(ServiceConfig, chaos plan)``.  Traffic is drawn
from its own seeded stream, faults from theirs, and none of the
service-layer logic touches the engine RNG outside the engine's own
deterministic call sites — so runs replay bit for bit, with monitors
attached or not, and ``repro serve --record`` / ``--replay`` round-trip
exactly.  Composing a chaos plan (``repro serve --chaos``) reuses the
PR 4 fault injector unchanged: crashes, message loss and stragglers
fire underneath the service exactly as they do in the resilience sweep.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.async_engine import (
    FIRST_EXTRA_KIND,
    AsyncEngine,
    AsyncResult,
    ConstantRates,
)
from repro.core.event_walk import EventWalk, same_run
from repro.faults.plan import FaultPlan
from repro.params import LBParams
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.degradation import HIGH_WATERMARK, DegradationLadder
from repro.service.queues import TaskQueues
from repro.service.slo import SLOTracker, build_service_doc
from repro.service.traffic import Arrival, ReplayTraffic, make_traffic
from repro.workload.trace import ArrivalTrace

__all__ = ["ServiceConfig", "ServiceEngine", "ServiceRun", "service_run"]

#: the service's event kind: an open-loop task arrival
_ARRIVAL = FIRST_EXTRA_KIND


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Everything a service run depends on (with the chaos plan).

    The defaults are a moderately loaded service; :meth:`smoke` is the
    tuned CI scenario (flash crowd + crash burst) whose degradation
    timeline must enter ``shedding`` during the burst and return to
    ``healthy`` after it — see ``docs/SERVICE.md``.
    """

    n: int = 16
    horizon: float = 80.0
    f: float = 1.3
    delta: int = 2
    C: int = 4
    seed: int = 0
    latency: float = 0.1
    snapshot_dt: float = 0.5
    consume: float = 0.45          # per-action consume probability
    # traffic
    traffic: str = "poisson"
    rate: float = 4.5              # network-wide arrivals per time unit
    burst_at: float = 25.0
    burst_duration: float = 10.0
    burst_mult: float = 4.0
    period: float = 40.0
    critical_frac: float = 0.8
    # bounded queues + admission
    queue_cap: int = 6
    admission_rate: float = 12.0   # sustained admits per time unit
    admission_burst: float = 36.0
    # chaos (used when a run asks for it)
    crash_frac: float = 0.25
    message_loss: float = 0.01

    @classmethod
    def smoke(cls, *, seed: int = 0) -> "ServiceConfig":
        """The CI smoke scenario: a flash crowd over a crash burst."""
        return cls(traffic="bursty", seed=seed)

    def params(self) -> LBParams:
        return LBParams(f=self.f, delta=self.delta, C=self.C)

    def chaos_plan(self) -> FaultPlan:
        """The standard chaos composition: crash a fraction of the
        network for the duration of the traffic burst window."""
        return FaultPlan.crash_burst(
            self.n,
            self.crash_frac,
            at=self.burst_at,
            duration=self.burst_duration,
            seed=self.seed,
            message_loss=self.message_loss,
        )

    def describe(self) -> dict:
        return {
            "n": self.n,
            "horizon": self.horizon,
            "f": self.f,
            "delta": self.delta,
            "C": self.C,
            "seed": self.seed,
            "latency": self.latency,
            "snapshot_dt": self.snapshot_dt,
            "consume": self.consume,
            "traffic": self.traffic,
            "rate": self.rate,
            "queue_cap": self.queue_cap,
            "admission_rate": self.admission_rate,
            "admission_burst": self.admission_burst,
        }


class ServiceEngine(AsyncEngine):
    """The asynchronous engine operating real task queues.

    Requires a *consume-only* rate provider (``g == 0``): in service
    mode every unit of work enters through the admitted arrival stream,
    never through the closed-loop generate path.

    Under the conditions of :class:`AsyncEngine`, with the stock
    admission controller, token bucket and task queues (wired to each
    other) and a rate table that never generates, the run takes the
    compiled event walk (:mod:`repro.core.event_walk`): arrivals,
    admission and the task queues in C, the snapshot hooks in Python.
    """

    _WALK_MODE = "service"

    def __init__(
        self,
        params: LBParams,
        rates,
        *,
        queues: TaskQueues,
        admission: AdmissionController,
        slo: SLOTracker | None = None,
        telemetry=None,
        **kwargs,
    ) -> None:
        super().__init__(params, rates, **kwargs)
        g0, _ = rates.rates(0.0)
        if float(np.max(g0)) > 0.0:
            raise ValueError(
                "ServiceEngine needs a consume-only rate provider "
                "(g == 0); arrivals are the only way work enters"
            )
        self.queues = queues
        self.admission = admission
        self.slo = slo if slo is not None else SLOTracker(params)
        self.ladder = DegradationLadder(
            admission=admission, engine=self, tracer=self.tracer
        )
        # service_shed batching: emitted counts so far, by reason
        self._shed_emitted = dict.fromkeys(admission.shed, 0)
        self._depth_sheds_seen = 0
        # live telemetry: read-only sampling at snapshot boundaries;
        # None costs one branch per snapshot and changes nothing else
        # (the telemetry-on/off golden test pins bit-identity)
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.bind_service(self)
        # every scheduled arrival; an arrival event carries its row
        self._arrivals: list[Arrival] = []
        g_table = getattr(rates, "g_table", g0)
        if self._walk is None and not (
            type(queues) is TaskQueues
            and type(admission) is AdmissionController
            and type(admission.bucket) is TokenBucket
            and admission.queues is queues
            and not np.any(g_table)
        ):
            self._walk = False

    # -- arrivals ---------------------------------------------------------

    def schedule_arrivals(self, arrivals: list[Arrival]) -> None:
        """Push the pre-generated arrival schedule onto the event queue
        (call before :meth:`run`)."""
        row = len(self._arrivals)
        self._arrivals.extend(arrivals)
        push = self.queue.push
        for k, a in enumerate(arrivals, row):
            push(a.time, (_ARRIVAL, a.targets[0], a, k))

    def _kind_name(self, kind: int) -> str:
        if kind == _ARRIVAL:
            return "arrival"
        return super()._kind_name(kind)

    def _dispatch_extra(self, kind: int, payload: tuple) -> None:
        if kind == _ARRIVAL:
            self._handle_arrival(payload[2])
        else:  # pragma: no cover - no other extra kinds exist
            super()._dispatch_extra(kind, payload)

    def _handle_arrival(self, arrival: Arrival) -> None:
        # route on the load vector: it equals the live queue depths at
        # every event boundary (see repro.service.queues)
        admitted, target, _reason = self.admission.decide(
            self.time, arrival, self.l
        )
        if not admitted:
            return
        self.queues.push(target, self.time)
        self.l[target] += 1
        # an arrival is load-changing work: give the receiving processor
        # an immediate chance to trigger a balancing operation, unless
        # it is dark (a crashed processor's queue accepts work but the
        # processor itself initiates nothing)
        if self.faults is None or not self.faults.crashed(target, self.time):
            self._maybe_initiate(target)

    @classmethod
    def _probe_event_walk(cls, fn, bitgen_cls) -> bool:
        """A short seeded service run through the walk and through the
        Python handlers: bucket, depth and brown-out sheds, the ladder's
        knob changes, contended operations with retries, migrations.
        Loads, counters, queues, sojourns, admission, the SLO series, the
        ladder timeline and RNG state must agree: everything the service
        document is built from (building it would pull numpy's
        percentile machinery into every first run)."""
        cfg = _PROBE_CONFIG
        arrivals = _traffic(cfg).arrivals(cfg.horizon)
        runs = []
        for walked in (True, False):
            engine = _engine(cfg, None, seed=np.random.Generator(bitgen_cls(cfg.seed)))
            engine._walk = EventWalk(fn, engine) if walked else False
            engine.schedule_arrivals(arrivals)
            runs.append((engine, engine.run(cfg.horizon)))
        (a, ra), (b, rb) = runs
        return (
            same_run(a, b, ra, rb)
            and a.slo.series() == b.slo.series()
            and a.ladder.transitions == b.ladder.transitions
        )

    # -- hook overrides ---------------------------------------------------

    def _on_generate(self, i: int) -> None:  # pragma: no cover - guarded
        raise RuntimeError(
            "service engine saw a closed-loop generate; the rate "
            "provider must be consume-only"
        )

    def _on_consume(self, i: int) -> None:
        self.queues.pop_oldest(i, self.time)

    def _post_balance(
        self, alive: Sequence[int], before: Sequence[int], after: Sequence[int]
    ) -> None:
        self.queues.migrate(alive, before, after)

    def _on_snapshot(self, t: float, loads: np.ndarray) -> None:
        hot = self.queues.hot_fraction(HIGH_WATERMARK)
        depth_sheds = self.admission.shed["depth"] - self._depth_sheds_seen
        self._depth_sheds_seen = self.admission.shed["depth"]
        # the recorded state covers the interval *ending* at this
        # snapshot; the ladder then reacts for the next interval
        self.slo.observe(t, loads, hot=hot, state=self.ladder.state)
        self.ladder.evaluate(t, hot, depth_sheds)
        if self._trace:
            fresh = {
                reason: self.admission.shed[reason] - self._shed_emitted[reason]
                for reason in self.admission.shed
            }
            if any(fresh.values()):
                self.tracer.emit(
                    "service_shed",
                    time=float(t),
                    brownout=int(fresh["brownout"]),
                    bucket=int(fresh["bucket"]),
                    depth=int(fresh["depth"]),
                )
                self._shed_emitted = dict(self.admission.shed)
        if self.telemetry is not None:
            self.telemetry.sample(t, loads)


@dataclass(frozen=True, slots=True)
class ServiceRun:
    """Everything a finished service run produced."""

    doc: dict
    result: AsyncResult
    engine: ServiceEngine
    trace: ArrivalTrace

    @property
    def timeline(self) -> list[dict]:
        return self.doc["timeline"]


def service_run(
    cfg: ServiceConfig,
    *,
    chaos: bool | FaultPlan = False,
    replay: ArrivalTrace | None = None,
    monitors=None,
    tracer=None,
    profiler=None,
    telemetry=None,
) -> ServiceRun:
    """Run one service episode end to end; return the document + parts.

    ``chaos=True`` composes the config's standard crash-burst plan
    (:meth:`ServiceConfig.chaos_plan`); pass a :class:`FaultPlan` for a
    custom one.  ``replay`` substitutes a recorded arrival trace for
    the generated traffic (``repro serve --replay``); the returned
    :attr:`ServiceRun.trace` always holds the *offered* stream so any
    run can be re-recorded (``--record``).  ``telemetry`` attaches a
    :class:`~repro.observability.telemetry.TelemetrySampler`, sampled
    read-only at every snapshot boundary (``repro serve --telemetry``);
    like the other observers it cannot change the run's results.
    """
    if replay is not None:
        if replay.n != cfg.n:
            raise ValueError(
                f"replay trace has n={replay.n}, config has n={cfg.n}"
            )
        traffic = ReplayTraffic(replay)
    else:
        traffic = _traffic(cfg)
    arrivals = traffic.arrivals(cfg.horizon)

    if chaos is True:
        plan: FaultPlan | None = cfg.chaos_plan()
    elif chaos is False:
        plan = None
    else:
        plan = chaos

    engine = _engine(
        cfg,
        plan,
        seed=cfg.seed,
        monitors=monitors,
        tracer=tracer,
        profiler=profiler,
        telemetry=telemetry,
    )
    engine.schedule_arrivals(arrivals)
    result = engine.run(cfg.horizon)

    doc = build_service_doc(
        config=cfg.describe(),
        traffic=traffic.describe(),
        slo=engine.slo,
        queues=engine.queues,
        admission=engine.admission,
        ladder=engine.ladder,
        result=result,
        horizon=cfg.horizon,
        chaos=_plan_summary(plan) if plan is not None else None,
    )
    trace = ArrivalTrace.from_arrivals(cfg.n, arrivals)
    return ServiceRun(doc=doc, result=result, engine=engine, trace=trace)


def _traffic(cfg: ServiceConfig):
    return make_traffic(
        cfg.traffic,
        cfg.n,
        cfg.rate,
        seed=cfg.seed,
        burst_at=cfg.burst_at,
        burst_duration=cfg.burst_duration,
        burst_mult=cfg.burst_mult,
        period=cfg.period,
        critical_frac=cfg.critical_frac,
    )


def _engine(cfg: ServiceConfig, plan: FaultPlan | None, **kwargs) -> ServiceEngine:
    """The engine of one episode, its queues and admission wired up."""
    params = cfg.params()
    rates = ConstantRates(
        np.zeros(cfg.n), np.full(cfg.n, cfg.consume)
    )
    queues = TaskQueues(cfg.n, cfg.queue_cap)
    admission = AdmissionController(
        TokenBucket(cfg.admission_rate, cfg.admission_burst), queues
    )
    return ServiceEngine(
        params,
        rates,
        queues=queues,
        admission=admission,
        slo=SLOTracker(params),
        latency=cfg.latency,
        snapshot_dt=cfg.snapshot_dt,
        faults=plan,
        **kwargs,
    )


# the walk's first-use probe: a small, overloaded service whose queues
# fill within the first interval (depth sheds put the ladder in
# shedding, so the brown-out and the widened trigger act), with a
# latency long enough that partners are often busy
_PROBE_CONFIG = ServiceConfig(
    n=8, horizon=6.0, seed=28, latency=0.3, traffic="bursty", rate=18.0,
    burst_at=1.5, burst_duration=2.0, burst_mult=2.0, queue_cap=3,
    admission_rate=12.0, admission_burst=6.0,
)


def _plan_summary(plan: FaultPlan) -> dict:
    """A compact, JSON-friendly view of a fault plan for the doc."""
    return {
        "crashes": len(plan.crashes),
        "stragglers": len(plan.stragglers),
        "message_loss": plan.message_loss,
        "seed": plan.seed,
    }
