"""Resilience experiment: crash-burst recovery of the asynchronous engine.

The scenario is the end-of-computation hazard a dynamic balancer must
survive: the workload ramps up, runs steady, then tapers (consumption
outpaces generation) — and during the taper a crash burst takes a
fraction of the processors dark, stranding their queued work exactly
when the healthy processors begin to starve.  Theorem 4 promises that
in steady state the normalised extreme load ratio

    ``rho(t) = max_i l_i(t) / (min_j l_j(t) + C)``

stays inside the band ``f^2 * delta/(delta+1-f)``; the burst throws
``rho`` far out of the band (the victims' frozen queues become the
maximum while the survivors drain), and the experiment measures the
spike height and the time until ``rho`` re-enters the band after the
victims recover and the balancer redistributes the stranded work.

A fault-free run of the *same* workload is recorded alongside as the
baseline: its ratio never leaves the band, so the spike and the
recovery are attributable to the injected faults alone.  Everything is
deterministic in ``(seed, plan)``; ``repro chaos`` is the CLI wrapper
and ``results/resilience.json`` the canonical artifact (its contract
is :data:`RESILIENCE_SHAPE`, checked by
:func:`repro.simulation.serialize.check_document`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.async_engine import STUDY_COUNTERS
from repro.faults.plan import FaultPlan, Partition, StragglerWindow
from repro.metrics.band import extreme_ratio, max_mean_ratio, recovery_report
from repro.params import LBParams
from repro.simulation.serialize import NUMBER, Nullable, Series, Shape, check_document
from repro.theory.bounds import theorem4_bound

__all__ = [
    "SCENARIOS",
    "RESILIENCE_SHAPE",
    "ResilienceConfig",
    "resilience_experiment",
    "render_resilience",
]

#: bump when the document layout changes incompatibly
RESILIENCE_SCHEMA_VERSION = 1

#: named fault scenarios ``repro chaos --plan`` selects; all reuse the
#: burst window ``[burst_at, burst_at + burst_duration)`` so the
#: recovery report's spike/reentry framing applies unchanged
SCENARIOS = ("crash_burst", "stragglers", "partition", "lossy")


@dataclass(frozen=True, slots=True)
class ResilienceConfig:
    """Knobs of the crash-burst scenario (times in model time units).

    The workload phases are ``[0, ramp_end)`` generation-heavy,
    ``[ramp_end, taper_start)`` steady (``g == c``), and
    ``[taper_start, horizon)`` draining.  The burst must sit inside the
    taper for the stranded-work story above to apply, but nothing
    enforces that — out-of-phase bursts are legitimate ablations.
    """

    n: int = 32
    horizon: float = 80.0
    scenario: str = "crash_burst"
    crash_frac: float = 0.1
    burst_at: float = 30.0
    burst_duration: float = 15.0
    message_loss: float = 0.01
    straggler_factor: float = 1.0   # 1.0 = no stragglers
    latency: float = 0.1
    snapshot_dt: float = 0.5
    ramp_end: float = 20.0
    taper_start: float = 25.0
    f: float = 1.3
    delta: int = 2
    C: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown plan {self.scenario!r} "
                f"(known plans: {', '.join(SCENARIOS)})"
            )

    def params(self) -> LBParams:
        return LBParams(f=self.f, delta=self.delta, C=self.C)

    def _victims(self) -> list[int]:
        """Deterministic burst victims (same draw as crash_burst)."""
        count = max(1, round(self.n * self.crash_frac))
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, 0x57A6))
        )
        return sorted(int(p) for p in rng.choice(self.n, count, replace=False))

    def plan(self) -> FaultPlan:
        start, end = self.burst_at, self.burst_at + self.burst_duration
        if self.scenario == "stragglers":
            # same victim fraction, but slowed instead of killed: their
            # in-flight operations stretch rather than strand
            factor = self.straggler_factor if self.straggler_factor > 1.0 else 8.0
            return FaultPlan(
                stragglers=tuple(
                    StragglerWindow(proc=p, start=start, end=end, factor=factor)
                    for p in self._victims()
                ),
                message_loss=self.message_loss,
            )
        if self.scenario == "partition":
            # cut the victim set off from the rest for the burst window
            return FaultPlan(
                partitions=(
                    Partition(
                        start=start, end=end,
                        groups=(tuple(self._victims()),),
                    ),
                ),
                message_loss=self.message_loss,
            )
        if self.scenario == "lossy":
            # no structural faults, just a harshly lossy network for
            # the whole run (completions and partner joins both drop)
            return FaultPlan(message_loss=max(self.message_loss, 0.15))
        stragglers = ()
        if self.straggler_factor > 1.0:
            # slow down processor 0 for the burst window (a crashed
            # victim straggling is harmless: it initiates nothing)
            stragglers = (
                StragglerWindow(
                    proc=0,
                    start=self.burst_at,
                    end=self.burst_at + self.burst_duration,
                    factor=self.straggler_factor,
                ),
            )
        return FaultPlan.crash_burst(
            self.n,
            self.crash_frac,
            at=self.burst_at,
            duration=self.burst_duration,
            seed=self.seed,
            message_loss=self.message_loss,
            stragglers=stragglers,
        )

    def engine(self, faults: FaultPlan | None, **observers):
        """The scenario's :class:`~repro.core.async_engine.AsyncEngine`.

        ``faults`` is :meth:`plan` for the faulted arm or ``None`` for
        the fault-free baseline; ``observers`` (``tracer=``,
        ``profiler=``, ``monitors=``) attach to the engine unchanged.
        """
        from repro.core.async_engine import AsyncEngine

        return AsyncEngine(
            self.params(),
            _phased_rates(self),
            latency=self.latency,
            snapshot_dt=self.snapshot_dt,
            seed=self.seed,
            faults=faults,
            **observers,
        )


def _phased_rates(cfg: ResilienceConfig):
    """Ramp / steady / taper rate tables for the scenario above.

    Entries are per-action *probabilities* (each processor's Poisson
    action clock ticks at rate 1): ramp generates at 0.95 vs consume
    0.05 (net +0.9 load per time unit), steady is 0.5/0.5, taper
    drains at net −0.8 per time unit.
    """
    from repro.core.async_engine import TableRates

    steps = int(np.ceil(cfg.horizon)) + 1
    g = np.full((steps, cfg.n), 0.5)
    c = np.full((steps, cfg.n), 0.5)
    t = np.arange(steps)[:, None]
    ramp = (t < cfg.ramp_end).repeat(cfg.n, axis=1)
    taper = (t >= cfg.taper_start).repeat(cfg.n, axis=1)
    g[ramp], c[ramp] = 0.95, 0.05
    g[taper], c[taper] = 0.1, 0.9
    return TableRates(g, c)


def _run(cfg: ResilienceConfig, plan: FaultPlan | None) -> dict:
    res = cfg.engine(plan).run(cfg.horizon)
    report = recovery_report(
        res.times,
        res.loads,
        cfg.params(),
        burst_start=cfg.burst_at,
        burst_end=cfg.burst_at + cfg.burst_duration,
    )
    return {
        "report": report.as_dict(),
        "counters": {**res.counters(), "fault_stats": res.fault_stats},
        "series": {
            "times": [float(t) for t in res.times],
            "extreme_ratio": [
                float(r) for r in extreme_ratio(res.loads, cfg.C)
            ],
            "max_mean": [float(r) for r in max_mean_ratio(res.loads)],
        },
    }


def _run_task(args: tuple) -> dict:
    """One (config, plan-or-None) run (module-level so it pickles)."""
    cfg, plan = args
    return _run(cfg, plan)


def resilience_experiment(
    cfg: ResilienceConfig | None = None,
    *,
    backend: str | None = None,
    jobs: int | None = None,
) -> dict:
    """Run the faulted scenario and its fault-free baseline.

    The two runs are independent tasks and execute through the selected
    batch backend (``backend=``/``jobs=``, defaulting to
    ``REPRO_BACKEND``/``REPRO_JOBS`` — see ``docs/BACKENDS.md``); both
    are deterministic in ``(seed, plan)``, so the document is
    bit-identical on every backend.  Returns the
    ``results/resilience.json`` document (plain data, JSON
    serialisable, schema-checked before return) with the executing
    backend recorded under ``"backend"``.
    """
    from repro.simulation.parallel import get_client

    cfg = cfg or ResilienceConfig()
    plan = cfg.plan()
    with get_client(backend, jobs=jobs) as client:
        faulted, baseline = list(
            client.map_ordered(
                _run_task, [(cfg, plan), (cfg, None)], chunksize=1
            )
        )
        used = client.used_backend
    doc = {
        "schema": "repro/resilience",
        "version": RESILIENCE_SCHEMA_VERSION,
        "backend": used,
        "config": asdict(cfg),
        "band": theorem4_bound(None, cfg.delta, cfg.f),
        "plan": plan.to_dict(),
        "faulted": faulted,
        "baseline": baseline,
    }
    problems = check_document(doc, RESILIENCE_SHAPE)
    if problems:  # pragma: no cover - internal consistency guard
        raise RuntimeError(f"resilience document malformed: {problems}")
    return doc


def render_resilience(doc: dict) -> str:
    """ASCII recovery summary of a resilience document."""
    from repro.experiments.report import render_table

    def row(label: str, run: dict) -> list:
        r = run["report"]
        reentry = (
            f"{r['reentry_time']:.2f}" if r["reentry_time"] is not None
            else "never"
        )
        return [
            label,
            *(
                "-" if r[key] is None else f"{r[key]:.3f}"
                for key in ("pre_fault_ratio", "spike_ratio", "spike_max_mean")
            ),
            reentry,
            f"{r['final_ratio']:.3f}",
        ]

    cfg = doc["config"]
    table = render_table(
        ["run", "pre rho", "spike rho", "spike max/mean", "reentry", "final rho"],
        [row("faulted", doc["faulted"]), row("baseline", doc["baseline"])],
    )
    fs = doc["faulted"]["counters"]["fault_stats"] or {}
    head = (
        f"scenario {cfg.get('scenario', 'crash_burst')}: "
        f"{cfg['crash_frac']:.0%} of n={cfg['n']} affected over "
        f"[{cfg['burst_at']:g}, {cfg['burst_at'] + cfg['burst_duration']:g}), "
        f"message loss {cfg['message_loss']:g}, seed {cfg['seed']}, "
        f"backend {doc.get('backend', 'native')}\n"
        f"Theorem-4 band f^2*delta/(delta+1-f) = {doc['band']:.3f}\n"
    )
    tail = (
        f"fault counters: {json.dumps(fs, sort_keys=True)}"
        if fs else "fault counters: (none)"
    )
    return f"{head}\n{table}\n\n{tail}"


_RATIO = Nullable(NUMBER)

#: one run (faulted or baseline) of the resilience document
_RUN_SHAPE = {
    "report": {
        "band": NUMBER,
        "pre_fault_ratio": _RATIO,
        "spike_ratio": _RATIO,
        "spike_max_mean": _RATIO,
        "reentry_time": _RATIO,
        "reentry_snapshots": Nullable(int),
        "final_ratio": NUMBER,
    },
    "counters": {
        **dict.fromkeys(STUDY_COUNTERS, int),
        "fault_stats": Nullable(dict),
    },
    "series": Series(times=[NUMBER], extreme_ratio=[NUMBER], max_mean=[NUMBER]),
}

#: the ``repro/resilience`` document contract
RESILIENCE_SHAPE = Shape(
    "repro/resilience",
    {
        "band": NUMBER,
        "config": dict,
        "plan": dict,
        "faulted": _RUN_SHAPE,
        "baseline": _RUN_SHAPE,
    },
)
