"""Streaming conformance monitors: the paper's theorems checked live.

The experiment scripts (``experiments/figures.py``, ``metrics/band``)
verify the paper's guarantees *after* a run; this module checks them
*while the system runs*.  A :class:`Monitor` is a small incremental
statistic subscribed to the driver's per-tick load snapshot (or the
asynchronous engine's periodic snapshots); when its paper bound is
violated it records a :class:`Breach` — severity, offending processors,
the value and the bound — and, when a tracer is attached, emits a
schema-registered ``monitor_breach`` event at the tick it happened.
When the statistic re-enters its band the episode closes with a
:class:`Recovery` / ``monitor_recover`` event.

The stock suite (:meth:`MonitorSuite.standard`) covers:

* :class:`Theorem4BandMonitor` — the Theorem 3/4 band: the normalised
  extreme ratio ``rho(t) = max_i l_i / (min_j l_j + C)`` must stay
  inside ``f^2 * delta/(delta+1-f)``.  The theorem bounds
  *expectations*, and a single sample path makes brief excursions even
  on a clean run (measured: isolated streaks of <= 3 snapshots), so a
  breach is declared only after ``grace`` *consecutive* out-of-band
  snapshots and is timestamped at the start of the streak; recovery
  fires at the first in-band snapshot afterwards.
* :class:`FixpointMonitor` — Theorems 1/2: the *running mean* of
  ``rho`` (the empirical stand-in for the expected-load ratio
  ``E(l_1)/E(l_i)``) must settle near the fixpoint, below
  ``f^2 * FIX(n, delta, f) * slack``.  Checked only on busy snapshots
  (mean load >= ``min_mean``) after a ``warmup`` — the ratio of a
  nearly-empty network is noise, and the fixpoint is a steady-state
  statement.
* :class:`VariationMonitor` — §5 variation density: Welford online
  moments of the per-snapshot load variation ``std/mean`` over busy
  snapshots; breach when the running mean exceeds ``limit``.
* :class:`ConservationMonitor` — the engine's exact ledger laws, every
  tick: ``l == row sums of d``, ``sum l == generated - consumed``,
  ``sum b == borrows - repayments - settlements``, and the per-entry
  capacity law ``b[i][j] <= 1`` (the one-debt-per-class rule keeps
  entries 0/1; row sums may transiently exceed ``C`` after a re-deal,
  so the row-sum form is intentionally not a law).  Synchronous engine
  only (the practical asynchronous variant has no ledgers); any
  violation is an instrumentation-or-algorithm bug, severity
  ``critical``.
* :class:`OpBudgetMonitor` — Lemma 5/6 operation-rate budget.  Every
  balancing operation is preceded by exactly one local load change
  (a generate, a consume of an own-class packet, or a simulated
  decrease), so ``total_ops <= generated + consumed + decrease_sim``
  must hold at every tick.  Synchronous engine only.

Monitors allocate nothing per tick beyond O(n) numpy reductions,
consume no randomness, and never mutate engine state — a run with
monitors attached is bit-identical (RNG stream, non-monitor events,
final loads) to the same run without them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.metrics.band import extreme_ratio
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.params import LBParams
from repro.theory.bounds import theorem4_bound
from repro.theory.fixpoint import fix

__all__ = [
    "Breach",
    "Recovery",
    "Monitor",
    "Theorem4BandMonitor",
    "FixpointMonitor",
    "VariationMonitor",
    "ConservationMonitor",
    "OpBudgetMonitor",
    "MonitorSuite",
]


@dataclass(frozen=True, slots=True)
class Breach:
    """One conformance violation: which monitor, when, how far out."""

    monitor: str
    t: float
    severity: str          # "warn" (statistical band) | "critical" (exact law)
    value: float
    bound: float
    procs: tuple[int, ...]  # offending processors ([] = network-wide)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["procs"] = list(self.procs)
        return d


@dataclass(frozen=True, slots=True)
class Recovery:
    """A breached statistic re-entered its band."""

    monitor: str
    t: float
    value: float
    bound: float
    ticks_out: int         # snapshots spent out of band

    def as_dict(self) -> dict:
        return asdict(self)


class Monitor:
    """Base class: one incrementally-tracked conformance statistic.

    Subclasses set :attr:`name` / :attr:`severity` and implement
    :meth:`observe`; they report via :meth:`_breach` / :meth:`_recover`
    which forward to the owning :class:`MonitorSuite`.
    """

    name = "monitor"
    severity = "warn"

    def __init__(self) -> None:
        self._sink: MonitorSuite | None = None
        self.samples = 0
        self.breach_count = 0

    def observe(self, t: float, loads: np.ndarray, engine=None) -> None:
        raise NotImplementedError

    def verdict(self) -> dict:
        """Plain-data end-of-run summary for reports."""
        return {
            "monitor": self.name,
            "ok": self.breach_count == 0,
            "breaches": self.breach_count,
            "samples": self.samples,
            **self._stats(),
        }

    def _stats(self) -> dict:
        return {}

    def _breach(
        self, t: float, value: float, bound: float, procs: tuple[int, ...] = ()
    ) -> None:
        self.breach_count += 1
        if self._sink is not None:
            self._sink._record_breach(
                Breach(self.name, float(t), self.severity, float(value),
                       float(bound), tuple(int(p) for p in procs))
            )

    def _recover(self, t: float, value: float, bound: float, ticks_out: int) -> None:
        if self._sink is not None:
            self._sink._record_recovery(
                Recovery(self.name, float(t), float(value), float(bound),
                         int(ticks_out))
            )


class Theorem4BandMonitor(Monitor):
    """Instantaneous Theorem-4 band check with streak hysteresis."""

    name = "theorem4_band"
    severity = "warn"

    def __init__(
        self, params: LBParams, *, grace: int = 4, min_mean: float = 0.0
    ) -> None:
        super().__init__()
        if grace < 1:
            raise ValueError(f"grace must be >= 1, got {grace}")
        # f^2 * delta/(delta+1-f), the size-free Theorem 3/4 band
        self.band = theorem4_bound(None, params.delta, params.f)
        self.C = params.C
        self.grace = grace
        self.min_mean = min_mean
        self.worst = 0.0
        self._streak = 0
        self._streak_start = 0.0
        self._open = False

    def observe(self, t: float, loads: np.ndarray, engine=None) -> None:
        self.samples += 1
        rho = float(extreme_ratio(loads, self.C))
        if rho > self.worst:
            self.worst = rho
        out = rho > self.band and float(loads.mean()) >= self.min_mean
        if out:
            if self._streak == 0:
                self._streak_start = t
            self._streak += 1
            if not self._open and self._streak >= self.grace:
                self._open = True
                self._breach(
                    self._streak_start, rho, self.band,
                    (int(loads.argmax()), int(loads.argmin())),
                )
        else:
            if self._open:
                self._open = False
                self._recover(t, rho, self.band, self._streak)
            self._streak = 0

    def _stats(self) -> dict:
        return {"bound": self.band, "worst": self.worst, "open": self._open}


class FixpointMonitor(Monitor):
    """Theorem 1/2: running-mean extreme ratio vs the fixpoint."""

    name = "fixpoint"
    severity = "warn"

    def __init__(
        self,
        params: LBParams,
        *,
        slack: float = 1.25,
        warmup: int = 50,
        min_mean: float = 1.0,
    ) -> None:
        super().__init__()
        self.params = params
        self.slack = slack
        self.warmup = warmup
        self.min_mean = min_mean
        self.C = params.C
        self._sum = 0.0
        self._busy = 0
        self._bound: float | None = None   # needs n, known at first observe
        self._open = False
        self._out = 0
        self._out_start = 0.0

    @property
    def estimate(self) -> float:
        return self._sum / self._busy if self._busy else 0.0

    def observe(self, t: float, loads: np.ndarray, engine=None) -> None:
        self.samples += 1
        if self._bound is None:
            f, delta = self.params.f, self.params.delta
            self._bound = f * f * fix(len(loads), delta, f) * self.slack
        if float(loads.mean()) < self.min_mean:
            return
        self._busy += 1
        self._sum += float(extreme_ratio(loads, self.C))
        if self._busy <= self.warmup:
            return
        est = self.estimate
        if est > self._bound:
            if not self._open:
                self._open = True
                self._out = 0
                self._out_start = t
                self._breach(t, est, self._bound)
            self._out += 1
        elif self._open:
            self._open = False
            self._recover(t, est, self._bound, self._out)

    def _stats(self) -> dict:
        return {
            "bound": self._bound if self._bound is not None else 0.0,
            "estimate": self.estimate,
            "busy_samples": self._busy,
        }


class VariationMonitor(Monitor):
    """§5 variation density via Welford online moments."""

    name = "variation"
    severity = "warn"

    def __init__(
        self, *, limit: float = 1.0, warmup: int = 20, min_mean: float = 1.0
    ) -> None:
        super().__init__()
        self.limit = limit
        self.warmup = warmup
        self.min_mean = min_mean
        # Welford accumulators over the per-snapshot variation density
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.worst = 0.0
        self._open = False
        self._out = 0

    @property
    def variance(self) -> float:
        return self._m2 / self._count if self._count else 0.0

    def observe(self, t: float, loads: np.ndarray, engine=None) -> None:
        self.samples += 1
        x = loads.astype(float)
        mean = float(x.mean())
        if mean < self.min_mean:
            return
        vd = float(x.std()) / mean
        if vd > self.worst:
            self.worst = vd
        self._count += 1
        delta = vd - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (vd - self._mean)
        if self._count <= self.warmup:
            return
        if self._mean > self.limit:
            if not self._open:
                self._open = True
                self._out = 0
                self._breach(t, self._mean, self.limit)
            self._out += 1
        elif self._open:
            self._open = False
            self._recover(t, self._mean, self.limit, self._out)

    def _stats(self) -> dict:
        return {
            "bound": self.limit,
            "mean_vd": self._mean,
            "var_vd": self.variance,
            "worst": self.worst,
        }


class ConservationMonitor(Monitor):
    """Exact ledger conservation laws, checked every tick.

    Requires the synchronous :class:`~repro.core.engine.Engine` (passed
    as ``engine``); snapshots without one (asynchronous runs, baseline
    balancers) are skipped.  Each law breaches at most once — once a
    conservation law is broken it stays broken.
    """

    name = "conservation"
    severity = "critical"

    def __init__(self) -> None:
        super().__init__()
        self._tripped: set[str] = set()
        self.checked = 0

    def _trip(self, law: str, t: float, value: float, bound: float,
              procs: tuple[int, ...] = ()) -> None:
        if law not in self._tripped:
            self._tripped.add(law)
            self._breach(t, value, bound, procs)

    def observe(self, t: float, loads: np.ndarray, engine=None) -> None:
        self.samples += 1
        if engine is None or not hasattr(engine, "d"):
            return
        self.checked += 1
        # law 1: real load == row sums of d
        if not np.array_equal(engine.d.row_sums, engine.l):
            bad = np.nonzero(engine.d.row_sums != engine.l)[0]
            self._trip(
                "rowsum", t, float(engine.l[bad[0]]),
                float(engine.d.row_sums[bad[0]]), tuple(bad[:4]),
            )
        # law 2: total real load == generated - consumed
        net = engine.total_generated - engine.total_consumed
        total = int(engine.l.sum())
        if total != net:
            self._trip("netload", t, float(total), float(net))
        # law 3: debt ledger closes
        c = engine.counters
        expect = c.total_borrow - c.repayments - c.debts_settled
        if engine.b.total() != expect:
            self._trip("debt", t, float(engine.b.total()), float(expect))
        # law 4: every debt entry b[i][j] is 0 or 1.  The appendix's
        # one-debt-per-class rule creates entries of 1 only, and every
        # re-deal spreads a column of such entries over at least as
        # many processors.  (The *row sum* is gated at C only at borrow
        # time and legitimately exceeds C for a few ticks when a snake
        # re-deal concentrates several participants' markers on one
        # processor, so the row-sum form is deliberately not a law here.)
        cap = 1
        worst, bad_proc = 0, -1
        if engine.b.diag.size:
            k = int(engine.b.diag.argmax())
            worst, bad_proc = int(engine.b.diag[k]), k
        for i, row in enumerate(engine.b.rows):
            for v in row.values():
                if v > worst:
                    worst, bad_proc = int(v), i
        if worst > cap:
            self._trip(
                "capacity", t, float(worst), float(cap),
                (bad_proc,) if bad_proc >= 0 else (),
            )

    def _stats(self) -> dict:
        return {"checked": self.checked, "laws_broken": sorted(self._tripped)}


class OpBudgetMonitor(Monitor):
    """Lemma 5/6 budget: ops never outrun the local load changes.

    A balancing operation fires only when a trigger check follows a
    local load change — a generate, an own-class consume, or a
    simulated decrease — and each change fires at most one operation,
    so cumulatively ``total_ops <= generated + consumed + decrease_sim``.
    Synchronous engine only.
    """

    name = "op_budget"
    severity = "critical"

    def __init__(self) -> None:
        super().__init__()
        self._tripped = False
        self.last_ops = 0
        self.last_budget = 0

    def observe(self, t: float, loads: np.ndarray, engine=None) -> None:
        self.samples += 1
        if engine is None or not hasattr(engine, "total_ops") or not hasattr(
            engine, "counters"
        ):
            return
        ops = int(engine.total_ops)
        budget = (
            int(engine.total_generated)
            + int(engine.total_consumed)
            + int(engine.counters.decrease_sim)
        )
        self.last_ops, self.last_budget = ops, budget
        if ops > budget and not self._tripped:
            self._tripped = True
            self._breach(t, float(ops), float(budget))

    def _stats(self) -> dict:
        return {"ops": self.last_ops, "budget": self.last_budget}


class MonitorSuite:
    """A set of monitors sharing one breach log and one tracer.

    Pass the suite to :func:`repro.simulation.driver.run_simulation`
    (``monitors=``) or to :class:`~repro.core.async_engine.AsyncEngine`;
    the driver feeds it every per-tick snapshot, the asynchronous
    engine every periodic snapshot.  With a tracer attached, breaches
    and recoveries are also emitted as ``monitor_breach`` /
    ``monitor_recover`` events interleaved with the run's event stream.
    """

    def __init__(
        self, monitors: list[Monitor] | tuple[Monitor, ...],
        *, tracer: Tracer | None = None,
    ) -> None:
        self.monitors = list(monitors)
        names = [m.name for m in self.monitors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate monitor names: {names}")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = bool(self.tracer.enabled)
        self.breaches: list[Breach] = []
        self.recoveries: list[Recovery] = []
        # grace windows (see grace()): [start, end) intervals during
        # which statistical ("warn") monitors are not fed
        self._grace_until = float("-inf")
        self.suppressed_snapshots = 0
        for m in self.monitors:
            m._sink = self

    @classmethod
    def standard(
        cls, params: LBParams, *, tracer: Tracer | None = None
    ) -> "MonitorSuite":
        """The full stock suite (see module docstring for each check)."""
        return cls(
            [
                Theorem4BandMonitor(params),
                FixpointMonitor(params),
                VariationMonitor(),
                ConservationMonitor(),
                OpBudgetMonitor(),
            ],
            tracer=tracer,
        )

    # -- feeding ---------------------------------------------------------

    def grace(self, t: float, duration: float) -> None:
        """Open (or extend) a grace window: ``[t, t + duration)``.

        The dynamic-network runtime calls this around every applied
        churn event (see :mod:`repro.dynnet`): a topology change or a
        node leaving legitimately throws the statistical bands for a
        moment, and a breach alarm for it would be noise.  During the
        window :meth:`observe` skips every ``severity == "warn"``
        monitor — their internal streaks neither grow nor reset, as if
        the snapshots never happened — while ``critical`` monitors
        (exact conservation laws, which no amount of churn may break)
        keep observing every snapshot.  Windows never shrink: a later
        call can only extend the current horizon.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        end = float(t) + float(duration)
        if end > self._grace_until:
            self._grace_until = end

    def in_grace(self, t: float) -> bool:
        """True while ``t`` is inside an open grace window."""
        return t < self._grace_until

    def observe(self, t: float, loads: np.ndarray, engine=None) -> None:
        """Feed one load snapshot (and optionally the live engine).

        Inside a grace window only ``critical`` monitors observe; the
        skip is counted in :attr:`suppressed_snapshots`.
        """
        if self.in_grace(t):
            self.suppressed_snapshots += 1
            for m in self.monitors:
                if m.severity == "critical":
                    m.observe(t, loads, engine)
            return
        for m in self.monitors:
            m.observe(t, loads, engine)

    # -- recording (called by monitors) ----------------------------------

    def _record_breach(self, breach: Breach) -> None:
        self.breaches.append(breach)
        if self._trace:
            self.tracer.emit(
                "monitor_breach",
                t=float(breach.t),
                monitor=breach.monitor,
                severity=breach.severity,
                value=float(breach.value),
                bound=float(breach.bound),
                procs=list(breach.procs),
            )

    def _record_recovery(self, rec: Recovery) -> None:
        self.recoveries.append(rec)
        if self._trace:
            self.tracer.emit(
                "monitor_recover",
                t=float(rec.t),
                monitor=rec.monitor,
                value=float(rec.value),
                bound=float(rec.bound),
                ticks_out=int(rec.ticks_out),
            )

    # -- reporting -------------------------------------------------------

    def ok(self) -> bool:
        return not self.breaches

    def verdicts(self) -> list[dict]:
        return [m.verdict() for m in self.monitors]

    def render(self) -> str:
        """ASCII verdict table plus the breach log."""
        from repro.experiments.report import render_table

        rows = []
        for v in self.verdicts():
            bound = v.get("bound")
            rows.append(
                [
                    v["monitor"],
                    "OK" if v["ok"] else "BREACH",
                    v["breaches"],
                    v["samples"],
                    f"{bound:.3f}" if isinstance(bound, float) else "-",
                ]
            )
        out = [render_table(["monitor", "verdict", "breaches", "samples", "bound"], rows)]
        for b in self.breaches:
            out.append(
                f"  breach [{b.severity}] {b.monitor} at t={b.t:g}: "
                f"value {b.value:.3f} vs bound {b.bound:.3f}"
                + (f" (procs {list(b.procs)})" if b.procs else "")
            )
        for r in self.recoveries:
            out.append(
                f"  recover {r.monitor} at t={r.t:g}: value {r.value:.3f} "
                f"back inside {r.bound:.3f} after {r.ticks_out} snapshots out"
            )
        return "\n".join(out)
