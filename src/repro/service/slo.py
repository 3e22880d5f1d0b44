"""Service-level objectives: what the service *promises*, measured.

The theory chapters bound the load imbalance; a service's users feel
something else — whether their requests got in and how long they
waited.  :class:`SLOTracker` bridges the two by streaming per-snapshot
observations into service-level metrics:

* **time-in-Theorem-4-band** — the fraction of snapshots where the
  instantaneous extreme ratio ``rho = max_i l_i / (min_j l_j + C)``
  stays inside the band ``f^2 * delta/(delta+1-f)``
  (:func:`repro.metrics.band.extreme_ratio`, the statistic
  :class:`~repro.observability.monitors.Theorem4BandMonitor` also
  reads; the tracker computes it itself so its counters are identical
  whether or not monitors are attached — the golden determinism test
  depends on this);
* **sojourn percentiles** — p50/p99 admission-to-completion latency
  from the :class:`~repro.service.queues.TaskQueues` record;
* **admission / shed / completion rates** — the front-door counters
  normalised by the horizon.

The results serialise as ``results/service.json`` (``repro/service``
schema, contract :data:`SERVICE_SHAPE`), render as an ASCII
summary (:func:`render_service`) and as the report's service-run
section (:func:`service_markdown_section` — SLO verdicts, the
degradation-state timeline, and the worst-sojourn waterfall).
"""

from __future__ import annotations

import numpy as np

from repro.core.async_engine import STUDY_COUNTERS
from repro.metrics.band import extreme_ratio
from repro.observability.report import _md_table, sparkline
from repro.params import LBParams
from repro.service.admission import SHED_REASONS
from repro.service.degradation import STATES
from repro.simulation.serialize import NUMBER, Nullable, Series, Shape
from repro.theory.bounds import theorem4_bound

__all__ = [
    "SERVICE_SHAPE",
    "SLOTracker",
    "render_service",
    "service_markdown_section",
]

SERVICE_SCHEMA = "repro/service"
SERVICE_VERSION = 1


class SLOTracker:
    """Accumulate per-snapshot service-level observations.

    Deliberately self-contained: the band check calls
    :func:`~repro.metrics.band.extreme_ratio` instead of reading monitor
    state, so a run with monitors detached produces bit-identical SLO
    counters (the monitors-on/off golden test pins this).
    """

    def __init__(self, params: LBParams) -> None:
        self.band = theorem4_bound(None, params.delta, params.f)
        self.C = params.C
        self.times: list[float] = []
        self.rho: list[float] = []
        self.hot: list[float] = []
        self.states: list[str] = []
        self.in_band = 0

    def observe(
        self, t: float, loads: np.ndarray, *, hot: float, state: str
    ) -> None:
        rho = float(extreme_ratio(loads, self.C))
        self.times.append(float(t))
        self.rho.append(rho)
        self.hot.append(float(hot))
        self.states.append(state)
        if rho <= self.band:
            self.in_band += 1

    @property
    def samples(self) -> int:
        return len(self.times)

    def time_in_band(self) -> float:
        """Fraction of snapshots inside the Theorem-4 band."""
        return self.in_band / self.samples if self.samples else 1.0

    def series(self) -> dict:
        return {
            "times": list(self.times),
            "rho": list(self.rho),
            "hot": list(self.hot),
            "states": list(self.states),
        }


# -- the service document -------------------------------------------------


def build_service_doc(
    *,
    config: dict,
    traffic: dict,
    slo: "SLOTracker",
    queues,
    admission,
    ladder,
    result,
    horizon: float,
    chaos: dict | None,
) -> dict:
    """Assemble the ``repro/service`` document from the run's parts."""
    p50, p99 = queues.sojourn_percentiles(50, 99)
    counters = admission.counters()
    completed = queues.completed
    return {
        "schema": SERVICE_SCHEMA,
        "version": SERVICE_VERSION,
        "config": dict(config),
        "band": slo.band,
        "traffic": dict(traffic),
        "chaos": dict(chaos) if chaos is not None else None,
        "slo": {
            "time_in_band": slo.time_in_band(),
            "band_samples": slo.samples,
            "sojourn_p50": p50,
            "sojourn_p99": p99,
            "offered": counters["offered"],
            "admitted": counters["admitted"],
            "shed": counters["shed"],
            "completed": completed,
            "offered_rate": counters["offered"] / horizon,
            "admitted_rate": counters["admitted"] / horizon,
            "shed_rate": counters["shed"] / horizon,
            "completion_rate": completed / horizon,
            "shed_by_reason": dict(counters["shed_by_reason"]),
        },
        "timeline": ladder.timeline(),
        "time_in_state": ladder.time_in_state(horizon),
        "final_state": ladder.state,
        "worst_sojourns": [
            {"sojourn": s, "at": share}
            for s, share in queues.worst_sojourns()
        ],
        "counters": {
            **result.counters(),
            "migrated_tasks": int(queues.migrated_tasks),
            "fault_stats": result.fault_stats,
        },
        "series": slo.series(),
    }


def _time_in_band_range(doc: dict) -> list[str]:
    slo = doc.get("slo")
    tib = slo.get("time_in_band") if isinstance(slo, dict) else None
    if isinstance(tib, (int, float)) and not 0.0 <= tib <= 1.0:
        return [f"slo.time_in_band: {tib} outside [0, 1]"]
    return []


_STATE = frozenset(STATES)

#: the ``repro/service`` document contract
SERVICE_SHAPE = Shape(
    SERVICE_SCHEMA,
    {
        "band": NUMBER,
        "config": dict,
        "traffic": dict,
        "chaos": Nullable(dict),
        "slo": {
            **dict.fromkeys(
                (
                    "time_in_band", "sojourn_p50", "sojourn_p99", "offered_rate",
                    "admitted_rate", "shed_rate", "completion_rate",
                ),
                NUMBER,
            ),
            **dict.fromkeys(
                ("band_samples", "offered", "admitted", "shed", "completed"), int
            ),
            "shed_by_reason": dict.fromkeys(SHED_REASONS, int),
        },
        "timeline": [{"t": NUMBER, "prev": _STATE, "state": _STATE, "reason": str}],
        "time_in_state": dict.fromkeys(STATES, NUMBER),
        "final_state": _STATE,
        "worst_sojourns": [{"sojourn": NUMBER, "at": NUMBER}],
        "counters": {
            **dict.fromkeys(STUDY_COUNTERS, int),
            "migrated_tasks": int,
            "fault_stats": Nullable(dict),
        },
        "series": Series(times=[NUMBER], rho=[NUMBER], hot=[NUMBER], states=[_STATE]),
    },
    check=_time_in_band_range,
)


# -- rendering ------------------------------------------------------------

_STATE_GLYPH = {
    "healthy": ".",
    "backpressure": "b",
    "shedding": "S",
    "recovering": "r",
}


def _state_strip(states: list[str], width: int = 60) -> str:
    """One character per (resampled) snapshot: the degradation ribbon."""
    if not states:
        return ""
    if len(states) > width:
        edges = np.linspace(0, len(states), width + 1).astype(int)
        states = [
            states[min((a + max(b - 1, a)) // 2, len(states) - 1)]
            for a, b in zip(edges[:-1], edges[1:])
        ]
    return "".join(_STATE_GLYPH.get(s, "?") for s in states)


def render_service(doc: dict) -> str:
    """Terminal summary of a service run (the ``repro serve`` output)."""
    slo = doc["slo"]
    lines = [
        "service run",
        "-----------",
        f"band (Theorem 4)   : {doc['band']:.3f}",
        f"time in band       : {slo['time_in_band']:.1%} "
        f"of {slo['band_samples']} snapshots",
        f"sojourn p50 / p99  : {slo['sojourn_p50']:.2f} / "
        f"{slo['sojourn_p99']:.2f}",
        f"offered / admitted : {slo['offered']} / {slo['admitted']}",
        f"shed / completed   : {slo['shed']} / {slo['completed']}",
        "shed by reason     : "
        + ", ".join(f"{k}={v}" for k, v in slo["shed_by_reason"].items()),
        f"final state        : {doc['final_state']}",
    ]
    series = doc.get("series") or {}
    if series.get("rho"):
        lines.append(f"rho                : {sparkline(series['rho'])}")
    if series.get("states"):
        lines.append(f"state              : {_state_strip(series['states'])}")
        lines.append(
            "                     (.=healthy b=backpressure "
            "S=shedding r=recovering)"
        )
    if doc["timeline"]:
        lines.append("transitions:")
        for tr in doc["timeline"]:
            lines.append(
                f"  t={tr['t']:7.2f}  {tr['prev']:>12} -> "
                f"{tr['state']:<12} ({tr['reason']})"
            )
    else:
        lines.append("transitions        : none (healthy throughout)")
    return "\n".join(lines)


def service_markdown_section(doc: dict) -> list[str]:
    """The report's service-run section (``repro report --service``)."""
    slo = doc["slo"]
    lines = ["## Service run", ""]

    # -- SLO verdicts
    lines.append("### SLO verdicts")
    lines.append("")
    verdict_rows = [
        [
            "time in Theorem-4 band",
            f"{slo['time_in_band']:.1%}",
            f"band = {doc['band']:.3f}",
        ],
        [
            "sojourn p50 / p99",
            f"{slo['sojourn_p50']:.2f} / {slo['sojourn_p99']:.2f}",
            f"{slo['completed']} completions",
        ],
        [
            "admitted / offered",
            f"{slo['admitted']} / {slo['offered']}",
            f"{slo['admitted_rate']:.2f} admitted per unit time",
        ],
        [
            "shed",
            str(slo["shed"]),
            ", ".join(
                f"{k}={v}" for k, v in slo["shed_by_reason"].items()
            ),
        ],
    ]
    lines.append(_md_table(["objective", "measured", "detail"], verdict_rows))
    lines.append("")

    # -- degradation-state timeline
    lines.append("### Degradation-state timeline")
    lines.append("")
    series = doc.get("series") or {}
    if series.get("states"):
        lines.append("```")
        lines.append(f"state {_state_strip(series['states'])}")
        lines.append("rho   " + sparkline(series.get("rho", [])))
        lines.append("```")
        lines.append(
            "`.` healthy, `b` backpressure, `S` shedding, `r` recovering"
        )
        lines.append("")
    if doc["timeline"]:
        rows = [
            [f"{tr['t']:.2f}", tr["prev"], tr["state"], tr["reason"]]
            for tr in doc["timeline"]
        ]
        lines.append(_md_table(["t", "from", "to", "reason"], rows))
    else:
        lines.append("No transitions: the service stayed healthy.")
    lines.append("")
    tis = doc["time_in_state"]
    lines.append(
        "Time in state: "
        + ", ".join(f"{k} {v:.1f}" for k, v in tis.items() if v > 0)
        + "."
    )
    lines.append("")

    # -- worst-sojourn waterfall
    lines.append("### Worst-sojourn waterfall")
    lines.append("")
    worst = doc.get("worst_sojourns") or []
    if worst:
        top = max(w["sojourn"] for w in worst) or 1.0
        rows = []
        for w in worst:
            bar = "#" * max(1, int(round(w["sojourn"] / top * 30)))
            rows.append([f"{w['sojourn']:.2f}", f"{w['at']:.0%}", f"`{bar}`"])
        lines.append(
            _md_table(["sojourn", "completion position", "waterfall"], rows)
        )
    else:
        lines.append("No completed tasks recorded.")
    lines.append("")
    return lines
