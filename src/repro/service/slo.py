"""Service-level objectives: what the service *promises*, measured.

The theory chapters bound the load imbalance; a service's users feel
something else — whether their requests got in and how long they
waited.  :class:`SLOTracker` bridges the two by streaming per-snapshot
observations into service-level metrics:

* **time-in-Theorem-4-band** — the fraction of snapshots where the
  instantaneous extreme ratio ``rho = max_i l_i / (min_j l_j + C)``
  stays inside the band ``f^2 * delta/(delta+1-f)`` (the same formula
  as :class:`~repro.observability.monitors.Theorem4BandMonitor`; the
  tracker recomputes it from the parameters so its counters are
  identical whether or not monitors are attached — the golden
  determinism test depends on this);
* **sojourn percentiles** — p50/p99 admission-to-completion latency
  from the :class:`~repro.service.queues.TaskQueues` record;
* **admission / shed / completion rates** — the front-door counters
  normalised by the horizon.

The results serialise as ``results/service.json`` (``repro/service``
schema, validated by :func:`validate_service`), render as an ASCII
summary (:func:`render_service`) and as the report's service-run
section (:func:`service_markdown_section` — SLO verdicts, the
degradation-state timeline, and the worst-sojourn waterfall).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.observability.report import _md_table, sparkline
from repro.params import LBParams
from repro.theory.bounds import theorem4_bound

__all__ = [
    "SLOTracker",
    "validate_service",
    "render_service",
    "service_markdown_section",
    "write_service_json",
]

SERVICE_SCHEMA = "repro/service"
SERVICE_VERSION = 1


class SLOTracker:
    """Accumulate per-snapshot service-level observations.

    Deliberately self-contained: the band check duplicates
    ``Theorem4BandMonitor`` arithmetic instead of reading monitor state,
    so a run with monitors detached produces bit-identical SLO counters
    (the monitors-on/off golden test pins this).
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
        rho = float(loads.max()) / (float(loads.min()) + self.C)
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
            "total_ops": int(result.total_ops),
            "dropped_ops": int(result.dropped_ops),
            "packets_migrated": int(result.packets_migrated),
            "retries": int(result.retries),
            "give_ups": int(result.give_ups),
            "migrated_tasks": int(queues.migrated_tasks),
            "fault_stats": result.fault_stats,
        },
        "series": slo.series(),
    }


def validate_service(doc: dict) -> list[str]:
    """Schema check for a service document; returns problem strings.

    Structural (keys, types, series alignment, state names), mirroring
    :func:`repro.experiments.resilience.validate_resilience`; behaviour
    (the burst actually sheds, recovery actually happens) is asserted by
    the tier-1 service tests on freshly generated documents.
    """
    problems: list[str] = []

    def need(mapping, key, types, where):
        if not isinstance(mapping, dict) or key not in mapping:
            problems.append(f"{where}: missing key {key!r}")
            return None
        val = mapping[key]
        if not isinstance(val, types) or isinstance(val, bool):
            problems.append(
                f"{where}.{key}: expected {types}, got {type(val).__name__}"
            )
            return None
        return val

    if need(doc, "schema", str, "doc") != SERVICE_SCHEMA:
        problems.append(f"doc.schema: must be {SERVICE_SCHEMA!r}")
    need(doc, "version", int, "doc")
    need(doc, "band", (int, float), "doc")
    need(doc, "config", dict, "doc")
    need(doc, "traffic", dict, "doc")
    if "chaos" not in doc:
        problems.append("doc: missing key 'chaos'")

    slo = need(doc, "slo", dict, "doc")
    if slo is not None:
        for fld in (
            "time_in_band", "sojourn_p50", "sojourn_p99",
            "offered_rate", "admitted_rate", "shed_rate", "completion_rate",
        ):
            need(slo, fld, (int, float), "slo")
        for fld in ("band_samples", "offered", "admitted", "shed", "completed"):
            need(slo, fld, int, "slo")
        reasons = need(slo, "shed_by_reason", dict, "slo")
        if reasons is not None:
            from repro.service.admission import SHED_REASONS

            for r in SHED_REASONS:
                need(reasons, r, int, "slo.shed_by_reason")
        tib = slo.get("time_in_band")
        if isinstance(tib, (int, float)) and not 0.0 <= tib <= 1.0:
            problems.append(f"slo.time_in_band: {tib} outside [0, 1]")

    from repro.service.degradation import STATES

    timeline = need(doc, "timeline", list, "doc")
    if timeline is not None:
        for k, tr in enumerate(timeline):
            where = f"timeline[{k}]"
            need(tr, "t", (int, float), where)
            for fld in ("prev", "state", "reason"):
                val = need(tr, fld, str, where)
                if fld != "reason" and val is not None and val not in STATES:
                    problems.append(f"{where}.{fld}: unknown state {val!r}")
    tis = need(doc, "time_in_state", dict, "doc")
    if tis is not None:
        for s in STATES:
            need(tis, s, (int, float), "time_in_state")
    final = need(doc, "final_state", str, "doc")
    if final is not None and final not in STATES:
        problems.append(f"doc.final_state: unknown state {final!r}")

    worst = need(doc, "worst_sojourns", list, "doc")
    if worst is not None:
        for k, w in enumerate(worst):
            need(w, "sojourn", (int, float), f"worst_sojourns[{k}]")
            need(w, "at", (int, float), f"worst_sojourns[{k}]")

    counters = need(doc, "counters", dict, "doc")
    if counters is not None:
        for fld in (
            "total_ops", "dropped_ops", "packets_migrated",
            "retries", "give_ups", "migrated_tasks",
        ):
            need(counters, fld, int, "counters")
        if "fault_stats" not in counters:
            problems.append("counters: missing key 'fault_stats'")

    series = need(doc, "series", dict, "doc")
    if series is not None:
        lengths = set()
        for fld in ("times", "rho", "hot", "states"):
            vals = need(series, fld, list, "series")
            if vals is not None:
                lengths.add(len(vals))
        if len(lengths) > 1:
            problems.append(
                f"series: unequal series lengths {sorted(lengths)}"
            )
    return problems


def write_service_json(path: str | Path, doc: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


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
