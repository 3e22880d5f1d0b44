"""Trace analysis: summarise, reconcile and diff recorded traces.

These helpers operate on plain event dicts — either live
:class:`~repro.observability.tracer.Tracer` buffers or NDJSON files
read back with :func:`~repro.observability.tracer.read_ndjson` — and
back the ``repro trace`` CLI.

The central consistency check is :func:`reconcile_trace`: the trace's
per-tick balancing-operation counts and load snapshots must agree with
the aggregate view the rest of the repo computes independently
(:class:`repro.simulation.result.RunResult`,
:class:`repro.metrics.collector.MultiRunCollector`).  A trace that does
not reconcile indicates an instrumentation bug, never a tolerable
drift — both views are derived from the same deterministic run.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "summarise_trace",
    "render_summary",
    "diff_summaries",
    "ops_per_tick_from_trace",
    "loads_from_trace",
    "reconcile_trace",
    "reconcile_async_trace",
]


def summarise_trace(events: Sequence[Mapping]) -> dict:
    """Compact scalar summary of a trace.

    Returns a dict with per-type event counts (``events.<type>``) and
    derived totals: balancing operations, packets migrated (from
    ``balance`` events), transfer volume, final tick and final load
    spread (from the last ``tick`` event, if any).
    """
    counts = Counter(ev["type"] for ev in events)
    summary: dict[str, float] = {
        f"events.{etype}": float(c) for etype, c in sorted(counts.items())
    }
    summary["events.total"] = float(len(events))
    summary["balance.ops"] = float(counts.get("balance", 0))
    summary["balance.migrated"] = float(
        sum(ev["migrated"] for ev in events if ev["type"] == "balance")
    )
    summary["transfer.volume"] = float(
        sum(ev["amount"] for ev in events if ev["type"] == "transfer")
    )
    ticks = [ev for ev in events if ev["type"] == "tick"]
    if ticks:
        last = ticks[-1]
        loads = last["loads"]
        summary["final.t"] = float(last["t"])
        summary["final.load_mean"] = float(np.mean(loads))
        summary["final.load_spread"] = float(max(loads) - min(loads))
    return summary


def render_summary(summary: Mapping[str, float]) -> str:
    """One ``key  value`` line per entry, aligned."""
    if not summary:
        return "(empty trace)"
    width = max(len(k) for k in summary)
    lines = []
    for key, value in summary.items():
        val = f"{value:g}"
        lines.append(f"{key:<{width}}  {val}")
    return "\n".join(lines)


def diff_summaries(
    a: Mapping[str, float], b: Mapping[str, float]
) -> list[tuple[str, float, float, float]]:
    """Rows ``(key, a, b, b - a)`` over the union of keys (0 when absent).

    This is what ``repro trace --diff`` prints: a quick answer to "what
    changed between these two recorded runs" — more operations? more
    borrow traffic? a different final spread?
    """
    keys = sorted(set(a) | set(b))
    return [
        (k, float(a.get(k, 0.0)), float(b.get(k, 0.0)), float(b.get(k, 0.0)) - float(a.get(k, 0.0)))
        for k in keys
    ]


def ops_per_tick_from_trace(
    events: Iterable[Mapping], steps: int
) -> np.ndarray:
    """Balancing operations per global tick, from ``balance`` events."""
    out = np.zeros(steps + 1, dtype=np.int64)
    for ev in events:
        if ev["type"] == "balance" and 0 <= ev["t"] <= steps:
            out[ev["t"]] += 1
    return out


def loads_from_trace(events: Sequence[Mapping]) -> np.ndarray:
    """``(ticks, n)`` load history from the ``tick`` events, in order."""
    rows = [ev["loads"] for ev in events if ev["type"] == "tick"]
    if not rows:
        raise ValueError("trace contains no tick events")
    return np.asarray(rows, dtype=np.int64)


def reconcile_trace(events: Sequence[Mapping], result) -> list[str]:
    """Cross-check a trace against the :class:`RunResult` of the same run.

    Checks (returns a list of problem strings, empty = reconciled):

    1. the ``tick`` snapshots equal ``result.loads[1:]`` row by row
       (row 0 of ``result.loads`` is the pre-run state, before the
       first tick event fires);
    2. the number of ``balance`` events equals ``result.total_ops``;
    3. the cumulative ``ops`` counter on the last ``tick`` event equals
       ``result.total_ops`` (the two are independently maintained);
    4. migrated-packet totals agree between the ``balance`` events and
       ``result.packets_migrated`` up to the non-balance migration
       channels (exchange / dance transfers), which are charged to
       ``transfer`` events — the sum of balance ``migrated`` plus
       exchange/dance ``transfer`` amounts must equal the result's
       counter.
    """
    problems: list[str] = []
    ticks = [ev for ev in events if ev["type"] == "tick"]
    if ticks:
        traced = np.asarray([ev["loads"] for ev in ticks], dtype=np.int64)
        expect = np.asarray(result.loads[1:], dtype=np.int64)
        if traced.shape != expect.shape:
            problems.append(
                f"tick snapshots shape {traced.shape} != result loads {expect.shape}"
            )
        elif not np.array_equal(traced, expect):
            first = int(np.nonzero((traced != expect).any(axis=1))[0][0])
            problems.append(f"tick snapshot diverges from result.loads at tick {first + 1}")
    else:
        problems.append("trace contains no tick events")

    n_balance = sum(1 for ev in events if ev["type"] == "balance")
    if n_balance != result.total_ops:
        problems.append(
            f"{n_balance} balance events != result.total_ops {result.total_ops}"
        )
    if ticks and ticks[-1]["ops"] != result.total_ops:
        problems.append(
            f"last tick ops counter {ticks[-1]['ops']} != result.total_ops "
            f"{result.total_ops}"
        )

    balance_migrated = sum(
        ev["migrated"] for ev in events if ev["type"] == "balance"
    )
    side_channel = sum(
        ev["amount"]
        for ev in events
        if ev["type"] == "transfer" and ev["cause"] in ("exchange", "dance")
    )
    if balance_migrated + side_channel != result.packets_migrated:
        problems.append(
            f"migrated packets: balance {balance_migrated} + exchange/dance "
            f"{side_channel} != result.packets_migrated {result.packets_migrated}"
        )
    return problems


def reconcile_async_trace(events: Sequence[Mapping], result) -> list[str]:
    """Cross-check an asynchronous-engine trace against its
    :class:`~repro.core.async_engine.AsyncResult`.

    Every traced operation outcome is recounted from the events and
    compared with the counters the engine maintained independently:
    ``async_balance`` count and migrated sum vs ``total_ops`` /
    ``packets_migrated``; ``async_drop`` / ``async_retry`` /
    ``async_giveup`` counts vs ``dropped_ops`` / ``retries`` /
    ``give_ups``; and, for a faulted run, the ``fault_*`` event counts
    and the ``stranded`` / ``crashed`` ``async_abandon`` counts vs
    ``result.fault_stats`` (``aborted_ops`` / ``abandoned_retries``).
    The fact no counter keeps is checked for shape: every
    ``async_accept`` is ended by exactly one ``async_balance``,
    ``fault_reclaim`` or stranded ``async_abandon`` of its initiator (or
    is still in flight at the horizon).
    Requires an unbounded tracer (a ring buffer that dropped events
    cannot reconcile).
    """
    problems: list[str] = []
    counts = Counter(ev["type"] for ev in events)

    def check(label: str, traced: int, counter: int) -> None:
        if traced != counter:
            problems.append(f"{traced} {label} events != result counter {counter}")

    check("async_balance", counts.get("async_balance", 0), result.total_ops)
    check("async_drop", counts.get("async_drop", 0), result.dropped_ops)
    check("async_retry", counts.get("async_retry", 0), result.retries)
    check("async_giveup", counts.get("async_giveup", 0), result.give_ups)
    migrated = sum(
        ev["migrated"] for ev in events if ev["type"] == "async_balance"
    )
    if migrated != result.packets_migrated:
        problems.append(
            f"async_balance migrated sum {migrated} != "
            f"result.packets_migrated {result.packets_migrated}"
        )
    abandons = Counter(
        ev["reason"] for ev in events if ev["type"] == "async_abandon"
    )
    fs = result.fault_stats
    if fs is not None:
        check("fault_crash", counts.get("fault_crash", 0), fs["crashes"])
        check("fault_msg_loss", counts.get("fault_msg_loss", 0), fs["lost_messages"])
        check("fault_reclaim", counts.get("fault_reclaim", 0), fs["reclaimed_ops"])
        check("fault_straggle", counts.get("fault_straggle", 0), fs["straggled_ops"])
        check("stranded async_abandon", abandons["stranded"], fs["aborted_ops"])
        check("crashed async_abandon", abandons["crashed"], fs["abandoned_retries"])
    elif any(t.startswith("fault_") for t in counts) or abandons["crashed"]:
        problems.append(
            "fault_* or crashed async_abandon events recorded but "
            "result.fault_stats is None"
        )
    in_flight: set[int] = set()
    unpaired = 0
    for ev in events:
        etype = ev["type"]
        if etype == "async_accept":
            unpaired += ev["initiator"] in in_flight
            in_flight.add(ev["initiator"])
        elif etype in ("async_balance", "fault_reclaim") or (
            etype == "async_abandon" and ev["reason"] == "stranded"
        ):
            unpaired += ev["initiator"] not in in_flight
            in_flight.discard(ev["initiator"])
    if unpaired:
        problems.append(
            f"{unpaired} async_accept events and operation outcomes "
            "(async_balance, fault_reclaim, stranded async_abandon) "
            "do not pair up per initiator"
        )
    return problems
