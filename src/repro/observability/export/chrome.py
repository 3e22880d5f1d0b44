"""Chrome trace-event / Perfetto export of recorded traces.

Renders a schema-valid event stream — a tracer buffer — together with
its balancing-operation spans (derived by
:func:`~repro.observability.spans.spans_from_trace`, or given: the bench
timeline :func:`~repro.experiments.microbench.bench_timeline` builds
from a bench document) as the `Chrome trace-event JSON format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_,
loadable in Perfetto (ui.perfetto.dev) or ``chrome://tracing`` as a
flamegraph timeline.

Mapping (model time ``t``/``time`` becomes microseconds):

* each span — duration begin/end (``B``/``E``) on the span's processor
  lane, one pair per balancing operation (no ``E`` while it is still
  open); every ``B`` carries the caller's ``run_id`` in its ``args``;
* each span phase — thread-scoped instant on the span's lane;
* ``fault_crash``/``fault_recover`` and ``node_leave``/``node_join`` —
  paired into complete (``X``) windows on the affected processor's
  lane, so crash windows and churn leave windows read as solid blocks
  under the spans they disrupt (unpaired openers close at the last
  event time);
* ``trace_truncated`` and other instantaneous
  events (``topology_change``, ``monitor_breach``, ...) — instants,
  process-scoped where no processor is named;
* profiler sections (when a profiler is passed) — one aggregate ``X``
  slab per section, laid end to end on a separate "profiler
  (aggregate)" process: the profiler stores totals, not occurrences,
  so the lane is a summary, not a timeline.

``tick``/``async_deliver`` bookkeeping events are skipped — they would
bury the balancing story under thousands of identical instants.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Mapping, Sequence

from repro.observability.spans import Span, spans_from_trace
from repro.observability.tracer import event_time

__all__ = ["chrome_trace_events", "write_chrome_trace"]

#: model-time unit -> trace microseconds (1 model unit = 1 ms reads well)
_SCALE = 1_000.0

_PID_RUN = 1
_PID_PROFILER = 2
_SKIP = {"tick", "async_deliver"}

#: window-opening event type -> (closer type, lane-id field, label)
_WINDOWS = {
    "fault_crash": ("fault_recover", "proc", "crash"),
    "node_leave": ("node_join", "proc", "departed"),
}


def _lane(ev: Mapping) -> int:
    """The thread lane an event renders on: its processor, if it names
    one (initiator for balancing events, proc otherwise), else 0."""
    for key in ("proc", "initiator", "debtor", "src"):
        if key in ev:
            return int(ev[key])
    return 0


def _span_events(spans: Sequence[Span], run_id: str) -> list[dict]:
    """``B``, one instant per phase and (once closed) ``E`` per span."""
    out: list[dict] = []
    for s in spans:
        out.append({
            "ph": "B", "pid": _PID_RUN, "tid": s.proc,
            "ts": s.start * _SCALE, "name": s.op, "cat": "span",
            "args": {"span": s.span, "run_id": run_id},
        })
        for p in s.points:
            out.append({
                "ph": "i", "s": "t", "pid": _PID_RUN, "tid": s.proc,
                "ts": p["t"] * _SCALE, "name": p["phase"], "cat": "span",
            })
        if s.end is not None:
            out.append({
                "ph": "E", "pid": _PID_RUN, "tid": s.proc,
                "ts": s.end * _SCALE,
                "args": {"status": s.status, "migrated": s.migrated},
            })
    return out


def chrome_trace_events(
    events: Sequence[Mapping],
    *,
    profiler=None,
    run_id: str = "",
    timeline: Sequence[Span] | None = None,
) -> list[dict]:
    """Render ``events`` and their spans as Chrome trace-event dicts.

    ``run_id`` names the run in the process lane and in every span's
    ``args`` (empty by default).  ``timeline`` replaces the spans
    derived from ``events`` (the bench timeline has no trace).  The
    spans come first; viewers order events by ``ts``.
    """
    if timeline is None:
        timeline = spans_from_trace(events)
    out: list[dict] = [
        {
            "ph": "M", "pid": _PID_RUN, "tid": 0, "name": "process_name",
            "args": {"name": f"repro run {run_id}".strip()},
        },
        *_span_events(timeline, run_id),
    ]
    last_t = max((event_time(ev) for ev in events), default=0.0)
    open_windows: dict[tuple[str, int], float] = {}
    for ev in events:
        etype = ev.get("type", "")
        if etype in _SKIP:
            continue
        ts = event_time(ev) * _SCALE
        if etype in _WINDOWS:
            _, key, _ = _WINDOWS[etype]
            open_windows[(etype, int(ev.get(key, 0)))] = event_time(ev)
        elif etype in {closer for closer, _, _ in _WINDOWS.values()}:
            for opener, (closer, key, label) in _WINDOWS.items():
                if etype != closer:
                    continue
                lane = int(ev.get(key, 0))
                t0 = open_windows.pop((opener, lane), None)
                if t0 is None:
                    out.append({
                        "ph": "i", "s": "t", "pid": _PID_RUN, "tid": lane,
                        "ts": ts, "name": etype, "cat": "fault",
                    })
                else:
                    out.append({
                        "ph": "X", "pid": _PID_RUN, "tid": lane,
                        "ts": t0 * _SCALE,
                        "dur": max(event_time(ev) - t0, 0.0) * _SCALE,
                        "name": label, "cat": "fault",
                    })
        else:
            scope = "t" if _lane(ev) or "proc" in ev else "p"
            args = {
                k: v
                for k, v in ev.items()
                if k not in ("type", "seq") and isinstance(v, (int, float, str))
            }
            out.append({
                "ph": "i", "s": scope, "pid": _PID_RUN, "tid": _lane(ev),
                "ts": ts, "name": etype, "cat": "event", "args": args,
            })
    # close windows left open at the horizon
    for (opener, lane), t0 in sorted(open_windows.items()):
        _, _, label = _WINDOWS[opener]
        out.append({
            "ph": "X", "pid": _PID_RUN, "tid": lane, "ts": t0 * _SCALE,
            "dur": max(last_t - t0, 0.0) * _SCALE,
            "name": label + " (open)", "cat": "fault",
        })
    rows = profiler.summary() if profiler is not None else []
    if rows:
        out.append({
            "ph": "M", "pid": _PID_PROFILER, "tid": 0, "name": "process_name",
            "args": {"name": "profiler (aggregate)"},
        })
        cursor = 0.0
        for name, calls, total_ms, _, mean_us, _, _ in sorted(rows):
            dur = total_ms * 1_000.0  # ms -> us
            out.append({
                "ph": "X", "pid": _PID_PROFILER, "tid": 0, "ts": cursor,
                "dur": dur, "name": name, "cat": "profiler",
                "args": {"count": calls, "mean_ns": round(mean_us * 1e3, 1)},
            })
            cursor += dur
    return out


def write_chrome_trace(
    path: str | Path | IO[str],
    events: Sequence[Mapping],
    *,
    profiler=None,
    run_id: str = "",
    timeline: Sequence[Span] | None = None,
) -> int:
    """Write a Chrome trace JSON file; return the trace-event count."""
    trace_events = chrome_trace_events(
        events, profiler=profiler, run_id=run_id, timeline=timeline
    )
    doc = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro trace --export chrome",
            "run_id": run_id,
        },
    }
    own = isinstance(path, (str, Path))
    if own:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        fh: IO[str] = open(p, "w", encoding="utf-8")
    else:
        fh = path  # type: ignore[assignment]
    try:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    finally:
        if own:
            fh.close()
    return len(trace_events)
