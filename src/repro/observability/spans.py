"""Balancing-operation spans: one causal story per trigger fire.

A *span* follows a single balancing operation from the trigger that
opened it to its final outcome, across every intermediate step the
engines take.  Spans are a view of the trace: no engine emits anything
for them.  :func:`spans_from_trace` derives them from the ordinary
events (``trigger`` → ``partner_select`` → ``balance`` → self-debt
``debt_settle`` in the synchronous engine, the ``async_*`` and
``fault_*`` families in the asynchronous one); the event → phase table
is in ``docs/OBSERVABILITY.md``.  The outcome is ``completed`` (with
the migrated packet count), ``isolated`` (no partner to balance with),
or one of the asynchronous failure modes — ``gave_up`` (retry budget
spent), ``reclaimed`` (completion lost, busy flags reclaimed by
timeout), ``aborted`` (the initiator crashed before its retry, or its
partners crashed mid-flight), ``quiesced`` (the load drifted back
before any partner accepted).

In the synchronous engine a span covers exactly one inline balancing
operation (start at the trigger, end the same tick).  In the
asynchronous engine a span covers a whole *episode*: the retry loop of
a congested initiation, the latency window of an accepted operation,
and the fault paths — which is where span durations become interesting.

:func:`rank_spans` orders spans most troubled first and
:func:`render_waterfall` draws one; the run report's spans section
(``repro spans`` prints it) and the Perfetto export are built from
these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.observability.tracer import Tracer, event_time

__all__ = [
    "Span",
    "spans_from_trace",
    "rank_spans",
    "worst_span",
    "render_waterfall",
]


@dataclass(slots=True)
class Span:
    """One reconstructed balancing-operation span."""

    span: int
    op: str
    proc: int
    start: float
    points: list[dict] = field(default_factory=list)
    end: float | None = None
    status: str | None = None
    migrated: int = 0

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    @property
    def phases(self) -> list[str]:
        return [p["phase"] for p in self.points]


def spans_from_trace(
    events: Sequence[Mapping], *, tracer: Tracer | None = None
) -> list[Span]:
    """Derive the balancing-operation spans of a recorded trace.

    Spans are numbered in the order they start.  The event → phase
    mapping is the table in ``docs/OBSERVABILITY.md`` ("Balancing-
    operation spans"): a synchronous operation runs inline, so the
    order of its events is its story; an asynchronous span is keyed
    by its initiator, which has at most one open episode at a time
    (it is busy while its operation is in flight).

    Tolerates truncated traces — phases and outcomes whose opening
    event was evicted from a ring buffer are dropped, spans without an
    outcome stay open (``status is None``) — but not *silently*: when
    orphans are found a ``trace_truncated`` warning event is emitted
    into ``tracer``, the same loud-by-default shape as a
    ``monitor_breach``.
    """
    spans: list[Span] = []
    op: Span | None = None       # the synchronous operation being read
    settling: tuple = ()         # its participants, until another event
    episodes: dict[int, Span] = {}  # asynchronous: open span per initiator
    orphans = 0
    first_orphan_t = 0.0

    def open_span(kind: str, proc: int, t: float) -> Span:
        s = Span(span=len(spans), op=kind, proc=int(proc), start=t)
        spans.append(s)
        return s

    for ev in events:
        etype = ev.get("type")
        t = event_time(ev)
        if etype == "debt_settle" and ev["mechanism"] == "self":
            # a participant's self-debt settles right after the deal; a
            # debtor's own-class repayment outside an operation does not
            if ev["proc"] in settling:
                op.points.append(_point(t, "debt_settle", ev["proc"]))
            continue
        if etype != "transfer":
            settling = ()
        if etype == "trigger":
            # provisionally isolated: an operation without partners
            # emits nothing after its trigger
            op = open_span("balance", ev["proc"], t)
            op.end, op.status = t, "isolated"
            continue
        if etype == "partner_select":
            s = op if op is not None and op.proc == ev["initiator"] else None
            if s is not None and s.status == "isolated":
                s.end = s.status = None
                s.points.append(_point(t, "partner_select", s.proc))
                continue
        elif etype == "balance":
            s = op if op is not None and op.proc == ev["initiator"] else None
            if s is not None and s.phases == ["partner_select"]:
                s.points.append(_point(t, "deal", s.proc))
                s.end, s.status, s.migrated = t, "completed", ev["migrated"]
                settling = tuple(ev["participants"])
                continue
        elif etype in _ASYNC_OPENERS:
            i = ev["initiator"]
            s = episodes.get(i)
            if s is None:
                s = episodes[i] = open_span("async_balance", i, t)
            s.points.append(_point(t, _ASYNC_OPENERS[etype], i))
            continue
        elif etype in _ASYNC_POINTS:
            s = episodes.get(ev["initiator"])
            if s is not None:
                s.points.append(_point(t, _ASYNC_POINTS[etype], s.proc))
                continue
        elif etype in _ASYNC_ENDS:
            s = episodes.pop(ev["initiator"], None)
            status = _ASYNC_ENDS[etype]
            if ev.get("reason") == "quiesced":
                if s is None:
                    # the attempt count resets after a crash already
                    # ended the episode: nothing left to close
                    continue
                status = "quiesced"
            if s is not None:
                s.end, s.status = t, status
                s.migrated = ev.get("migrated", 0)
                continue
        else:
            continue
        if not orphans:
            first_orphan_t = t
        orphans += 1
    if orphans and tracer is not None and getattr(tracer, "enabled", False):
        tracer.emit("trace_truncated", time=first_orphan_t, dropped=orphans)
    return spans


def _point(t: float, phase: str, proc: int) -> dict:
    return {"t": t, "phase": phase, "proc": int(proc)}


#: asynchronous events that open the initiator's span when none is
#: open, and the phase each marks
_ASYNC_OPENERS = {"async_drop": "declined", "async_accept": "partner_select"}
#: asynchronous phases of an open span
_ASYNC_POINTS = {
    "async_retry": "retry",
    "fault_straggle": "straggle",
    "fault_msg_loss": "msg_loss",
}
#: asynchronous outcomes (an ``async_abandon`` whose ``reason`` is
#: ``quiesced`` ends its span ``quiesced``)
_ASYNC_ENDS = {
    "async_balance": "completed",
    "async_giveup": "gave_up",
    "fault_reclaim": "reclaimed",
    "async_abandon": "aborted",
}


def rank_spans(spans: Sequence[Span]) -> list[Span]:
    """Spans ordered most troubled first: longest closed duration, then
    (for ties and the all-instantaneous synchronous case) most
    event-ful, then most packets migrated; equal spans keep trace order."""
    return sorted(
        spans,
        key=lambda s: (s.duration or 0.0, len(s.points), s.migrated),
        reverse=True,
    )


def worst_span(spans: Sequence[Span]) -> Span | None:
    """The first span of :func:`rank_spans` (``None`` without spans)."""
    ranked = rank_spans(spans)
    return ranked[0] if ranked else None


def _fmt_t(t: float) -> str:
    return f"{t:g}"


def render_waterfall(span: Span, width: int = 40) -> str:
    """ASCII waterfall of one span: each step positioned on the span's
    own timeline."""
    t1 = span.end if span.end is not None else (
        span.points[-1]["t"] if span.points else span.start
    )
    total = max(t1 - span.start, 0.0)

    def bar(t: float) -> str:
        frac = 0.0 if total == 0 else (t - span.start) / total
        pos = min(int(frac * (width - 1)), width - 1)
        return " " * pos + "|"

    head = (
        f"span #{span.span} op={span.op} proc={span.proc} "
        f"status={span.status or 'open'} migrated={span.migrated}"
    )
    if span.duration is not None:
        head += f" duration={span.duration:g}"
    lines = [head, f"  t={_fmt_t(span.start):<10} {bar(span.start)} start"]
    for p in span.points:
        lines.append(
            f"  t={_fmt_t(p['t']):<10} {bar(p['t'])} {p['phase']} "
            f"(proc {p['proc']})"
        )
    if span.end is not None:
        lines.append(
            f"  t={_fmt_t(span.end):<10} {bar(span.end)} end ({span.status})"
        )
    return "\n".join(lines)
