"""Balancing-operation spans: one causal story per trigger fire.

A *span* follows a single balancing operation from the trigger that
opened it to its final outcome, across every intermediate step the
engines take.  Three schema-registered events carry it inside the
ordinary trace stream:

* ``span_start`` — a trigger fired; the span id is allocated here and
  threads through everything that follows;
* ``span_point`` — an intermediate phase: ``partner_select``, ``deal``,
  ``debt_settle`` (synchronous engine), ``declined`` / ``retry`` /
  ``straggle`` / ``msg_loss`` (asynchronous engine);
* ``span_end`` — the outcome: ``completed`` (with the migrated packet
  count), or one of the asynchronous failure modes — ``gave_up`` (retry
  budget spent), ``reclaimed`` (completion lost, busy flags reclaimed
  by timeout), ``aborted`` (partners crashed mid-flight), ``quiesced``
  (the load drifted back before any partner accepted).

In the synchronous engine a span covers exactly one inline balancing
operation (start at the trigger, end the same tick).  In the
asynchronous engine a span covers a whole *episode*: the retry loop of
a congested initiation, the latency window of an accepted operation,
and the fault paths — which is where span durations become interesting.

:func:`spans_from_trace` reconstructs :class:`Span` objects from any
recorded trace (live buffer or NDJSON), :func:`rank_spans` orders them
most troubled first and :func:`render_waterfall` draws one; the run
report's spans section (``repro spans`` prints it) is built from these.  Like the tracer, spans cost nothing when off: the engines
cache one boolean and skip every span site with a single branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.observability.tracer import Tracer

__all__ = [
    "SpanRecorder",
    "Span",
    "spans_from_trace",
    "rank_spans",
    "worst_span",
    "render_waterfall",
]


class SpanRecorder:
    """Allocates span ids and emits ``span_*`` events into a tracer."""

    __slots__ = ("tracer", "started", "ended", "_next")

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.started = 0
        self.ended = 0
        self._next = 0

    def start(self, *, t: float, op: str, proc: int) -> int:
        sid = self._next
        self._next += 1
        self.started += 1
        self.tracer.emit(
            "span_start", span=sid, t=float(t), op=op, proc=int(proc)
        )
        return sid

    def point(self, span: int, *, t: float, phase: str, proc: int) -> None:
        self.tracer.emit(
            "span_point", span=int(span), t=float(t), phase=phase,
            proc=int(proc),
        )

    def end(
        self, span: int, *, t: float, status: str, migrated: int = 0
    ) -> None:
        self.ended += 1
        self.tracer.emit(
            "span_end", span=int(span), t=float(t), status=status,
            migrated=int(migrated),
        )

    @property
    def open(self) -> int:
        """Spans started but never ended (leaked at the horizon)."""
        return self.started - self.ended


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
    """Reconstruct spans (ordered by span id) from a recorded trace.

    Tolerates truncated traces — points/ends whose start was evicted
    from a ring buffer are dropped, spans without an end stay open
    (``status is None``) — but not *silently*: when orphans are found
    a ``trace_truncated`` warning event is emitted into ``tracer``, the
    same loud-by-default shape as a ``monitor_breach``.
    """
    spans: dict[int, Span] = {}
    orphans = 0
    first_orphan_t = 0.0
    for ev in events:
        etype = ev.get("type")
        if etype == "span_start":
            spans[ev["span"]] = Span(
                span=ev["span"], op=ev["op"], proc=ev["proc"], start=ev["t"]
            )
        elif etype == "span_point":
            s = spans.get(ev["span"])
            if s is not None:
                s.points.append(
                    {"t": ev["t"], "phase": ev["phase"], "proc": ev["proc"]}
                )
            else:
                if not orphans:
                    first_orphan_t = float(ev["t"])
                orphans += 1
        elif etype == "span_end":
            s = spans.get(ev["span"])
            if s is not None:
                s.end = ev["t"]
                s.status = ev["status"]
                s.migrated = ev["migrated"]
            else:
                if not orphans:
                    first_orphan_t = float(ev["t"])
                orphans += 1
    if orphans and tracer is not None and getattr(tracer, "enabled", False):
        tracer.emit("trace_truncated", time=first_orphan_t, dropped=orphans)
    return [spans[k] for k in sorted(spans)]


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
