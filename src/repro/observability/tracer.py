"""Ring-buffered structured event tracer with NDJSON export.

Design constraints (in priority order):

1. **Zero overhead when disabled.**  The engines never call into this
   module on the hot path unless tracing was requested: they cache
   ``tracer.enabled`` into a plain boolean at construction and guard
   every emission site with one ``if`` on it.  A disabled run allocates
   no event objects and takes no extra attribute lookups.
2. **Bounded memory when enabled.**  The buffer is a ring
   (``collections.deque(maxlen=capacity)``): a trace of a week-long
   run keeps the most recent ``capacity`` events and counts the rest in
   :attr:`Tracer.dropped` instead of exhausting memory.  ``capacity=None``
   (the default) keeps everything — right for the short deterministic
   runs the tests and the ``repro trace`` CLI record.
3. **Plain-data events.**  An event is a ``dict`` with a ``type``
   string, a monotonically increasing ``seq`` number, and the
   type-specific fields of :mod:`repro.observability.schema`.  Plain
   dicts serialise to NDJSON without adapters and pickle across the
   process pool without custom reducers.

Events are emitted in *program order*: ``seq`` totally orders the
trace even where several events share a tick (e.g. a ``trigger``
followed by ``partner_select``, ``balance`` and its ``transfer``
fan-out all happen within one global tick).

**Cross-process trace context.**  A :class:`TraceContext` names a run
(``run_id``) and the parent span a batch was dispatched under, and
travels across the :class:`~repro.simulation.parallel.BatchClient`
boundary: the client wraps each task so the worker process sees
:func:`current_context` with its own ``worker`` index before the task
function runs.  Workers record into private tracers and ship
:func:`worker_payload` dicts back (the same serialise-and-reduce shape
the metrics registry uses); :func:`merge_worker_traces` folds any
number of payloads into one causally-ordered, schema-valid timeline —
span ids remapped so they cannot collide, a ``trace_context``
provenance event opening each buffer, a ``trace_truncated`` warning
wherever a ring buffer had evicted events, ``seq`` reassigned so
:func:`~repro.observability.schema.validate_trace` passes.  The wire
contract is documented in ``docs/OBSERVABILITY.md`` ("Telemetry").
"""

from __future__ import annotations

import json
from collections import Counter as _Counter
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "write_ndjson",
    "read_ndjson",
    "TraceContext",
    "current_context",
    "set_current_context",
    "worker_payload",
    "event_time",
    "merge_worker_traces",
]


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars / arrays to plain python for json.dumps."""
    if hasattr(value, "tolist"):  # numpy scalar or array (scalars too:
        return value.tolist()  # ndarray.item() rejects size != 1)
    raise TypeError(f"not JSON serialisable: {value!r} ({type(value).__name__})")


class Tracer:
    """Collects structured events into a ring buffer.

    Parameters
    ----------
    capacity:
        Maximum number of events kept; ``None`` = unbounded.  When the
        ring is full the *oldest* events are evicted and counted in
        :attr:`dropped` (the most recent window is almost always the
        interesting one when debugging).
    """

    __slots__ = ("capacity", "dropped", "_events", "_seq")

    enabled = True

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._events: deque[dict] = deque(maxlen=capacity)
        self._seq = 0

    def emit(self, etype: str, **fields: Any) -> None:
        """Append one event.  ``fields`` must be plain python scalars /
        lists (the engines convert numpy values at the call site so the
        conversion cost is only paid when tracing is on)."""
        if (
            self.capacity is not None
            and len(self._events) == self.capacity
        ):
            self.dropped += 1
        self._events.append({"type": etype, "seq": self._seq, **fields})
        self._seq += 1

    # -- reading ---------------------------------------------------------

    @property
    def events(self) -> list[dict]:
        """Snapshot of the buffered events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self._events)

    def counts(self) -> _Counter:
        """Event-type histogram of the buffered events."""
        return _Counter(ev["type"] for ev in self._events)

    def clear(self) -> None:
        """Drop all buffered events (``seq`` keeps counting)."""
        self._events.clear()

    # -- export ----------------------------------------------------------

    def to_ndjson(self, path: str | Path | IO[str]) -> int:
        """Write the buffered events as NDJSON; return the line count."""
        return write_ndjson(self._events, path)


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Engines that receive no tracer hold this singleton so attribute
    access never needs a ``None`` check; the cached ``enabled`` flag
    keeps the hot path to a single branch.
    """

    __slots__ = ()

    enabled = False
    capacity = None
    dropped = 0

    def emit(self, etype: str, **fields: Any) -> None:
        pass

    @property
    def events(self) -> list[dict]:
        return []

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[dict]:
        return iter(())

    def __bool__(self) -> bool:
        return False

    def counts(self) -> _Counter:
        return _Counter()

    def clear(self) -> None:
        pass

    def to_ndjson(self, path: str | Path | IO[str]) -> int:
        return write_ndjson((), path)


NULL_TRACER = NullTracer()


def write_ndjson(events: Iterable[dict], path: str | Path | IO[str]) -> int:
    """Write ``events`` one-JSON-object-per-line; return the count."""
    own = isinstance(path, (str, Path))
    fh: IO[str] = open(path, "w", encoding="utf-8") if own else path  # type: ignore[arg-type]
    try:
        n = 0
        for ev in events:
            fh.write(json.dumps(ev, default=_jsonable, separators=(",", ":")))
            fh.write("\n")
            n += 1
        return n
    finally:
        if own:
            fh.close()


def read_ndjson(path: str | Path | IO[str]) -> list[dict]:
    """Read an NDJSON trace back into a list of event dicts."""
    own = isinstance(path, (str, Path))
    fh: IO[str] = open(path, "r", encoding="utf-8") if own else path  # type: ignore[arg-type]
    try:
        out = []
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(ev, dict):
                raise ValueError(f"line {lineno}: expected a JSON object")
            out.append(ev)
        return out
    finally:
        if own:
            fh.close()


# -- cross-process trace context ------------------------------------------


@dataclass(frozen=True, slots=True)
class TraceContext:
    """Provenance a batch dispatch carries across the process boundary.

    ``run_id`` names the whole run (every worker of a run shares it);
    ``parent_span`` is the span id the dispatch site was recording
    under (-1 when none); ``worker`` is the per-task index the backend
    stamps via :meth:`child` (-1 in the parent).
    """

    run_id: str
    parent_span: int = -1
    worker: int = -1

    def child(self, worker: int) -> "TraceContext":
        """The context a worker task runs under: same run, own index."""
        return replace(self, worker=int(worker))

    def describe(self) -> dict:
        return {
            "run_id": self.run_id,
            "parent_span": self.parent_span,
            "worker": self.worker,
        }


_CURRENT: TraceContext | None = None


def current_context() -> TraceContext | None:
    """The :class:`TraceContext` installed in this process, if any."""
    return _CURRENT


def set_current_context(ctx: TraceContext | None) -> None:
    """Install (or clear) the process-wide trace context.

    Worker processes are single-task-at-a-time, so one module-level
    slot suffices; the batch client installs the child context before the
    task function runs and clear it after.
    """
    global _CURRENT
    _CURRENT = ctx


def worker_payload(tracer, context: TraceContext | None = None) -> dict:
    """The plain-dict trace a worker ships back through the pool.

    ``context`` defaults to :func:`current_context` — inside a
    backend-dispatched task that is the propagated parent context with
    this task's ``worker`` index already stamped.
    """
    ctx = context if context is not None else current_context()
    return {
        "context": ctx.describe() if ctx is not None else {
            "run_id": "", "parent_span": -1, "worker": -1,
        },
        "events": list(getattr(tracer, "events", ())),
        "dropped": int(getattr(tracer, "dropped", 0)),
    }


def event_time(ev: Mapping) -> float:
    """An event's timestamp: async events carry ``time``, synchronous
    and span events carry ``t`` (``span``-less events without either —
    e.g. ``backend_fallback`` — sort at 0.0)."""
    return float(ev.get("time", ev.get("t", 0.0)))


def merge_worker_traces(
    payloads: Iterable[Mapping], *, start_seq: int = 0
) -> list[dict]:
    """Fold per-worker trace payloads into one causally-ordered timeline.

    ``payloads`` are :func:`worker_payload` dicts in *causal priority
    order*: put the parent's buffer first so that at equal timestamps
    the parent's events (the spans that dispatched the work) sort
    before the workers' (the spans they opened in response) — the
    property test pins that parent spans open before their children.

    Per payload, in order:

    * a ``trace_context`` provenance event opens the buffer (stamped
      with the payload's run id, worker index, parent span and drop
      count, at the buffer's first event time);
    * span ids are remapped by a per-payload offset so independently
      allocated ids cannot collide in the merged stream;
    * a ``trace_truncated`` warning event is injected when the
      payload's ring buffer had evicted events — truncation is loud,
      never silent.

    The merged stream is sorted by ``(time, payload rank, original
    seq)`` and ``seq`` reassigned from ``start_seq``, so the result
    passes :func:`~repro.observability.schema.validate_trace`.
    """
    staged: list[tuple[float, int, int, dict]] = []
    span_offset = 0
    for rank, payload in enumerate(payloads):
        ctx = payload.get("context") or {}
        events = payload.get("events") or []
        dropped = int(payload.get("dropped", 0))
        t0 = event_time(events[0]) if events else 0.0
        # rank breaks ties at equal times; -2/-1 keep the provenance
        # marker (and truncation warning) ahead of the buffer's events
        staged.append((t0, rank, -2, {
            "type": "trace_context",
            "time": t0,
            "run_id": str(ctx.get("run_id", "")),
            "worker": int(ctx.get("worker", -1)),
            "parent_span": int(ctx.get("parent_span", -1)),
            "dropped": dropped,
        }))
        if dropped:
            staged.append((t0, rank, -1, {
                "type": "trace_truncated",
                "time": t0,
                "worker": int(ctx.get("worker", -1)),
                "dropped": dropped,
            }))
        max_span = -1
        for ev in events:
            ev = dict(ev)
            if ev.get("type") in ("span_start", "span_point", "span_end"):
                sid = int(ev["span"])
                max_span = max(max_span, sid)
                ev["span"] = sid + span_offset
            staged.append((event_time(ev), rank, int(ev.get("seq", 0)), ev))
        span_offset += max_span + 1
    staged.sort(key=lambda item: item[:3])
    merged = []
    for seq, (_, _, _, ev) in enumerate(staged, start=start_seq):
        ev["seq"] = seq
        merged.append(ev)
    return merged
