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
"""

from __future__ import annotations

import json
from collections import Counter as _Counter
from collections import deque
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "write_ndjson",
    "read_ndjson",
    "event_time",
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

    def __reversed__(self) -> Iterator[dict]:
        """Buffered events, newest first."""
        return reversed(self._events)

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


def event_time(ev: Mapping) -> float:
    """An event's timestamp: async events carry ``time``, synchronous
    events carry ``t`` (events without either — e.g.
    ``backend_fallback`` — sort at 0.0)."""
    return float(ev.get("time", ev.get("t", 0.0)))
