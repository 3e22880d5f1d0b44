"""The instrumentation contract: every event type and its fields.

This registry is the machine-readable half of the contract; the prose
half — including which theorem or figure each event supports — lives
in ``docs/OBSERVABILITY.md``.  The tier-2 smoke test
(``tests/observability/test_smoke_schema.py``) keeps the two in
lock-step: every event type documented must exist here, every type
registered here must be documented, and a traced end-to-end run must
validate line by line.

Validation is **strict**: unknown event types, missing fields and
*extra* fields are all errors.  Extra-field strictness is what keeps
the documentation honest — an emission site cannot silently grow a
field the contract does not name.

Field type specs
----------------
``int``    python int (bools rejected)
``float``  int or float
``str``    python str
``list``   list (of scalars; NDJSON round-trips lists losslessly)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping

from repro.observability.tracer import read_ndjson

__all__ = [
    "EventSchema",
    "EVENT_SCHEMAS",
    "SchemaError",
    "validate_event",
    "validate_trace",
    "validate_ndjson",
]


class SchemaError(ValueError):
    """An event violated the instrumentation contract."""


@dataclass(frozen=True, slots=True)
class EventSchema:
    """Contract for one event type.

    Attributes
    ----------
    name:
        The event's ``type`` string.
    source:
        The emitting module (dotted path), for the documentation.
    doc:
        One-line meaning (mirrored in docs/OBSERVABILITY.md).
    fields:
        Required field name -> type spec (see module docstring).  The
        implicit base fields ``type`` (str) and ``seq`` (int) are
        required on every event and need not be listed.
    """

    name: str
    source: str
    doc: str
    fields: Mapping[str, type]


def _schema(name: str, source: str, doc: str, **fields: type) -> EventSchema:
    return EventSchema(name=name, source=source, doc=doc, fields=dict(fields))


#: The complete event catalogue.  docs/OBSERVABILITY.md documents each
#: entry; the smoke test enforces the correspondence.
EVENT_SCHEMAS: dict[str, EventSchema] = {
    s.name: s
    for s in (
        # -- synchronous engine (repro.core.engine) ---------------------
        _schema(
            "trigger",
            "repro.core.engine",
            "A processor's factor-f trigger fired (growth or decrease).",
            t=int, proc=int, decision=str, own_load=int, l_old=int,
        ),
        _schema(
            "partner_select",
            "repro.core.engine",
            "Partner set drawn for a balancing operation.",
            t=int, initiator=int, partners=list,
        ),
        _schema(
            "balance",
            "repro.core.engine",
            "One balancing operation: participant loads before/after the snake deal.",
            t=int, initiator=int, participants=list,
            loads_before=list, loads_after=list, migrated=int,
        ),
        _schema(
            "transfer",
            "repro.core.engine",
            "Real packets moved between two processors (greedy reconstruction).",
            t=int, src=int, dst=int, amount=int, cause=str,
        ),
        _schema(
            "borrow",
            "repro.core.engine",
            "Local borrow: a foreign-class packet consumed against a new debt.",
            t=int, proc=int, cls=int,
        ),
        _schema(
            "repay",
            "repro.core.engine",
            "A generated packet repaid an outstanding debt.",
            t=int, proc=int, cls=int,
        ),
        _schema(
            "exchange",
            "repro.core.engine",
            "Remote exchange with the producer: packets migrated against debts.",
            t=int, debtor=int, producer=int, amount=int,
        ),
        _schema(
            "dance",
            "repro.core.engine",
            "Class-j balancing dance on the borrow-fail path.",
            t=int, debtor=int, cls=int, group=list,
        ),
        _schema(
            "debt_settle",
            "repro.core.engine",
            "Debts erased, with the settling mechanism.",
            t=int, proc=int, cls=int, count=int, mechanism=str,
        ),
        # -- simulation driver (repro.simulation.driver) ----------------
        _schema(
            "tick",
            "repro.simulation.driver",
            "Per-tick load snapshot plus cumulative operation counters.",
            t=int, loads=list, ops=int, migrated=int,
        ),
        # -- asynchronous engine (repro.core.async_engine) --------------
        _schema(
            "async_deliver",
            "repro.core.async_engine",
            "Delivery of a scheduled message (action or completion).",
            time=float, kind=str, proc=int,
        ),
        _schema(
            "async_balance",
            "repro.core.async_engine",
            "Completion of a latency-delayed balancing operation.",
            time=float, initiator=int, group=list,
            loads_before=list, loads_after=list, migrated=int,
        ),
        _schema(
            "async_accept",
            "repro.core.async_engine",
            "Partners accepted: a balancing operation is in flight.",
            time=float, initiator=int, group=list,
        ),
        _schema(
            "async_drop",
            "repro.core.async_engine",
            "A balancing operation dropped because every partner declined.",
            time=float, initiator=int, declined=int,
        ),
        _schema(
            "async_retry",
            "repro.core.async_engine",
            "A fully declined initiation rescheduled after jittered backoff.",
            time=float, initiator=int, attempt=int, delay=float,
        ),
        _schema(
            "async_giveup",
            "repro.core.async_engine",
            "An initiation abandoned after exhausting the retry budget.",
            time=float, initiator=int, attempts=int,
        ),
        _schema(
            "async_abandon",
            "repro.core.async_engine",
            "An initiation ended without a redistribution (drifted back, "
            "crashed before its retry, or stranded by crashed partners).",
            time=float, initiator=int, reason=str,
        ),
        # -- fault injection (repro.core.async_engine + repro.faults) ---
        _schema(
            "fault_crash",
            "repro.core.async_engine",
            "A scheduled crash window opened: the processor goes dark.",
            time=float, proc=int,
        ),
        _schema(
            "fault_recover",
            "repro.core.async_engine",
            "A crash window closed: the processor resumes with stale state.",
            time=float, proc=int,
        ),
        _schema(
            "fault_msg_loss",
            "repro.core.async_engine",
            "A balancing completion message was lost in transit.",
            time=float, initiator=int, group=list,
        ),
        _schema(
            "fault_reclaim",
            "repro.core.async_engine",
            "Timeout reclaimed the busy flags of a lost operation.",
            time=float, initiator=int, group=list, waited=float,
        ),
        _schema(
            "fault_straggle",
            "repro.core.async_engine",
            "A straggler window stretched an operation's latency.",
            time=float, initiator=int, factor=float,
        ),
        # -- batch execution (repro.simulation.parallel) ----------------
        _schema(
            "backend_fallback",
            "repro.simulation.parallel",
            "The process pool could not start and execution degraded to inline.",
            requested=str, chosen=str, reason=str,
        ),
        # -- conformance monitors (repro.observability.monitors) --------
        _schema(
            "monitor_breach",
            "repro.observability.monitors",
            "A streaming conformance monitor left its paper band.",
            t=float, monitor=str, severity=str, value=float, bound=float,
            procs=list,
        ),
        _schema(
            "monitor_recover",
            "repro.observability.monitors",
            "A breached monitor statistic re-entered its band.",
            t=float, monitor=str, value=float, bound=float, ticks_out=int,
        ),
        # -- live service mode (repro.service) --------------------------
        _schema(
            "service_state",
            "repro.service.degradation",
            "The degradation ladder changed state (healthy/backpressure/shedding/recovering).",
            time=float, prev=str, state=str, reason=str,
        ),
        _schema(
            "service_shed",
            "repro.service.engine",
            "Arrivals shed since the last snapshot, counted by admission gate.",
            time=float, brownout=int, bucket=int, depth=int,
        ),
        # -- balancing-operation spans (repro.observability.spans) ------
        _schema(
            "trace_truncated",
            "repro.observability.spans",
            "A span derivation found phases or outcomes without their "
            "opening event (ring overflow).",
            time=float, dropped=int,
        ),
        # -- dynamic network churn (repro.dynnet.network) ----------------
        _schema(
            "topology_change",
            "repro.dynnet.network",
            "A scheduled edge rewire was applied to the live topology.",
            time=float, dropped=list, added=list,
        ),
        _schema(
            "node_leave",
            "repro.dynnet.network",
            "A processor left the network (starts its leave window).",
            time=float, proc=int,
        ),
        _schema(
            "node_join",
            "repro.dynnet.network",
            "A previously departed processor rejoined the network.",
            time=float, proc=int,
        ),
    )
}

#: Fields present on every event regardless of type.
BASE_FIELDS: dict[str, type] = {"type": str, "seq": int}


def _check_type(name: str, value: object, spec: type) -> str | None:
    """Return an error string if ``value`` does not satisfy ``spec``."""
    if spec is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif spec is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif spec is str:
        ok = isinstance(value, str)
    elif spec is list:
        ok = isinstance(value, list)
    else:  # pragma: no cover - registry misconfiguration
        raise TypeError(f"unsupported field spec {spec!r}")
    if ok:
        return None
    return (
        f"field {name!r} must be {spec.__name__}, "
        f"got {type(value).__name__} ({value!r})"
    )


def validate_event(event: Mapping) -> None:
    """Raise :class:`SchemaError` unless ``event`` matches its schema."""
    for name, spec in BASE_FIELDS.items():
        if name not in event:
            raise SchemaError(f"event missing base field {name!r}: {event!r}")
        err = _check_type(name, event[name], spec)
        if err:
            raise SchemaError(err)
    etype = event["type"]
    schema = EVENT_SCHEMAS.get(etype)
    if schema is None:
        raise SchemaError(
            f"unknown event type {etype!r} "
            f"(known: {', '.join(sorted(EVENT_SCHEMAS))})"
        )
    for name, spec in schema.fields.items():
        if name not in event:
            raise SchemaError(f"{etype!r} event missing field {name!r}: {event!r}")
        err = _check_type(name, event[name], spec)
        if err:
            raise SchemaError(f"{etype!r} event: {err}")
    extra = set(event) - set(schema.fields) - set(BASE_FIELDS)
    if extra:
        raise SchemaError(
            f"{etype!r} event carries undocumented fields {sorted(extra)}; "
            "extend repro.observability.schema.EVENT_SCHEMAS and "
            "docs/OBSERVABILITY.md first"
        )


def validate_trace(events) -> Counter:
    """Validate a sequence of events; return the per-type counts.

    Also checks that ``seq`` is strictly increasing — NDJSON files
    stitched together out of order fail loudly here.
    """
    counts: Counter = Counter()
    last_seq = None
    for i, ev in enumerate(events):
        try:
            validate_event(ev)
        except SchemaError as exc:
            raise SchemaError(f"event #{i}: {exc}") from None
        if last_seq is not None and ev["seq"] <= last_seq:
            raise SchemaError(
                f"event #{i}: seq {ev['seq']} not increasing (previous {last_seq})"
            )
        last_seq = ev["seq"]
        counts[ev["type"]] += 1
    return counts


def validate_ndjson(path: str | Path | IO[str]) -> Counter:
    """Read an NDJSON trace file and validate every line."""
    return validate_trace(read_ndjson(path))
