"""Persistence: save and restore runs, engine state and traces.

Long experiments want three things on disk:

* **results** — a :class:`~repro.simulation.result.RunResult` as a
  ``.npz`` bundle (arrays) plus embedded JSON (counters, metadata),
  reloadable into the identical object;
* **engine checkpoints** — the full state of an
  :class:`~repro.core.engine.Engine` (``d``, ``b``, ``l_old``, clocks,
  counters) so a simulation can stop and resume bit-exactly given the
  same downstream RNG stream; each ledger is stored as its diagonal
  plus its CSR off-diagonal entries (:meth:`~repro.core.ledger.
  ClassLedger.to_csr`), O(n + active entries) on disk and in memory;
* **workload traces** — the action matrices of
  :class:`~repro.workload.trace.RecordedWorkload`, the currency of
  cross-balancer comparisons.

Format: a single ``.npz`` per object with a ``__schema__`` marker;
everything NumPy-native, no pickling of code (safe to share).

The JSON study documents (``repro/resilience``, ``repro/dynamics``,
``repro/service``) share one contract: each declares a :class:`Shape`
next to its builder, :func:`check_document` checks a document against
it, and :func:`write_document` / :func:`load_document` are the only
writer and loader.  Documents are strict JSON: an undefined statistic
is ``null``, never ``NaN``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.borrowing import BorrowCounters
from repro.core.columnar import ColumnarEngine
from repro.core.engine import Engine, EngineConfig
from repro.core.ledger import ClassLedger
from repro.params import LBParams
from repro.simulation.result import RunResult
from repro.workload.trace import RecordedWorkload

__all__ = [
    "NUMBER",
    "Nullable",
    "Series",
    "Shape",
    "check_document",
    "write_document",
    "load_document",
    "save_result",
    "load_result",
    "save_engine_state",
    "load_engine_state",
    "save_trace",
    "load_trace",
]

_RESULT_SCHEMA = "repro.run_result.v1"
_ENGINE_SCHEMA = "repro.engine_state.v2"
_TRACE_SCHEMA = "repro.trace.v1"
# one ledger's arrays in a checkpoint, in ClassLedger.from_csr order
_LEDGER_PARTS = ("diag", "indptr", "classes", "counts")


def _check_schema(data: Any, expected: str, path: Path) -> None:
    found = str(data.get("__schema__", "?"))
    if found != expected:
        raise ValueError(
            f"{path} holds schema {found!r}, expected {expected!r}"
        )


# -- RunResult ---------------------------------------------------------------


def save_result(result: RunResult, path: str | Path) -> Path:
    """Write a run result to ``path`` (.npz)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        __schema__=np.array(_RESULT_SCHEMA),
        loads=result.loads,
        counters=np.array(json.dumps(result.counters.as_dict())),
        total_ops=np.array(result.total_ops),
        packets_migrated=np.array(result.packets_migrated),
        meta=np.array(json.dumps(dict(result.meta))),
    )
    return path


def load_result(path: str | Path) -> RunResult:
    """Reload a saved run result."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        _check_schema(data, _RESULT_SCHEMA, path)
        counters = BorrowCounters()
        for k, v in json.loads(str(data["counters"])).items():
            setattr(counters, k, int(v))
        return RunResult(
            loads=data["loads"],
            counters=counters,
            total_ops=int(data["total_ops"]),
            packets_migrated=int(data["packets_migrated"]),
            meta=json.loads(str(data["meta"])),
        )


# -- Engine checkpoints --------------------------------------------------------


def save_engine_state(engine: Engine, path: str | Path) -> Path:
    """Checkpoint an engine's full state (not its RNG — pass the stream
    explicitly on resume for reproducibility across checkpoints)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cfg = engine.config
    ledgers = {
        f"{name}_{part}": arr
        for name, led in (("d", engine.d), ("b", engine.b))
        for part, arr in zip(_LEDGER_PARTS, (led.diag, *led.to_csr()))
    }
    np.savez_compressed(
        path,
        __schema__=np.array(_ENGINE_SCHEMA),
        n=np.array(cfg.n),
        f=np.array(cfg.params.f),
        delta=np.array(cfg.params.delta),
        C=np.array(cfg.params.C),
        refresh_participants=np.array(cfg.refresh_participants),
        strict_trigger=np.array(cfg.strict_trigger),
        **ledgers,
        l_old=engine.l_old,
        local_time=engine.local_time,
        global_time=np.array(engine.global_time),
        total_ops=np.array(engine.total_ops),
        packets_migrated=np.array(engine.packets_migrated),
        total_generated=np.array(engine.total_generated),
        total_consumed=np.array(engine.total_consumed),
        counters=np.array(json.dumps(engine.counters.as_dict())),
    )
    return path


def load_engine_state(
    path: str | Path, *, rng: int | np.random.Generator | None = 0
) -> ColumnarEngine:
    """Restore a checkpointed engine (supply the RNG stream to use from
    here on)."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        _check_schema(data, _ENGINE_SCHEMA, path)
        params = LBParams(
            f=float(data["f"]),
            delta=int(data["delta"]),
            C=int(data["C"]),
            require_provable=False,
        )
        engine = ColumnarEngine(
            EngineConfig(
                n=int(data["n"]),
                params=params,
                refresh_participants=bool(data["refresh_participants"]),
                strict_trigger=bool(data["strict_trigger"]),
            ),
            rng=rng,
        )
        engine.d, engine.b = (
            ClassLedger.from_csr(*(data[f"{name}_{p}"] for p in _LEDGER_PARTS))
            for name in ("d", "b")
        )
        engine.l = engine.d.row_sums.copy()
        engine.l_old = data["l_old"].copy()
        engine.local_time = data["local_time"].copy()
        engine.global_time = int(data["global_time"])
        engine.total_ops = int(data["total_ops"])
        engine.packets_migrated = int(data["packets_migrated"])
        engine.total_generated = int(data["total_generated"])
        engine.total_consumed = int(data["total_consumed"])
        for k, v in json.loads(str(data["counters"])).items():
            setattr(engine.counters, k, int(v))
        return engine


# -- Traces ---------------------------------------------------------------------


def save_trace(trace: RecordedWorkload, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path, __schema__=np.array(_TRACE_SCHEMA), matrix=trace.matrix
    )
    return path


def load_trace(path: str | Path) -> RecordedWorkload:
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        _check_schema(data, _TRACE_SCHEMA, path)
        return RecordedWorkload(data["matrix"].copy())


# -- JSON study documents ------------------------------------------------------

#: a finite int or float (``bool`` is not a number here)
NUMBER = (int, float)


@dataclass(frozen=True, slots=True)
class Nullable:
    """Shape of a key that is ``null`` or matches ``spec``."""

    spec: Any


class Series(dict):
    """A nested shape whose fields are lists of one common length."""


@dataclass(frozen=True, slots=True)
class Shape:
    """The declarative contract of one tagged JSON document.

    ``fields`` maps each required key (besides ``schema`` and
    ``version``) to a spec: a type or tuple of types (:data:`NUMBER`
    for finite numbers), a ``frozenset`` of allowed names, a nested
    ``dict`` of specs (:class:`Series` for equal-length lists), a
    one-item ``list`` ``[spec]`` for a list of such values, or
    :class:`Nullable`.  ``check`` adds the cross-field rules a spec
    cannot say; it must tolerate malformed input.
    """

    schema: str
    fields: dict
    check: Callable[[dict], list[str]] | None = None

    @property
    def kind(self) -> str:
        return self.schema.rpartition("/")[2]


def _check(value: Any, spec: Any, path: str, problems: list[str]) -> None:
    where = path or "doc"
    if isinstance(spec, Nullable):
        if value is not None:
            _check(value, spec.spec, path, problems)
    elif isinstance(spec, dict):
        if not isinstance(value, dict):
            problems.append(f"{where}: expected dict, got {type(value).__name__}")
            return
        for key, sub in spec.items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}" if path else key, problems)
            else:
                problems.append(f"{where}: missing key {key!r}")
        if isinstance(spec, Series):
            lengths = {len(value[k]) for k in spec if isinstance(value.get(k), list)}
            if len(lengths) > 1:
                problems.append(f"{where}: unequal series lengths {sorted(lengths)}")
    elif isinstance(spec, list):
        if not isinstance(value, list):
            problems.append(f"{where}: expected list, got {type(value).__name__}")
            return
        for i, item in enumerate(value):
            _check(item, spec[0], f"{where}[{i}]", problems)
    elif isinstance(spec, frozenset):
        if not isinstance(value, str) or value not in spec:
            problems.append(f"{where}: unknown name {value!r}")
    elif isinstance(value, bool) or not isinstance(value, spec):
        types = spec if isinstance(spec, tuple) else (spec,)
        problems.append(
            f"{where}: expected {'|'.join(t.__name__ for t in types)}, "
            f"got {type(value).__name__}"
        )
    elif isinstance(value, float) and not math.isfinite(value):
        problems.append(f"{where}: {value!r} is not a finite number")


def check_document(doc: Any, shape: Shape) -> list[str]:
    """Problems of ``doc`` against ``shape`` (empty when it conforms).

    Structural (keys, types, finiteness, series alignment, the shape's
    own cross-field rules), not behavioural: the tests assert what a
    freshly built document says.
    """
    problems: list[str] = []
    if not isinstance(doc, dict) or doc.get("schema") != shape.schema:
        problems.append(f"doc.schema: must be {shape.schema!r}")
    _check(doc, {"version": int, **shape.fields}, "", problems)
    if shape.check is not None and isinstance(doc, dict):
        problems.extend(shape.check(doc))
    return problems


def _require_valid(path: str | Path, shape: Shape, problems: list[str]) -> None:
    if problems:
        raise ValueError(
            f"{path} is not a valid {shape.kind} document:\n  "
            + "\n  ".join(problems)
        )


def write_document(path: str | Path, doc: dict, shape: Shape) -> Path:
    """Check ``doc`` against ``shape`` and write it as strict JSON.

    Raises :class:`ValueError` (and writes nothing) when the document
    does not conform.
    """
    _require_valid(path, shape, check_document(doc, shape))
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    return path


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not JSON")


def load_document(path: str | Path, shape: Shape) -> dict:
    """Read a document written by :func:`write_document` and check it.

    Raises :class:`ValueError` naming the file and every problem when
    it is not strict JSON (``NaN``/``Infinity``) or does not conform.
    """
    try:
        doc = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except ValueError as exc:
        problems = [str(exc)]
    else:
        problems = check_document(doc, shape)
    _require_valid(path, shape, problems)
    return doc
