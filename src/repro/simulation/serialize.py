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
"""

from __future__ import annotations

import json
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
