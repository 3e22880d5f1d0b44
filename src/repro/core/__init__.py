"""The paper's algorithm: primitives, single-producer models, full engine.

* :mod:`repro.core.balance` — even ±1 splitting and the *snake*
  (boustrophedon) matrix distribution realising the appendix's
  invariants.
* :mod:`repro.core.triggers` — factor-``f`` trigger policies.
* :mod:`repro.core.selection` — candidate-set selection strategies.
* :mod:`repro.core.opg` / :mod:`repro.core.opgc` — the packet-exact
  one-processor-generator(-consumer) models of section 3.
* :mod:`repro.core.engine` — the full n-processor generator/consumer
  algorithm of section 4 + appendix, including the borrowing protocol
  (:mod:`repro.core.borrowing`) with its Table-1 counters.
* :mod:`repro.core.ledger` — the compact active-class representation
  backing the engine's ``d``/``b`` matrices.
* :mod:`repro.core.columnar` — the struct-of-arrays tick engine: the
  whole tick as a fixed pass pipeline, bit-identical to the scalar
  sweep, interactive at n = 10⁵–10⁶ (see docs/PERFORMANCE.md).
* :mod:`repro.core.rngadvance` — bit-exact RNG fast-forward kernels
  backing the columnar engine's permutation skip.
"""

from repro.core.balance import even_split, snake_distribute
from repro.core.triggers import FactorTrigger, TriggerDecision
from repro.core.selection import (
    CandidateSelector,
    GlobalRandomSelector,
    NeighborhoodSelector,
)
from repro.core.opg import OPGResult, simulate_opg
from repro.core.opgc import (
    DecreaseResult,
    OPGCResult,
    simulate_decrease,
    simulate_opgc,
)
from repro.core.engine import Engine, EngineConfig
from repro.core.columnar import ColumnarEngine, PassPipeline, TickPass
from repro.core.ledger import ClassLedger
from repro.core.borrowing import BorrowCounters
from repro.core.async_engine import (
    AsyncEngine,
    AsyncResult,
    ConstantRates,
    TableRates,
)

__all__ = [
    "even_split",
    "snake_distribute",
    "FactorTrigger",
    "TriggerDecision",
    "CandidateSelector",
    "GlobalRandomSelector",
    "NeighborhoodSelector",
    "OPGResult",
    "simulate_opg",
    "OPGCResult",
    "simulate_opgc",
    "DecreaseResult",
    "simulate_decrease",
    "Engine",
    "EngineConfig",
    "ColumnarEngine",
    "PassPipeline",
    "TickPass",
    "ClassLedger",
    "BorrowCounters",
    "AsyncEngine",
    "AsyncResult",
    "ConstantRates",
    "TableRates",
]
