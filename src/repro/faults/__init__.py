"""Fault injection & resilience: crashes, lost messages, stragglers.

The paper's model (and every engine in :mod:`repro.core`) assumes a
perfect network.  This package is the controlled way to break it:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a declarative,
  serialisable schedule of crash/recover windows, straggler windows,
  temporary partitions and a per-message loss probability;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the per-run
  oracle the engines query (with its own plan-seeded RNG stream, so a
  run is a pure function of ``(engine seed, plan)``).

The resilience statistics — imbalance spike height and time-to-rebalance
back inside the Theorem-4 band ``f^2·δ/(δ+1−f)·(E(l_j)+C)`` — live with
the band statistic itself in :mod:`repro.metrics.band`.

Consumers: ``core.async_engine`` (crashes decline everything, lost
completions are reclaimed by a timeout, stragglers stretch latency),
``runtime.practical`` / ``runtime.machine`` (crash-lost tasks re-execute
from tracked lineage, keeping application results exact), the ``repro
chaos`` CLI and :mod:`repro.experiments.resilience`.  The model and
recovery semantics are documented in ``docs/RESILIENCE.md``.
"""

from repro.faults.injector import FaultInjector, as_injector
from repro.faults.plan import (
    NO_FAULTS,
    CrashWindow,
    FaultPlan,
    Partition,
    StragglerWindow,
)

__all__ = [
    "CrashWindow",
    "StragglerWindow",
    "Partition",
    "FaultPlan",
    "NO_FAULTS",
    "FaultInjector",
    "as_injector",
]
