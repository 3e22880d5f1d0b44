"""Dynamic & heterogeneous networks: churn, join/leave, speed-aware balancing.

The paper proves its guarantees on a *static complete network of
identical processors*.  This subsystem opens that scenario space on top
of the static :mod:`repro.network` topologies (docs/DYNAMICS.md is the
contract):

* :class:`~repro.dynnet.churn.ChurnPlan` — a seed-replayable schedule
  of edge rewires (connectivity-preserving) and node leave/rejoin
  windows, pure data like a :class:`~repro.faults.plan.FaultPlan`;
* :class:`~repro.dynnet.churn.ChurnSchedule` — the compiled, validated
  event timeline of one plan over one base topology;
* :class:`~repro.dynnet.hetero.HeterogeneousProfile` — per-processor
  speeds and capacities with capacity-normalised load accounting;
* :class:`~repro.dynnet.network.DynamicNetwork` — the runtime: applies
  churn events as simulation time passes, tracks the live adjacency,
  and implements the engines' :class:`~repro.core.selection.
  CandidateSelector` protocol with partner draws restricted to the
  live neighbourhood and weighted by partner speed.

Byte-identity contract: with churn off, a homogeneous profile and a
complete base topology, :class:`DynamicNetwork` delegates selection to
the stock :class:`~repro.core.selection.GlobalRandomSelector`, so the
engines' RNG streams and traces are bit-for-bit what they are without
the subsystem (pinned by ``tests/dynnet/test_engine_integration.py``).
"""

from repro.dynnet.churn import (
    NO_CHURN,
    ChurnEvent,
    ChurnPlan,
    ChurnSchedule,
    LeaveWindow,
    RewireEvent,
)
from repro.dynnet.hetero import HeterogeneousProfile
from repro.dynnet.network import DynamicNetwork

__all__ = [
    "NO_CHURN",
    "ChurnEvent",
    "ChurnPlan",
    "ChurnSchedule",
    "LeaveWindow",
    "RewireEvent",
    "HeterogeneousProfile",
    "DynamicNetwork",
]
