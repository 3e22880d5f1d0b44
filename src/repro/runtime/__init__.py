"""Distributed task runtime on top of the balancer.

Everything else in this repo treats load packets as anonymous counts —
that is the paper's model and all theorems live there.  This package
closes the loop to *real* computations: packets become actual task
objects (subproblems), processors execute them, and the balancer's
migration decisions move the concrete objects between local queues.

* :mod:`repro.runtime.practical` — the deployed variant of the
  algorithm as a synchronous balancer that reports per-tick transfer
  lists (the paper's applications [7, 8] used exactly this shape:
  total-load factor trigger, no virtual classes);
* :mod:`repro.runtime.machine` — :class:`TaskMachine`: per-processor
  task deques driven by any :class:`~repro.runtime.machine.TaskApp`;
* real applications live in :mod:`repro.apps.tsp` (branch & bound for
  the symmetric TSP — the paper's own showcase application [8]) and
  :mod:`repro.apps.nqueens` (backtrack search / dynamic tree
  unfolding, the related-work scenario [5, 19]).

The outputs are verifiable: the distributed TSP solver must return the
same optimal tour length as exhaustive search, for every parameter
setting and seed — a much stronger correctness check than any load
statistic.
"""

from repro.runtime.practical import PracticalBalancer
from repro.runtime.machine import TaskApp, TaskMachine, MachineResult

__all__ = [
    "PracticalBalancer",
    "TaskApp",
    "TaskMachine",
    "MachineResult",
]
