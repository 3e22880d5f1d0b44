"""Simulation driver: clocks, run loop, result containers.

The paper's timing model is a *global* unit-time clock (one
generate/consume per processor per tick) plus *local* per-processor
clocks that tick once per balancing operation the processor takes part
in.  :class:`~repro.simulation.driver.Simulation` wires a workload
model to an engine (the paper's algorithm or any baseline implementing
the same protocol) and records per-tick load snapshots.
"""

from repro.simulation.driver import Simulation, run_simulation
from repro.simulation.result import RunResult
from repro.simulation.eventqueue import Event, EventQueue
from repro.simulation.parallel import (
    BatchClient,
    get_client,
    parallel_map,
    resolve_backend,
)
from repro.simulation.serialize import (
    load_engine_state,
    load_result,
    load_trace,
    save_engine_state,
    save_result,
    save_trace,
)

__all__ = [
    "Simulation",
    "run_simulation",
    "RunResult",
    "Event",
    "EventQueue",
    "BatchClient",
    "get_client",
    "resolve_backend",
    "parallel_map",
    "save_result",
    "load_result",
    "save_engine_state",
    "load_engine_state",
    "save_trace",
    "load_trace",
]
