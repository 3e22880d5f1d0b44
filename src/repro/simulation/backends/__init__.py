"""Pluggable batch-execution backends behind one client interface.

Every experiment in this repo is an average over many independent,
individually-seeded runs.  This package decides *where* those runs
execute — inline or across a local process pool — behind one
:class:`~repro.simulation.backends.base.BatchClient` interface, so
sweeps, the bench harness and the chaos harness fan out unchanged.

* :mod:`~repro.simulation.backends.base` — the ``BatchClient``
  contract: ``submit``/``gather``/``map_ordered``, context-managed
  lifecycle, :class:`~repro.simulation.backends.base.Capabilities`
  flags.
* :mod:`~repro.simulation.backends.native` — in-process, zero
  overhead; the reference semantics and the degradation target.
* :mod:`~repro.simulation.backends.pool` — ``ProcessPoolExecutor``
  fan-out with ordered streaming fold and graceful pool-start
  degradation (one warning + a ``backend_fallback`` trace event).
* :mod:`~repro.simulation.backends.registry` — backend registration
  and the ``REPRO_BACKEND``/``REPRO_JOBS`` selection rules.

``docs/BACKENDS.md`` is the prose contract (determinism, ordering,
failure semantics, how to add a backend);
:func:`repro.simulation.parallel.parallel_map` is the thin
functional shim most callers use.
"""

from repro.simulation.backends.base import (
    BackendFallbackWarning,
    BackendUnavailable,
    BatchClient,
    BatchHandle,
    Capabilities,
)
from repro.simulation.backends.native import NativeClient
from repro.simulation.backends.pool import MultiprocessingClient, auto_jobs
from repro.simulation.backends.registry import (
    available_backends,
    get_client,
    jobs_from_env,
    register_backend,
    resolve_backend,
)

__all__ = [
    "BackendFallbackWarning",
    "BackendUnavailable",
    "BatchClient",
    "BatchHandle",
    "Capabilities",
    "NativeClient",
    "MultiprocessingClient",
    "auto_jobs",
    "available_backends",
    "get_client",
    "jobs_from_env",
    "register_backend",
    "resolve_backend",
]
