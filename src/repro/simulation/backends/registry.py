"""Backend registry and selection rules (``REPRO_BACKEND``/``REPRO_JOBS``).

One function matters to harness code: :func:`get_client`.  It resolves
*which* backend runs a batch and *how many* workers it gets, from (in
priority order) explicit parameters, the environment, and back-compat
defaults — the full decision table is in ``docs/BACKENDS.md``:

1. ``backend=`` parameter beats ``REPRO_BACKEND`` beats jobs-derived
   (``jobs > 1`` implies ``multiprocessing``, else ``native`` — the
   historical ``parallel_map(jobs=...)`` behaviour).
2. ``jobs=`` parameter beats ``REPRO_JOBS`` beats the backend default
   (``native`` → 1, ``multiprocessing`` → all cores but one).
3. ``REPRO_JOBS=0`` (or negative) means "auto": all cores but one.

Third-party backends register with :func:`register_backend`; the name
becomes a valid ``REPRO_BACKEND`` value immediately.
"""

from __future__ import annotations

import os
from typing import Type

from repro.simulation.backends.base import BatchClient
from repro.simulation.backends.native import NativeClient
from repro.simulation.backends.pool import MultiprocessingClient, auto_jobs

__all__ = [
    "available_backends",
    "get_client",
    "register_backend",
    "resolve_backend",
    "jobs_from_env",
]

_REGISTRY: dict[str, Type[BatchClient]] = {}


def register_backend(cls: Type[BatchClient]) -> Type[BatchClient]:
    """Class decorator: make ``cls`` selectable by its ``name``.

    The constructor must accept ``(jobs, *, tracer=None)``; re-using a
    taken name (other than re-registering the same class) is an error.
    """
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(f"{cls!r} must define a non-empty 'name' attribute")
    taken = _REGISTRY.get(name)
    if taken is not None and taken is not cls:
        raise ValueError(f"backend name {name!r} already taken by {taken!r}")
    _REGISTRY[name] = cls
    return cls


for _cls in (NativeClient, MultiprocessingClient):
    register_backend(_cls)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted (valid ``REPRO_BACKEND`` values)."""
    return tuple(sorted(_REGISTRY))


def jobs_from_env() -> int | None:
    """Worker count from ``REPRO_JOBS``: unset → None, ``<= 0`` → auto."""
    env = os.environ.get("REPRO_JOBS")
    if not env:
        return None
    try:
        jobs = int(env)
    except ValueError:
        raise ValueError(
            f"REPRO_JOBS must be an integer, got {env!r}"
        ) from None
    return auto_jobs() if jobs <= 0 else jobs


def _backend_from_env() -> str | None:
    env = os.environ.get("REPRO_BACKEND")
    if not env:
        return None
    name = env.strip().lower()
    if name not in _REGISTRY:
        raise ValueError(
            f"REPRO_BACKEND={env!r} is not a registered backend "
            f"(known: {', '.join(available_backends())})"
        )
    return name


def resolve_backend(
    backend: str | None = None, jobs: int | None = None
) -> tuple[str, int]:
    """Apply the selection rules; return ``(backend name, jobs)``.

    Raises :class:`ValueError` for unknown backend names (parameter or
    environment) and malformed ``REPRO_JOBS`` values.
    """
    if jobs is None:
        jobs = jobs_from_env()
    if backend is None:
        backend = _backend_from_env()
    if backend is None:
        # historical parallel_map semantics: parallelism was requested
        # iff jobs > 1; jobs=None/0/1 ran inline
        backend = "multiprocessing" if jobs is not None and jobs > 1 else "native"
    else:
        backend = backend.strip().lower()
        if backend not in _REGISTRY:
            raise ValueError(
                f"unknown backend {backend!r} "
                f"(known: {', '.join(available_backends())})"
            )
    if jobs is None:
        jobs = auto_jobs() if _REGISTRY[backend].capabilities.parallel else 1
    elif jobs <= 0:
        jobs = auto_jobs()
    return backend, jobs


def get_client(
    backend: str | None = None,
    *,
    jobs: int | None = None,
    tracer=None,
) -> BatchClient:
    """Resolve the selection rules and construct the client.

    The returned client is context-managed::

        with get_client(jobs=8) as client:
            for result in client.map_ordered(fn, tasks):
                fold(result)
    """
    name, jobs = resolve_backend(backend, jobs)
    return _REGISTRY[name](jobs, tracer=tracer)
