"""Batch execution: map a task function over independent seeded runs.

Every experiment in this repo is an average over many *independent*
runs — embarrassingly parallel work.  This module decides *where* those
runs execute: inline in the calling process (``native``) or across a
local ``ProcessPoolExecutor`` (``multiprocessing``).  Callers take a
:class:`BatchClient` from :func:`get_client`, or use the
:func:`parallel_map` wrapper, and never see the difference:

* **Determinism.**  A task is a plain picklable value carrying its own
  structural RNG key (:class:`repro.rng.RngFactory` named streams), and
  the task function is a pure function of it, so results are
  bit-identical on either backend and for any worker count (pinned by
  ``tests/simulation/test_backends.py``).
* **Ordering.**  Results come back in input order regardless of
  completion order, so streaming reducers (the collectors) see the same
  sequence as a serial run.
* **Loud degradation.**  A pool that cannot start falls back to inline
  execution once per client, with one :class:`BackendFallbackWarning`
  and (when a tracer is attached) one ``backend_fallback`` trace event.

The prose contract — failure semantics, the concurrency model and the
``REPRO_BACKEND``/``REPRO_JOBS`` selection rules — is
``docs/BACKENDS.md``.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "BACKENDS",
    "BackendFallbackWarning",
    "BatchClient",
    "auto_jobs",
    "get_client",
    "parallel_map",
    "resolve_backend",
]

#: valid ``--backend`` / ``REPRO_BACKEND`` values
BACKENDS = ("multiprocessing", "native")


class BackendFallbackWarning(UserWarning):
    """The process pool could not start and execution degraded to inline."""


def auto_jobs() -> int:
    """Worker count for "use the machine": all cores but one."""
    return max(1, (os.cpu_count() or 2) - 1)


def _jobs_from_env() -> int | None:
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
    if name not in BACKENDS:
        raise ValueError(
            f"REPRO_BACKEND={env!r} is not a known backend "
            f"(known: {', '.join(BACKENDS)})"
        )
    return name


def resolve_backend(
    backend: str | None = None, jobs: int | None = None
) -> tuple[str, int]:
    """Apply the selection rules; return ``(backend name, jobs)``.

    1. ``backend`` beats ``REPRO_BACKEND`` beats jobs-derived
       (``jobs > 1`` implies ``multiprocessing``, else ``native``).
    2. ``jobs`` beats ``REPRO_JOBS`` beats the backend default
       (``native`` → 1, ``multiprocessing`` → :func:`auto_jobs`).
    3. ``jobs <= 0`` (parameter or ``REPRO_JOBS``) means auto.

    Raises :class:`ValueError` listing the known names for an unknown
    backend (parameter or environment) and a malformed ``REPRO_JOBS``.
    """
    if jobs is None:
        jobs = _jobs_from_env()
    if backend is None:
        backend = _backend_from_env()
    if backend is None:
        # historical parallel_map semantics: parallelism was requested
        # iff jobs > 1; jobs=None/0/1 ran inline
        backend = "multiprocessing" if jobs is not None and jobs > 1 else "native"
    else:
        backend = backend.strip().lower()
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (known: {', '.join(BACKENDS)})"
            )
    if jobs is None:
        jobs = auto_jobs() if backend == "multiprocessing" else 1
    elif jobs <= 0:
        jobs = auto_jobs()
    return backend, jobs


class BatchClient:
    """Runs batches of independent tasks inline or on a process pool.

    Build one with :func:`get_client`.  ``backend`` is ``"native"``
    (inline, one task at a time) or ``"multiprocessing"`` (a pool of
    ``jobs`` worker processes, created lazily on the first batch of
    more than one task and reused until :meth:`close`).  ``tracer``
    receives the ``backend_fallback`` event if the pool cannot start.
    """

    def __init__(self, backend: str, jobs: int, *, tracer=None) -> None:
        self.backend = backend
        self.jobs = jobs
        self.tracer = tracer
        self.fell_back = False
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False

    @property
    def used_backend(self) -> str:
        """The backend that actually executed the work.

        ``"native"`` after a pool fallback, else :attr:`backend`.
        """
        return "native" if self.fell_back else self.backend

    def map_ordered(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        chunksize: int | None = None,
    ) -> Iterator[R]:
        """Map ``fn`` over ``items``; yield results in input order.

        Inline execution pulls ``items`` lazily, one at a time; the pool
        materialises them (chunked dispatch needs ``len``).
        ``chunksize=None`` gives the pool ``len(items) // (4 * jobs)``,
        floored at 1.
        """
        self._check_open()
        if self.backend == "native" or self.fell_back:
            yield from map(fn, items)
            return
        seq: Sequence[T] = (
            items if isinstance(items, Sequence) else list(items)
        )
        # no pool start for trivial batches: inline is strictly cheaper
        # and (tasks being pure) indistinguishable
        pool = self._ensure_pool() if len(seq) > 1 else None
        if pool is None:  # trivial batch, or pool-start failure just recorded
            yield from map(fn, seq)
            return
        if chunksize is None:
            # big enough to amortise pickling, small enough that every
            # worker gets several chunks for load balancing
            chunksize = max(1, len(seq) // (4 * self.jobs))
        results = pool.map(fn, seq, chunksize=chunksize)
        yielded = 0
        while True:
            try:
                value = next(results)
            except StopIteration:
                return
            except BrokenProcessPool as exc:
                if yielded:
                    raise  # mid-batch death: caller already saw results
                self._note_fallback(exc)
                self._teardown_pool()
                yield from map(fn, seq)
                return
            yielded += 1
            yield value

    def close(self) -> None:
        """Release the pool; idempotent.  A closed client rejects work."""
        self._teardown_pool()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{self.backend} client is closed")

    def __enter__(self) -> "BatchClient":
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- pool internals ---------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            except (OSError, PermissionError, ValueError, RuntimeError) as exc:
                self._note_fallback(exc)
                return None
        return self._pool

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _note_fallback(self, exc: BaseException) -> None:
        """Record the degradation: once per client, loudly."""
        if self.fell_back:
            return
        self.fell_back = True
        reason = f"{type(exc).__name__}: {exc}"
        warnings.warn(
            f"multiprocessing pool could not start ({reason}); "
            "falling back to the native in-process backend — results "
            "are identical, wall-clock parallelism is lost",
            BackendFallbackWarning,
            stacklevel=4,
        )
        if self.tracer is not None and getattr(self.tracer, "enabled", False):
            self.tracer.emit(
                "backend_fallback",
                requested=self.backend,
                chosen="native",
                reason=reason,
            )


def get_client(
    backend: str | None = None,
    *,
    jobs: int | None = None,
    tracer=None,
) -> BatchClient:
    """Resolve the selection rules (:func:`resolve_backend`) into a client.

    The returned client is context-managed::

        with get_client(jobs=8) as client:
            for result in client.map_ordered(fn, tasks):
                fold(result)
    """
    name, jobs = resolve_backend(backend, jobs)
    return BatchClient(name, jobs, tracer=tracer)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    jobs: int | None = None,
    chunksize: int | None = None,
    backend: str | None = None,
    tracer=None,
) -> Iterator[R]:
    """Map ``fn`` over ``items`` on a fresh client; results in input order.

    ``fn`` and every item must be picklable when the pool runs (the
    experiment harness passes plain configs + integer run indices).
    ``backend``/``jobs`` follow :func:`resolve_backend`; ``chunksize``
    and ``tracer`` are as for :meth:`BatchClient.map_ordered` and
    :func:`get_client`.
    """
    with get_client(backend, jobs=jobs, tracer=tracer) as client:
        yield from client.map_ordered(fn, items, chunksize=chunksize)
