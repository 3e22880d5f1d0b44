"""Process-pool backend (``ProcessPoolExecutor``) with graceful startup.

Workers are separate *processes*, not threads: simulation runs are
CPU-bound numpy work, and process isolation is also what guarantees
determinism — no shared mutable state exists, so results cannot depend
on scheduling.  Each task is a plain picklable value (config + run
index); each worker derives its own RNG streams from the task's
structural key, runs to completion and ships a plain-data result back.
The parent folds results in submission order, so any streaming reducer
sees the same sequence as a serial run.

Failure semantics (the part a silent pool hides):

* **Pool start failure** — sandboxes, missing ``/dev/shm`` semaphores,
  fork limits.  The client degrades to :class:`NativeClient` exactly
  once, with one :class:`BackendFallbackWarning` and (when a tracer is
  attached) one ``backend_fallback`` trace event, then answers every
  subsequent batch inline.  Results are bit-identical either way — the
  fallback changes *where* tasks run, never *what* they compute.
* **Pool death before the first result** — treated as a start failure
  (tasks are pure, nothing has been observed yet, rerunning is safe).
* **Pool death mid-batch** — re-raised: results have already streamed
  to the caller, so a silent rerun could double-fold them.
* **Task exceptions** — propagate unchanged, as they would inline.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from repro.simulation.backends.base import (
    BackendFallbackWarning,
    BatchClient,
    Capabilities,
)
from repro.simulation.backends.native import NativeClient

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["MultiprocessingClient", "auto_jobs"]


def auto_jobs() -> int:
    """Worker count for "use the machine": all cores but one."""
    return max(1, (os.cpu_count() or 2) - 1)


class MultiprocessingClient(BatchClient):
    """Fan tasks out across a local process pool, fold back in order.

    Parameters
    ----------
    jobs:
        Worker-process count; ``None`` or ``<= 0`` means
        :func:`auto_jobs`.  The pool is created lazily on the first
        multi-task batch and reused until :meth:`close`.
    tracer:
        Optional :class:`repro.observability.tracer.Tracer`; receives
        the ``backend_fallback`` event if the pool cannot start.
    """

    name = "multiprocessing"
    capabilities = Capabilities(parallel=True, streaming=False)

    def __init__(self, jobs: int | None = None, *, tracer=None) -> None:
        super().__init__()
        self.jobs = jobs if jobs is not None and jobs > 0 else auto_jobs()
        self.tracer = tracer
        self.fell_back = False
        self._fallback: NativeClient | None = None
        self._pool: ProcessPoolExecutor | None = None

    @property
    def used_backend(self) -> str:
        return "native" if self.fell_back else self.name

    def map_ordered(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        chunksize: int | None = None,
    ) -> Iterator[R]:
        self._check_open()
        # contextualise before any dispatch decision so the propagated
        # trace context reaches tasks identically on the pool, on the
        # trivial-batch inline path, and after a native fallback (the
        # fallback client carries no context of its own — items are
        # already wrapped by the time it sees them)
        fn, items = self._contextualise(fn, items)
        if self.fell_back:
            yield from self._fallback.map_ordered(fn, items)
            return
        seq: Sequence[T] = (
            items if isinstance(items, Sequence) else list(items)
        )
        if len(seq) <= 1:
            # no pool start for trivial batches: inline is strictly
            # cheaper and (tasks being pure) indistinguishable
            for item in seq:
                yield fn(item)
            return
        pool = self._ensure_pool()
        if pool is None:  # pool-start failure, degradation just recorded
            yield from self._fallback.map_ordered(fn, seq)
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
                yield from self._fallback.map_ordered(fn, seq)
                return
            yielded += 1
            yield value

    def close(self) -> None:
        self._teardown_pool()
        if self._fallback is not None:
            self._fallback.close()
        super().close()

    # -- internals --------------------------------------------------------
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
        self._fallback = NativeClient()
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
                requested=self.name,
                chosen="native",
                reason=reason,
            )
