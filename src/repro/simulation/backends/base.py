"""The ``BatchClient`` interface: what every execution backend promises.

Every experiment in this repo is an average over many *independent*
runs — embarrassingly parallel work.  A :class:`BatchClient` executes
batches of such tasks; where and how (inline, a process pool) is the
backend's business, invisible to callers.
The full prose contract — determinism, ordering, capability flags,
failure semantics, selection rules — lives in ``docs/BACKENDS.md``;
this module is its machine half.

The contract in brief
---------------------
* **Determinism.**  A task is a plain picklable value carrying its own
  structural RNG key (:class:`repro.rng.RngFactory` named streams).
  The task function must be a pure function of the task value, so a
  batch's results are bit-identical whether executed serially, in any
  order, or across any number of workers.  Backends may not inject
  state into tasks.
* **Ordering.**  :meth:`BatchClient.map_ordered` and
  :meth:`BatchClient.gather` return results in *submission order*
  regardless of completion order, so streaming reducers (the
  collectors) see the same sequence as a serial run.
* **Lifecycle.**  Clients are context managers; ``close()`` releases
  pools/connections.  A closed client may not accept new batches.
* **Capabilities.**  :attr:`BatchClient.capabilities` declares what a
  backend can do, so harness code can branch on facts instead of
  names (e.g. only ``streaming`` backends consume lazy iterables one
  item at a time).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable, Iterator, TypeVar

from repro.observability.telemetry import TraceContext, set_current_context

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "BackendUnavailable",
    "BackendFallbackWarning",
    "BatchHandle",
    "Capabilities",
    "BatchClient",
]


class _ContextualTask:
    """Picklable wrapper installing the propagated trace context.

    The backends enumerate the batch and wrap the task function so each
    worker sees :func:`repro.observability.telemetry.current_context`
    with its own task index stamped as ``worker`` *before* the task
    function runs — the index is the submission position, so the
    stamped context is deterministic regardless of which OS process
    executes the task.  The wrapper composes with chunked ``pool.map``
    dispatch because it travels with the function, not the pool.
    """

    __slots__ = ("fn", "ctx")

    def __init__(self, fn: Callable, ctx: TraceContext) -> None:
        self.fn = fn
        self.ctx = ctx

    def __call__(self, pair):
        index, item = pair
        set_current_context(self.ctx.child(worker=index))
        try:
            return self.fn(item)
        finally:
            set_current_context(None)


class BackendUnavailable(RuntimeError):
    """The selected backend cannot execute work in this environment."""


class BackendFallbackWarning(UserWarning):
    """A parallel backend could not start and degraded to ``native``."""


@dataclass(frozen=True, slots=True)
class Capabilities:
    """What a backend can do (facts, not names — branch on these).

    Attributes
    ----------
    parallel:
        Tasks of one batch may execute concurrently.  ``False`` means
        strictly sequential in-process execution.
    streaming:
        ``map_ordered`` consumes lazy task iterables one item at a
        time and never materialises them — O(1) memory over huge run
        sets.  Non-streaming backends materialise the iterable
        (chunked dispatch needs ``len``).
    """

    parallel: bool = False
    streaming: bool = False


@dataclass(slots=True)
class BatchHandle:
    """Opaque ticket for a submitted batch, redeemed by ``gather``.

    ``backend`` and ``batch_id`` identify the submission for logs and
    errors; ``pending`` is backend-private state (an iterator, a future
    list, a wire token) that callers must not touch.
    """

    backend: str
    batch_id: int
    size: int
    pending: Any


class BatchClient(ABC):
    """Abstract batch-execution client (see module docstring).

    Subclasses set the class attributes ``name`` (the registry key and
    ``REPRO_BACKEND`` value) and ``capabilities``, and implement
    :meth:`map_ordered`; ``submit``/``gather`` have default
    implementations on top of it that preserve submission order across
    interleaved batches.
    """

    name: ClassVar[str]
    capabilities: ClassVar[Capabilities]

    def __init__(self) -> None:
        self._next_batch = 0
        self._handles: dict[int, BatchHandle] = {}
        self._closed = False
        #: optional TraceContext propagated to every task of every
        #: subsequent batch (see docs/OBSERVABILITY.md, "Telemetry")
        self.trace_context: TraceContext | None = None

    # -- trace-context propagation ---------------------------------------
    def _contextualise(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> tuple[Callable, Iterable]:
        """Wrap ``(fn, items)`` so tasks run under :attr:`trace_context`.

        A no-op when no context is set — the common case pays one
        ``None`` check.  Otherwise items become ``(index, item)`` pairs
        (lazily, preserving streaming) and ``fn`` a picklable wrapper
        installing ``trace_context.child(worker=index)`` in whatever
        process runs the task.
        """
        ctx = self.trace_context
        if ctx is None:
            return fn, items
        return _ContextualTask(fn, ctx), enumerate(items)

    # -- core primitive --------------------------------------------------
    @abstractmethod
    def map_ordered(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        chunksize: int | None = None,
    ) -> Iterator[R]:
        """Map ``fn`` over ``items``; yield results in input order."""

    # -- submit / gather on top of map_ordered ---------------------------
    def submit(self, fn: Callable[[T], R], batch: Iterable[T]) -> BatchHandle:
        """Dispatch one batch; returns a handle for :meth:`gather`.

        The default implementation materialises the batch and starts an
        ordered map over it.  Backends with true asynchronous dispatch
        override this to begin execution immediately.
        """
        self._check_open()
        tasks = list(batch)
        handle = BatchHandle(
            backend=self.name,
            batch_id=self._next_batch,
            size=len(tasks),
            pending=self.map_ordered(fn, tasks),
        )
        self._next_batch += 1
        self._handles[handle.batch_id] = handle
        return handle

    def gather(self, handle: BatchHandle) -> list:
        """Block until ``handle``'s batch is done; results in order.

        A handle is single-use: gathering it twice raises.
        """
        stored = self._handles.pop(handle.batch_id, None)
        if stored is None or stored is not handle:
            raise ValueError(
                f"unknown or already-gathered handle "
                f"{handle.backend}#{handle.batch_id}"
            )
        return list(handle.pending)

    # -- lifecycle --------------------------------------------------------
    @property
    def used_backend(self) -> str:
        """The backend that actually executed the work.

        Differs from :attr:`name` only after a degradation (the
        multiprocessing client falls back to ``native`` when its pool
        cannot start — see ``docs/BACKENDS.md``).
        """
        return self.name

    def close(self) -> None:
        """Release backend resources; idempotent."""
        self._closed = True
        self._handles.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{self.name} client is closed")

    def __enter__(self) -> "BatchClient":
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        caps = self.capabilities
        return (
            f"<{type(self).__name__} name={self.name!r} "
            f"parallel={caps.parallel} "
            f"streaming={caps.streaming}>"
        )
