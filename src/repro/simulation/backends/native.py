"""In-process backend: zero overhead, the ``jobs=1`` path.

Runs every task inline in the calling process, one at a time, in
submission order.  This is the default backend, the semantics every
other backend must reproduce bit-for-bit, and the degradation target
when a parallel backend cannot start.  Library users and tests never
depend on multiprocessing semantics because this path exists.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, TypeVar

from repro.simulation.backends.base import BatchClient, Capabilities

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["NativeClient"]


class NativeClient(BatchClient):
    """Sequential in-process execution (the reference backend).

    ``map_ordered`` is a lazy generator: task iterables are consumed
    one element at a time and results yielded immediately, so streaming
    reducers over huge run sets stay O(1) in memory and nothing is
    pulled before the caller iterates.
    """

    name = "native"
    capabilities = Capabilities(parallel=False, streaming=True)

    def __init__(self, jobs: int | None = None, *, tracer=None) -> None:
        # jobs/tracer accepted for constructor uniformity across the
        # registry; a sequential inline backend uses neither
        super().__init__()

    def map_ordered(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        chunksize: int | None = None,
    ) -> Iterator[R]:
        self._check_open()
        fn, items = self._contextualise(fn, items)
        for item in items:
            yield fn(item)
