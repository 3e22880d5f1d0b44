"""Deterministic random-number substrate.

Every stochastic component of the simulator (workload generation,
candidate selection, borrowing choices, Monte-Carlo estimators) draws
from an independent, reproducible stream derived from a single root
seed.  We use NumPy's ``SeedSequence`` spawning mechanism, the standard
way to obtain statistically independent streams for parallel work
(cf. the NumPy parallel-RNG guidance): child sequences are derived by
hashing, so streams never overlap regardless of how many are spawned.

Layout of the seed tree used throughout the package::

    root
    ├── run 0
    │   ├── workload stream
    │   ├── engine stream       (candidate sets, borrow choices, ...)
    │   └── per-processor streams (optional, for per-site decisions)
    ├── run 1
    │   └── ...
    └── ...

Reproducibility contract: the same ``(seed, n_runs, component order)``
always yields identical simulations, independent of which other
experiments ran before.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["RngFactory", "spawn_streams", "make_rng"]


def make_rng(seed: int | None | np.random.Generator) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an int seed, ``None`` (fresh OS entropy) or an existing
    generator (returned unchanged, allowing callers to pass streams
    through).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_streams(
    seed: int | np.random.SeedSequence | None, k: int
) -> list[np.random.Generator]:
    """Spawn ``k`` independent generators from one root seed."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(k)]


class RngFactory:
    """Hierarchical, named RNG stream factory.

    A factory wraps one ``SeedSequence`` and hands out child streams on
    demand, either anonymously (:meth:`stream`) or re-derivable by key
    (:meth:`named`).  Named derivation hashes the key into the spawn key
    so the stream for e.g. ``("run", 17, "workload")`` is the same no
    matter in which order streams were requested — this is what lets the
    experiment runner parallelise or re-run individual runs without
    perturbing the others.
    """

    def __init__(self, seed: int | np.random.SeedSequence | None = 0) -> None:
        self._root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        self._anon_counter = 0

    def stream(self) -> np.random.Generator:
        """Return the next anonymous child stream (order-dependent)."""
        self._anon_counter += 1
        child = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=(*self._root.spawn_key, 0xA5A5, self._anon_counter),
        )
        return np.random.default_rng(child)

    def named(self, *key: int | str) -> np.random.Generator:
        """Return the stream for a structural key, order-independent.

        Strings are folded to 64-bit integers with a stable FNV-1a hash
        (Python's builtin ``hash`` is salted per interpreter run and must
        not be used for reproducibility).
        """
        folded = tuple(_fold(part) for part in key)
        child = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=(*self._root.spawn_key, 0x5A5A, *folded),
        )
        return np.random.default_rng(child)

    def child_factory(self, *key: int | str) -> "RngFactory":
        """Return a sub-factory rooted at a structural key."""
        folded = tuple(_fold(part) for part in key)
        child = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=(*self._root.spawn_key, 0xC3C3, *folded),
        )
        return RngFactory(child)

    def run_streams(self, n_runs: int) -> Iterator["RngFactory"]:
        """Yield one sub-factory per experiment run."""
        for r in range(n_runs):
            yield self.child_factory("run", r)


def _fold(part: int | str) -> int:
    if isinstance(part, int):
        return part & 0xFFFFFFFF
    h = 0xCBF29CE484222325
    for byte in part.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h & 0xFFFFFFFF
