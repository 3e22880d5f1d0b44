"""Candidate-set selection strategies.

The analysed algorithm draws the ``delta`` balancing partners uniformly
at random from *all* other processors (section 2: "the processors can be
connected in any way" — the constant-cost balancing assumption makes the
physical topology irrelevant to the analysis).  That is
:class:`GlobalRandomSelector`.

The paper's closing "further research" direction — taking locality on a
specific network into account — is provided as
:class:`NeighborhoodSelector`, which restricts candidates to a
topology's neighbourhood (see :mod:`repro.network`).  It is used by the
A2 ablation benchmarks; the theorems are only claimed for the global
selector.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.core.rngadvance import ChoiceReplayer

__all__ = [
    "CandidateSelector",
    "GlobalRandomSelector",
    "NeighborhoodSelector",
    "RandomWalkSelector",
]


class CandidateSelector(Protocol):
    """Strategy interface: draw ``delta`` distinct partners for ``initiator``."""

    def select(
        self, initiator: int, delta: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Return ``delta`` distinct processor ids, none equal to
        ``initiator``."""
        ...


class GlobalRandomSelector:
    """Uniform choice of ``delta`` distinct partners among all others.

    The draw is ``rng.choice(n - 1, delta, replace=False)`` with ids
    ``>= initiator`` shifted up by one: uniform over the ``n - 1``
    others without rejection sampling.  It is replayed bit for bit by
    :class:`~repro.core.rngadvance.ChoiceReplayer`, bound to the
    generator last passed to :meth:`select`; with the kernels off
    (``REPRO_NO_CKERNEL``) its python tier calls ``rng.choice`` itself.
    """

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        self.n = n
        self._draw: ChoiceReplayer | None = None

    @property
    def tier(self) -> str | None:
        """The partner-draw tier for the bound generator (None before
        the first :meth:`select`)."""
        return None if self._draw is None else self._draw.tier

    def select(
        self, initiator: int, delta: int, rng: np.random.Generator
    ) -> np.ndarray:
        if not 0 <= initiator < self.n:
            raise ValueError(f"initiator {initiator} out of range 0..{self.n - 1}")
        if not 1 <= delta < self.n:
            raise ValueError(f"need 1 <= delta < n, got delta={delta}, n={self.n}")
        draw = self._draw
        if draw is None or draw.rng is not rng:
            draw = self._draw = ChoiceReplayer(rng)
        return draw.choice(self.n - 1, delta, initiator)


class NeighborhoodSelector:
    """Uniform choice among a fixed per-processor candidate pool.

    ``pools[i]`` is the sequence of processors processor ``i`` may
    balance with (e.g. its topology neighbourhood, or a ball of some
    radius).  If a pool is smaller than ``delta`` the whole pool is
    used — the operation then involves fewer than ``delta + 1``
    processors, mirroring what a locality-restricted implementation
    would do on a sparse network.
    """

    def __init__(self, pools: Sequence[Sequence[int]]) -> None:
        self.pools = [np.asarray(p, dtype=np.int64) for p in pools]
        for i, pool in enumerate(self.pools):
            if (pool == i).any():
                raise ValueError(f"pool of processor {i} contains itself")
            if len(np.unique(pool)) != len(pool):
                raise ValueError(f"pool of processor {i} has duplicates")

    def select(
        self, initiator: int, delta: int, rng: np.random.Generator
    ) -> np.ndarray:
        pool = self.pools[initiator]
        if len(pool) <= delta:
            return pool.copy()
        return rng.choice(pool, size=delta, replace=False)


class RandomWalkSelector:
    """Candidates found by short random walks on a topology.

    How does a real distributed system *implement* the paper's "choose
    delta processors uniformly at random" without global knowledge?
    The standard answer is random walks: a probe token forwarded
    ``walk_length`` random hops lands (approximately) on a sample from
    the walk's stationary distribution — uniform on regular graphs once
    the walk length passes the mixing time.

    This selector makes the approximation tangible: on expanders a
    handful of hops already behaves like :class:`GlobalRandomSelector`;
    on a ring, short walks stay local and the balance quality
    interpolates toward :class:`NeighborhoodSelector` — the knob the A2
    ablation turns.

    Walks are *lazy* (stay put with probability 1/2 per step): on
    bipartite networks — the hypercube, even rings — a non-lazy walk
    of fixed length only ever reaches one side of the bipartition, so
    laziness is required for the stationary distribution to be uniform.

    Each of the ``delta`` candidates is produced by an independent walk
    (restarted until the set is distinct and excludes the initiator,
    with a uniform-global fallback after ``max_retries`` to keep the
    contract total).
    """

    def __init__(self, topology, walk_length: int, *, max_retries: int = 64) -> None:
        if walk_length < 1:
            raise ValueError(f"walk_length must be >= 1, got {walk_length}")
        self.topology = topology
        self.walk_length = walk_length
        self.max_retries = max_retries
        self.fallbacks = 0

    def _walk(self, start: int, rng: np.random.Generator) -> int:
        node = start
        for _ in range(self.walk_length):
            if rng.random() < 0.5:  # lazy step (see class docstring)
                continue
            nbrs = self.topology.neighbors(node)
            node = int(nbrs[rng.integers(nbrs.size)])
        return node

    def select(
        self, initiator: int, delta: int, rng: np.random.Generator
    ) -> np.ndarray:
        n = self.topology.n
        if not 1 <= delta < n:
            raise ValueError(f"need 1 <= delta < n, got delta={delta}, n={n}")
        chosen: list[int] = []
        tries = 0
        while len(chosen) < delta:
            tries += 1
            if tries > self.max_retries + delta:
                # pathological case (tiny graph / long clash streak):
                # fill up uniformly so the balancing op still happens
                self.fallbacks += 1
                remaining = [
                    p for p in range(n) if p != initiator and p not in chosen
                ]
                fill = rng.choice(
                    np.asarray(remaining, dtype=np.int64),
                    size=delta - len(chosen),
                    replace=False,
                )
                chosen.extend(int(p) for p in fill)
                break
            cand = self._walk(initiator, rng)
            if cand != initiator and cand not in chosen:
                chosen.append(cand)
        return np.asarray(chosen, dtype=np.int64)
