"""Heterogeneous processors: per-node speeds and capacities.

The paper's model assumes identical processors; a real cluster mixes
generations.  A :class:`HeterogeneousProfile` gives each processor

* a **speed** — the rate multiplier of its local action clock (the
  asynchronous engine scales each Poisson gap by ``1 / speed[i]``, so
  a speed-2 node acts twice as often), also the weight used by
  speed-aware partner selection (fast partners can absorb an imbalance
  sooner, so they are drawn proportionally more often);
* a **capacity** — the node's relative load-holding ability.  All load
  comparisons in the dynamics study are *capacity-normalised*: the
  Theorem-4 statistic becomes ``max_i (l_i / cap_i) / (min_j (l_j /
  cap_j) + C)`` (``capacities=`` of :func:`repro.metrics.band.
  extreme_ratio`), so a big node legitimately holding more
  packets does not read as imbalance.

Speeds are normalised to mean 1.0 so a profile changes the *shape* of
the network, not its aggregate throughput — heterogeneity sweeps stay
comparable to the homogeneous baseline.  A profile with all speeds and
capacities equal is *homogeneous* and keeps the engines on their
byte-identical fallback paths.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

__all__ = ["HeterogeneousProfile"]


class HeterogeneousProfile:
    """Immutable per-processor speed/capacity vectors (mean speed 1.0)."""

    def __init__(
        self,
        speeds: np.ndarray | list[float],
        capacities: np.ndarray | list[float] | None = None,
    ) -> None:
        speeds = np.asarray(speeds, dtype=float)
        if speeds.ndim != 1 or speeds.size < 1:
            raise ValueError(f"speeds must be a non-empty vector, got {speeds.shape}")
        if (speeds <= 0).any():
            raise ValueError("speeds must be > 0")
        if capacities is None:
            capacities = speeds.copy()
        capacities = np.asarray(capacities, dtype=float)
        if capacities.shape != speeds.shape:
            raise ValueError(
                f"capacities shape {capacities.shape} != speeds shape {speeds.shape}"
            )
        if (capacities <= 0).any():
            raise ValueError("capacities must be > 0")
        self.speeds = speeds
        self.capacities = capacities
        self.speeds.setflags(write=False)
        self.capacities.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.speeds.size)

    @property
    def is_homogeneous(self) -> bool:
        return bool(
            np.allclose(self.speeds, 1.0)
            and np.allclose(self.capacities, self.capacities[0])
        )

    @property
    def skew_ratio(self) -> float:
        """Fastest over slowest speed (1.0 = homogeneous)."""
        return float(self.speeds.max() / self.speeds.min())

    def normalized(self, loads: np.ndarray) -> np.ndarray:
        """Capacity-normalised loads ``l_i / cap_i`` (same shape as input;
        the last axis must index processors)."""
        return np.asarray(loads, dtype=float) / self.capacities

    # -- constructors ----------------------------------------------------

    @classmethod
    def homogeneous(cls, n: int) -> "HeterogeneousProfile":
        return cls(np.ones(n), np.ones(n))

    @classmethod
    def skewed(cls, n: int, skew: float, *, seed: int = 0) -> "HeterogeneousProfile":
        """Log-normal speed spread with sigma ``skew`` from ``seed``.

        ``skew=0`` is exactly the homogeneous profile (``exp(0) = 1``
        for every node); larger skews widen the spread.  Speeds are
        re-normalised to mean 1.0 and capacities track speeds (a fast
        node is also assumed to hold proportionally more load).
        """
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x4E70)))
        speeds = rng.lognormal(mean=0.0, sigma=skew, size=n)
        speeds = speeds / speeds.mean()
        return cls(speeds)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "speeds": [float(s) for s in self.speeds],
            "capacities": [float(c) for c in self.capacities],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HeterogeneousProfile":
        return cls(data["speeds"], data.get("capacities"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeterogeneousProfile):
            return NotImplemented
        return bool(
            np.array_equal(self.speeds, other.speeds)
            and np.array_equal(self.capacities, other.capacities)
        )

    def __repr__(self) -> str:
        return (
            f"HeterogeneousProfile(n={self.n}, "
            f"skew_ratio={self.skew_ratio:.3g}, "
            f"homogeneous={self.is_homogeneous})"
        )
