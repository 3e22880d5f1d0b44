"""Experiment configuration objects."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.params import LBParams

__all__ = ["QualityConfig", "check_runs", "default_runs"]


def default_runs(paper_value: int = 100) -> int:
    """Number of repetitions per experiment.

    The paper uses 100 runs everywhere.  Because that takes minutes per
    configuration, the harness defaults to a faster value and honours
    the ``REPRO_RUNS`` environment variable (set ``REPRO_RUNS=100`` for
    a paper-exact reproduction)."""
    env = os.environ.get("REPRO_RUNS")
    if env:
        return max(1, int(env))
    return min(paper_value, 25)


def check_runs(runs: int) -> int:
    """Return ``runs``, or raise ``ValueError`` when it is below 1 (the
    one repetition-count rule of every experiment driver)."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    return runs


@dataclass(frozen=True, slots=True)
class QualityConfig:
    """Configuration of the section-7 balancing-quality experiments
    (figures 7-10, Table 1).

    Defaults are the paper's: 64 processors, 500 time steps, workload
    ranges ``g in [0.1, 0.9]``, ``c in [0.1, 0.7]``, phase lengths in
    ``[150, 400]``, ``C = 4``.
    """

    n: int = 64
    steps: int = 500
    f: float = 1.1
    delta: int = 1
    C: int = 4
    g_range: tuple[float, float] = (0.1, 0.9)
    c_range: tuple[float, float] = (0.1, 0.7)
    len_range: tuple[int, int] = (150, 400)
    runs: int = field(default_factory=default_runs)
    seed: int = 0
    snapshot_ticks: tuple[int, ...] = (50, 200, 400)

    def __post_init__(self) -> None:
        check_runs(self.runs)

    @property
    def params(self) -> LBParams:
        return LBParams(f=self.f, delta=self.delta, C=self.C)

    def with_(self, **changes) -> "QualityConfig":
        from dataclasses import replace

        return replace(self, **changes)
