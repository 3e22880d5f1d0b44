"""Figure regenerators (figures 6-10 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.experiments.config import QualityConfig, default_runs
from repro.experiments.report import ascii_bars, ascii_chart, render_table, write_csv
from repro.experiments.runner import QualityResult, quality_experiment
from repro.theory.moments import exact_moments
from repro.theory.variation import mc_variation_density

__all__ = [
    "Figure6Result",
    "figure6",
    "QualityFigure",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
]

# the paper's Figure-6 processor-count sweep
FIG6_NS: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20, 25, 30, 35)


@dataclass(frozen=True, slots=True)
class Figure6Result:
    """Variation density surfaces: one ``(len(ns), t+1)`` array per
    ``(delta, f)`` combination (VD of a non-producer processor)."""

    ns: tuple[int, ...]
    t: int
    surfaces: Mapping[tuple[int, float], np.ndarray]

    def final_vd(self, delta: int, f: float) -> np.ndarray:
        """VD at the final balancing step, as a function of n."""
        return self.surfaces[(delta, f)][:, -1]

    def render(self) -> str:
        rows = []
        for (delta, f), surf in sorted(self.surfaces.items()):
            t25 = (
                float(np.nanmax(surf[:, 25])) if surf.shape[1] > 25 else float("nan")
            )
            rows.append(
                [
                    f"delta={delta} f={f}",
                    float(np.nanmax(surf[:, -1])),
                    float(surf[-1, -1]),
                    t25,
                ]
            )
        return render_table(
            ["series", "max VD(t=end) over n", "VD(n=max,t=end)", "max VD(t=25)"],
            rows,
        )

    def to_csv(self, directory: str | Path) -> list[Path]:
        paths = []
        for (delta, f), surf in sorted(self.surfaces.items()):
            cols = {"n": list(self.ns)}
            for t in range(0, surf.shape[1], max(surf.shape[1] // 10, 1)):
                cols[f"vd_t{t}"] = surf[:, t].tolist()
            cols[f"vd_t{surf.shape[1]-1}"] = surf[:, -1].tolist()
            paths.append(
                write_csv(Path(directory) / f"figure6_delta{delta}_f{f}.csv", cols)
            )
        return paths


def figure6(
    *,
    deltas: Sequence[int] = (1, 2, 4),
    fs: Sequence[float] = (1.1, 1.2),
    ns: Sequence[int] | None = None,
    t: int = 150,
    trials: int = 20_000,
    mode: str = "relaxed",
    seed: int = 0,
) -> Figure6Result:
    """Figure 6: variation density for ``delta in {1,2,4}``,
    ``f in {1.1, 1.2}``, processor counts 2..35, up to 150 balancing
    steps.

    The paper computes VD with its exact ``O(p^2 t^3)`` recursion for
    the *relaxed* algorithm (``mode="relaxed"``, the default — section
    5's delta-sequential variant, estimated here by vectorised Monte
    Carlo with ``trials`` trajectories).  Two further modes:

    * ``mode="exact"`` — Monte Carlo of the actual delta-subset
      algorithm;
    * ``mode="moments"`` — the *exact closed-form* moment recursion of
      :mod:`repro.theory.moments` for the delta-subset algorithm: no
      sampling error, O(t) per curve (this repo's improvement over the
      paper's recursion).
    """
    if ns is None:
        ns = FIG6_NS
    surfaces: dict[tuple[int, float], np.ndarray] = {}
    for delta in deltas:
        for f in fs:
            rows = []
            for n in ns:
                if delta >= n:
                    rows.append(np.full(t + 1, np.nan))
                    continue
                if mode == "moments":
                    res = exact_moments(t, n, f, delta=delta)
                else:
                    res = mc_variation_density(
                        t, n, f, delta=delta, mode=mode, trials=trials,
                        seed=seed + 31 * n + 7 * delta,
                    )
                rows.append(res.vd_other)
            surfaces[(delta, f)] = np.asarray(rows)
    return Figure6Result(ns=tuple(ns), t=t, surfaces=surfaces)


# ---------------------------------------------------------------------------
# figures 7-10: section-7 balancing quality
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class QualityFigure:
    """One paper quality figure: results for each ``f`` at fixed delta."""

    delta: int
    results: Mapping[float, QualityResult]
    kind: str  # "envelope" (fig 7/8) or "distribution" (fig 9/10)

    def render(self) -> str:
        blocks = []
        for f, res in sorted(self.results.items()):
            env = res.envelope
            if self.kind == "envelope":
                blocks.append(
                    ascii_chart(
                        {"max": env.max, "mean": env.mean, "min": env.min},
                        title=(
                            f"Balancing quality, delta={self.delta}, f={f} "
                            f"({env.runs} runs)"
                        ),
                    )
                )
            else:
                rows = []
                for tick, snap in sorted(res.snapshots.items()):
                    rows.append(
                        [
                            tick,
                            float(snap["mean"].mean()),
                            int(snap["min"].min()),
                            int(snap["max"].max()),
                            float(snap["mean"].max() - snap["mean"].min()),
                        ]
                    )
                parts = [
                    f"Distribution, delta={self.delta}, f={f}\n"
                    + render_table(
                        ["tick", "mean load", "min over procs/runs",
                         "max over procs/runs", "mean spread across procs"],
                        rows,
                    )
                ]
                last_tick = max(res.snapshots)
                snap = res.snapshots[last_tick]
                show = min(snap["mean"].shape[0], 16)
                parts.append(
                    ascii_bars(
                        snap["mean"][:show],
                        lo=snap["min"][:show],
                        hi=snap["max"][:show],
                        title=(
                            f"per-processor mean load at t={last_tick} "
                            f"(first {show} of {snap['mean'].shape[0]} procs; "
                            f"|--| = min/max over runs)"
                        ),
                    )
                )
                blocks.append("\n\n".join(parts))
        return "\n\n".join(blocks)

    def to_csv(self, directory: str | Path, stem: str) -> list[Path]:
        paths = []
        for f, res in sorted(self.results.items()):
            env = res.envelope
            paths.append(
                write_csv(
                    Path(directory) / f"{stem}_f{f}_envelope.csv",
                    {"t": np.arange(env.mean.shape[0]), **env.as_columns()},
                )
            )
            for tick, snap in sorted(res.snapshots.items()):
                paths.append(
                    write_csv(
                        Path(directory) / f"{stem}_f{f}_t{tick}_distribution.csv",
                        {"proc": np.arange(snap["mean"].shape[0]), **snap},
                    )
                )
        return paths


def _quality_figure(
    delta: int, kind: str, fs: Sequence[float], runs: int | None, seed: int
) -> QualityFigure:
    runs = default_runs() if runs is None else runs
    results = {}
    for f in fs:
        cfg = QualityConfig(f=f, delta=delta, seed=seed, runs=runs)
        results[f] = quality_experiment(cfg)
    return QualityFigure(delta=delta, results=results, kind=kind)


def figure7(
    fs: Sequence[float] = (1.1, 1.8), runs: int | None = None, seed: int = 0
) -> QualityFigure:
    """Figure 7: balancing quality over time, ``delta = 1``."""
    return _quality_figure(1, "envelope", fs, runs, seed)


def figure8(
    fs: Sequence[float] = (1.1, 1.8), runs: int | None = None, seed: int = 0
) -> QualityFigure:
    """Figure 8: balancing quality over time, ``delta = 4``."""
    return _quality_figure(4, "envelope", fs, runs, seed)


def figure9(
    fs: Sequence[float] = (1.1, 1.8), runs: int | None = None, seed: int = 0
) -> QualityFigure:
    """Figure 9: per-processor distribution at ticks 50/200/400, ``delta = 1``."""
    return _quality_figure(1, "distribution", fs, runs, seed)


def figure10(
    fs: Sequence[float] = (1.1, 1.8), runs: int | None = None, seed: int = 0
) -> QualityFigure:
    """Figure 10: per-processor distribution at ticks 50/200/400, ``delta = 4``."""
    return _quality_figure(4, "distribution", fs, runs, seed)
