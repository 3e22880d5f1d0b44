"""Table regenerators: Table 1 plus the numerical theorem/lemma checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


from repro.core.opg import opg_meanfield_ratio
from repro.core.opgc import expected_decrease_ops
from repro.experiments.config import QualityConfig, check_runs, default_runs
from repro.experiments.report import render_table
from repro.experiments.runner import quality_experiment
from repro.metrics.borrow_stats import BorrowTable
from repro.theory.bounds import (
    lemma5_lower,
    lemma5_upper,
    lemma6_upper,
    decrease_steps_expected,
    theorem3_bounds,
)
from repro.theory.fixpoint import fix, fix_limit, iterate_G
from repro.core.opg import simulate_opg

__all__ = [
    "theorem12_table",
    "theorem3_table",
    "table1",
    "lemma4_table",
    "lemma56_table",
]


# ---------------------------------------------------------------------------
# Theorems 1-3: operator iteration vs simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TheoremTable:
    headers: tuple[str, ...]
    rows: list[list[object]]

    def render(self) -> str:
        return render_table(list(self.headers), self.rows)


def theorem12_table(
    *,
    grid: Sequence[tuple[int, int, float]] = (
        (8, 1, 1.1),
        (16, 1, 1.1),
        (64, 1, 1.1),
        (64, 1, 1.5),
        (64, 2, 1.5),
        (64, 4, 1.1),
        (64, 4, 2.0),
        (256, 4, 2.0),
    ),
    t: int = 60,
    trials: int = 50_000,
    seed: int = 0,
) -> TheoremTable:
    """Theorems 1/2: for each ``(n, delta, f)``, compare the simulated
    expected-load ratio after ``t`` balancing ops (mean-field model —
    the process Lemma 1 analyses) against the operator iteration
    ``G^t(1)``, the fixed point ``FIX`` and the size-free limit
    ``delta/(delta+1-f)``."""
    rows: list[list[object]] = []
    for n, delta, f in grid:
        ratio = opg_meanfield_ratio(n, delta, f, t, trials=trials, seed=seed)
        g_t = iterate_G(n, delta, f, t)[-1]
        rows.append(
            [
                n,
                delta,
                f,
                float(ratio[-1]),
                float(g_t),
                fix(n, delta, f),
                fix_limit(delta, f),
            ]
        )
    return TheoremTable(
        headers=("n", "delta", "f", "sim ratio", "G^t(1)", "FIX", "limit"),
        rows=rows,
    )


def theorem3_table(
    *,
    grid: Sequence[tuple[int, int, float]] = (
        (16, 1, 1.1),
        (64, 1, 1.1),
        (64, 2, 1.5),
        (64, 4, 1.8),
    ),
) -> TheoremTable:
    """Theorem 3: the two-sided analytic bounds (finite-n and size-free)
    for each parameter set — purely analytical table."""
    rows: list[list[object]] = []
    for n, delta, f in grid:
        lo, hi = theorem3_bounds(n, delta, f)
        lo_inf, hi_inf = theorem3_bounds(None, delta, f)
        rows.append([n, delta, f, lo, hi, lo_inf, hi_inf])
    return TheoremTable(
        headers=(
            "n", "delta", "f",
            "FIX(n,d,1/f)", "FIX(n,d,f)",
            "d/(d+1-1/f)", "d/(d+1-f)",
        ),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table 1: borrow statistics vs C
# ---------------------------------------------------------------------------


def table1(
    *,
    c_values: Sequence[int] = (4, 8, 16, 32),
    runs: int | None = None,
    seed: int = 0,
    per_processor: bool = True,
) -> BorrowTable:
    """Table 1: borrow statistics for ``C in {4, 8, 16, 32}``
    (``f = 1.1``, ``delta = 1``, section-7 workload, 64 procs, 500
    steps).

    The paper's magnitudes (total borrow ~108) match *per-processor*
    per-run averages; ``per_processor=True`` (default) normalises
    accordingly, ``False`` reports whole-machine totals per run.
    """
    runs = default_runs() if runs is None else runs
    table = BorrowTable(c_values=list(c_values))
    for C in c_values:
        cfg = QualityConfig(f=1.1, delta=1, C=C, runs=runs, seed=seed)
        counters = quality_experiment(cfg).counters
        table.set_column(C, counters)
        if per_processor:
            col = table.columns[C]
            table.columns[C] = {k: v / cfg.n for k, v in col.items()}
    return table


# ---------------------------------------------------------------------------
# Section 6: costs
# ---------------------------------------------------------------------------


def lemma4_table(
    *,
    grid: Sequence[tuple[int, int, float]] = (
        (64, 1, 1.1),
        (64, 1, 1.5),
        (64, 4, 1.1),
        (64, 4, 2.0),
    ),
    n_ops: int = 200,
    seed: int = 0,
) -> TheoremTable:
    """Lemma 4 (cost benchmark): in the one-producer model, after ``m``
    balancing operations at least ``m`` packets have been generated —
    i.e. the per-packet balancing overhead is bounded by a constant.
    Reports packets generated per balancing op and migration volume."""
    rows: list[list[object]] = []
    for n, delta, f in grid:
        res = simulate_opg(n, delta, f, n_ops, seed=seed)
        rows.append(
            [
                n,
                delta,
                f,
                n_ops,
                res.packets_generated,
                res.packets_generated / n_ops,
                res.packets_migrated / max(res.packets_generated, 1),
                bool(res.packets_generated >= n_ops),
            ]
        )
    return TheoremTable(
        headers=(
            "n", "delta", "f", "ops m", "generated",
            "generated/op", "migrated/generated", "generated >= m",
        ),
        rows=rows,
    )


def lemma56_table(
    *,
    grid: Sequence[tuple[int, int, int, int, float]] = (
        # (x, c, n, delta, f)
        (1000, 500, 64, 1, 1.1),
        (1000, 500, 64, 1, 1.5),
        (1000, 500, 64, 4, 1.1),
        (1000, 500, 64, 4, 1.5),
        (1000, 500, 16, 1, 1.1),
        (2000, 1000, 64, 1, 1.1),
        (1000, 200, 64, 1, 1.1),
    ),
    runs: int | None = None,
    seed: int = 0,
) -> TheoremTable:
    """Lemma 5/6: measured balancing operations to decrease processor
    0's load from ``x`` to ``x - c``, against the lower bound, upper
    bound and the improved (Lemma 6) upper bound.

    The paper observes: bounds close to reality; iteration count nearly
    independent of ``delta`` and ``n``; very sensitive to ``f``; and
    invariant under scaling ``x, c`` at fixed ``c/x``.
    """
    runs = default_runs(50) if runs is None else check_runs(runs)
    rows: list[list[object]] = []
    for x, c, n, delta, f in grid:
        measured = expected_decrease_ops(x, c, n, delta, f, runs, seed=seed)
        rows.append(
            [
                x,
                c,
                n,
                delta,
                f,
                measured,
                lemma5_lower(x, c, n, delta, f),
                lemma5_upper(x, c, n, delta, f),
                lemma6_upper(x, c, n, delta, f),
                decrease_steps_expected(x, c, n, delta, f),
            ]
        )
    return TheoremTable(
        headers=(
            "x", "c", "n", "delta", "f", "measured",
            "lower (L5)", "upper (L5)", "upper (L6)", "expected model",
        ),
        rows=rows,
    )
