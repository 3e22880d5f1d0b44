"""Borrowing bookkeeping (section 4) — counters and pure helpers.

When a processor must consume but has no self-generated packets left
(``d[i][i] == 0`` while ``l[i] > 0``), it consumes a packet belonging to
another *virtual load class* ``j`` and records a debt ``b[i][j]``.  The
debt says: one virtual class-``j`` packet on ``i`` is no longer backed
by a real packet.  Debts keep the virtual accounting — on which the
whole section-3 analysis operates — intact, at the price of the
``+ C`` additive slack in Theorem 4.

The global conservation law (checked by the engine's invariant mode and
by property tests) is::

    sum_ij (d[i][j] + b[i][j])  ==  sum_i l[i]  +  sum_ij b[i][j]
    (virtual load == real load + outstanding debt)

with ``l[i] == sum_j d[i][j]`` row by row.

Debt life cycle:

* created by a *borrow* (`total_borrow` counter);
* erased when the debtor generates a new packet (repayment, free);
* erased by a *remote exchange* with the producer ``j`` when ``j``
  still holds own-class packets (`remote_borrow` counter) — ``x =
  min(d[j][j], sum_k b[i][k])`` real packets migrate ``j -> i``,
  backing ``x`` debts, and ``j`` books the consumption via a simulated
  workload decrease (`decrease_sim` counter);
* otherwise resolved by the section-4 class-``j`` balancing dance
  (`borrow_fail` counter).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BorrowCounters",
    "eligible_borrow_classes_sparse",
    "pick_from_classes",
]


@dataclass(slots=True)
class BorrowCounters:
    """The four Table-1 statistics plus auxiliary engine counters.

    Table 1 of the paper reports, per run (64 processors, 500 steps,
    averaged over 100 runs): ``total_borrow``, ``remote_borrow``,
    ``borrow_fail`` and ``decrease_sim``.
    """

    total_borrow: int = 0
    remote_borrow: int = 0
    borrow_fail: int = 0
    decrease_sim: int = 0
    # auxiliary (not in Table 1)
    repayments: int = 0
    consume_blocked: int = 0
    starved: int = 0
    debt_annihilated: int = 0
    debts_settled: int = 0

    def as_tuple(self) -> tuple[int, ...]:
        """All nine counters as a plain tuple, ``as_dict`` key order.

        Allocation-light equality probe for per-tick lockstep
        comparisons (the columnar-vs-scalar property test calls this
        after every tick; building two dicts per tick there doubles the
        test's runtime for no information).
        """
        return (
            self.total_borrow,
            self.remote_borrow,
            self.borrow_fail,
            self.decrease_sim,
            self.repayments,
            self.consume_blocked,
            self.starved,
            self.debt_annihilated,
            self.debts_settled,
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "total_borrow": self.total_borrow,
            "remote_borrow": self.remote_borrow,
            "borrow_fail": self.borrow_fail,
            "decrease_sim": self.decrease_sim,
            "repayments": self.repayments,
            "consume_blocked": self.consume_blocked,
            "starved": self.starved,
            "debt_annihilated": self.debt_annihilated,
            "debts_settled": self.debts_settled,
        }

    def add(self, other: "BorrowCounters") -> None:
        """Accumulate another counter set (multi-run aggregation)."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


def eligible_borrow_classes_sparse(
    d_row: dict[int, int], b_row: dict[int, int]
) -> list[int]:
    """Classes a processor may borrow from right now.

    Eligible: ``d[i][j] > 0`` (a real packet of class ``j`` is locally
    available) and ``b[i][j] == 0`` (at most one outstanding debt per
    class, the paper's rule).  ``d_row``/``b_row`` are the off-diagonal
    nonzero dicts of a :class:`~repro.core.ledger.ClassLedger` row, so
    the own class — which lives on the separate diagonal and never
    needs borrowing — is excluded by construction.  Returns the
    eligible classes in ascending order, the element order of
    ``np.nonzero`` on the dense row.
    """
    if b_row:
        out = [c for c, v in d_row.items() if v > 0 and c not in b_row]
    else:
        out = [c for c, v in d_row.items() if v > 0]
    out.sort()
    return out


def pick_from_classes(
    classes: list[int], rng: np.random.Generator
) -> int:
    """Uniform pick from a precomputed ascending class list.

    ``classes`` is typically the ascending positive classes of a debt
    row (``ClassLedger.positive_classes``); the pick is one generator
    call, ``rng.integers(len(classes))``, which every engine must draw
    in the same place to stay bit-identical.
    """
    if not classes:
        raise ValueError("no outstanding debt to pick from")
    return classes[int(rng.integers(len(classes)))]
