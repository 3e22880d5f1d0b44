"""Balancing primitives: even ±1 splits and the snake distribution.

A balancing operation equalises the loads of ``k = delta + 1``
participants.  Because packets are indivisible, "equal" means *differ by
at most one*.  The appendix additionally demands that the per-class
virtual loads be reassigned such that **simultaneously**

1. for every class ``j``: ``|d[p][j] - d[q][j]| <= 1`` for all
   participants ``p, q`` (and the same for the borrow matrix ``b``);
2. the per-participant totals ``sum_j d[p][j]`` differ by at most one
   (ditto for ``b``);
3. class totals are conserved.

The paper notes this is "always possible (snake like distribution of
packets)".  :func:`snake_distribute` realises it with a single
boustrophedon deal: every class hands out ``T_j // k`` packets to each
participant, and the ``T_j mod k`` remainder packets are dealt to
consecutive positions on a circle, *continuing where the previous class
stopped*.  Since the remainders form one uninterrupted circular deal,
each participant receives either ``floor(R/k)`` or ``ceil(R/k)`` of the
``R`` total remainder packets — which is exactly invariant 2; invariant
1 holds because within a class every participant gets ``T_j // k`` plus
at most one remainder packet.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["even_split", "snake_distribute", "greedy_transfers"]


def even_split(
    total: int, k: int, start: int = 0
) -> np.ndarray:
    """Split ``total`` packets over ``k`` participants, each getting
    ``total // k`` or ``total // k + 1``.

    The ``total mod k`` remainder packets go to positions ``start,
    start+1, ... (mod k)``.

    >>> even_split(7, 3).tolist()
    [3, 2, 2]
    >>> even_split(7, 3, start=1).tolist()
    [2, 3, 2]
    >>> even_split(8, 3, start=2).tolist()
    [3, 2, 3]
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if total < 0:
        raise ValueError(f"need total >= 0, got {total}")
    base, rem = divmod(total, k)
    out = np.full(k, base, dtype=np.int64)
    for i in range(rem):
        out[(start + i) % k] += 1
    return out


def snake_distribute(
    totals: np.ndarray | list[int], k: int, start: int = 0
) -> np.ndarray:
    """Deal per-class totals to ``k`` participants, snake fashion.

    Parameters
    ----------
    totals:
        One total per class (non-negative ints); ``totals[j]`` packets
        of class ``j`` are distributed.
    k:
        Number of participants.
    start:
        Initial position of the circular remainder pointer (engines pass
        a random start so no participant is systematically favoured).

    Returns
    -------
    ``(k, n_classes)`` int array ``M`` with ``M[:, j].sum() == totals[j]``,
    ``M[:, j].max() - M[:, j].min() <= 1`` and
    ``M.sum(axis=1).max() - M.sum(axis=1).min() <= 1``.
    """
    totals = np.asarray(totals, dtype=np.int64)
    if totals.ndim != 1:
        raise ValueError(f"totals must be 1-D, got shape {totals.shape}")
    if (totals < 0).any():
        raise ValueError("totals must be non-negative")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")

    base = totals // k
    rem = totals % k
    out = np.repeat(base[None, :], k, axis=0)

    total_rem = int(rem.sum())
    if total_rem:
        # Vectorised circular deal of the remainders: class j's block of
        # rem[j] extra packets starts where class j-1's block stopped
        # (ptr_j = start + sum of previous remainders, mod k).
        ends = np.cumsum(rem)
        starts = ends - rem
        # flat position within each block: 0..rem[j]-1
        offsets = np.arange(total_rem) - np.repeat(starts, rem)
        rows = (start + np.repeat(starts, rem) + offsets) % k
        cols = np.repeat(np.arange(totals.shape[0]), rem)
        np.add.at(out, (rows, cols), 1)
    return out


def greedy_transfers(
    participants: Iterable[int],
    before: Iterable[int],
    after: Iterable[int],
) -> list[tuple[int, int, int]]:
    """Minimal per-pair transfer set ``(src, dst, amount)`` realising a
    re-deal.

    The snake deal does not define *which* packet went where; this
    reconstructs a transfer set greedily (senders = negative delta,
    receivers = positive delta, both in participant order), which is
    what a real implementation would ship: the engines' ``transfer``
    trace events, the practical balancer's ``on_transfer`` hook and the
    hop-cost model all charge this set.

    >>> greedy_transfers([0, 3, 5], [9, 0, 0], [3, 3, 3])
    [(0, 3, 3), (0, 5, 3)]
    """
    delta = [a - b for a, b in zip(after, before)]
    senders = [[p, -d] for p, d in zip(participants, delta) if d < 0]
    receivers = [[p, d] for p, d in zip(participants, delta) if d > 0]
    out: list[tuple[int, int, int]] = []
    si = 0
    for dst, need in receivers:
        while need > 0:
            src, have = senders[si]
            take = min(have, need)
            out.append((src, dst, take))
            need -= take
            senders[si][1] = have - take
            if senders[si][1] == 0:
                si += 1
    return out
