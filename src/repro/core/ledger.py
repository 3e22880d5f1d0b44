"""Compact per-class load ledger: the engine's ``d``/``b`` matrices.

The appendix's state is two conceptually ``n x n`` integer matrices —
``d[i][j]`` (real packets of virtual class ``j`` on processor ``i``) and
``b[i][j]`` (outstanding debts).  Storing them densely is O(n²) memory
and makes every balancing re-deal O(n) in the *network* size even though
only a handful of classes are actually present on any processor: a row
can never hold more distinct nonzero classes than packets, so the number
of active entries is bounded by the processor's load, not by ``n``.

:class:`ClassLedger` therefore keeps

* ``diag`` — the diagonal ``d[i][i]`` as a dense length-``n`` array
  (the self-generated load is touched by *every* generate/consume and by
  the trigger test, so it must support vectorized batch updates);
* ``rows[i]`` — the off-diagonal nonzero entries of row ``i`` as a
  ``{class: count}`` dict (zero entries are pruned on update);
* ``row_sums`` — a dense length-``n`` cache of the row totals,
  maintained incrementally (this is what makes "does processor ``i``
  owe anything" and the engine's ``l`` bookkeeping O(1)).

Memory is O(n + active entries) instead of O(n²); a balancing operation
costs O(active entries of the participants) instead of O(n).

The engine's hot paths use only the sparse accessors (``get``,
``add``, ``row_sum``, ``positive_classes``, ``snake_redeal``,
``bulk_diag_add``).  :meth:`to_csr` / :meth:`from_csr` are the
O(active entries) columnar snapshot the engine checkpoints use;
:meth:`dense` and :meth:`from_dense` materialise
dense data for tests, small-n cross-checks and debugging.

Invariant: after any sequence of mutations through the ledger API,
``row_sums[i] == diag[i] + sum(rows[i].values())`` and ``rows[i]``
contains no zero values and no ``i`` key.  :meth:`check_consistency`
verifies this; the engine's ``assert_invariants`` calls it and, at
small ``n``, also cross-checks the sparse form against :meth:`dense`.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

__all__ = ["ClassLedger"]


class ClassLedger:
    """Row-sparse square int matrix with a dense diagonal."""

    __slots__ = ("n", "diag", "rows", "row_sums")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self.n = n
        self.diag = np.zeros(n, dtype=np.int64)
        self.rows: list[dict[int, int]] = [{} for _ in range(n)]
        self.row_sums = np.zeros(n, dtype=np.int64)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "ClassLedger":
        """Build a ledger from an ``(n, n)`` dense matrix."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"need a square matrix, got shape {matrix.shape}")
        led = cls(matrix.shape[0])
        led.diag[:] = np.diagonal(matrix)
        for i in range(led.n):
            row = matrix[i]
            nz = np.nonzero(row)[0]
            led.rows[i] = {
                int(j): int(row[j]) for j in nz if int(j) != i
            }
        led.row_sums[:] = matrix.sum(axis=1)
        return led

    # -- sparse accessors (engine hot paths) ------------------------------

    def get(self, i: int, j: int) -> int:
        """Entry ``(i, j)`` as a Python int."""
        if j == i:
            return int(self.diag[i])
        return self.rows[i].get(j, 0)

    def add(self, i: int, j: int, dv: int) -> None:
        """Add ``dv`` to entry ``(i, j)``, pruning zeros off-diagonal."""
        if dv == 0:
            return
        if j == i:
            self.diag[i] += dv
        else:
            row = self.rows[i]
            v = row.get(j, 0) + dv
            if v:
                row[j] = v
            else:
                del row[j]
        self.row_sums[i] += dv

    def row_sum(self, i: int) -> int:
        return int(self.row_sums[i])

    def bulk_diag_add(self, idx: np.ndarray, dv: int) -> None:
        """Add ``dv`` to the diagonal and the row-sum cache at ``idx``.

        The vectorized analogue of ``add(i, i, dv)`` for a whole batch —
        the columnar engine uses it when a run of processors touch
        only their own diagonal.  ``idx`` may be an integer index array
        or a boolean mask; it must not select the same row twice (each
        processor acts at most once per tick).
        """
        self.diag[idx] += dv
        self.row_sums[idx] += dv

    def positive_classes(self, i: int) -> list[int]:
        """Classes with a positive entry in row ``i``, ascending.

        Matches ``np.nonzero(dense_row > 0)[0]`` element order, so a
        uniform pick among these classes (``pick_from_classes``) is the
        pick the appendix's dense-matrix formulation makes.
        """
        out = [c for c, v in self.rows[i].items() if v > 0]
        if self.diag[i] > 0:
            out.append(i)
        out.sort()
        return out

    def snake_redeal(self, parts: list[int], start: int) -> list[int]:
        """Re-deal the rows of ``parts`` with the snake distribution.

        Per-class totals over the participants are dealt back as
        ``total // k`` each plus the ``total mod k`` remainder packets
        to consecutive circular positions, the remainder pointer
        starting at ``start`` and continuing across classes in
        ascending class order — exactly
        :func:`repro.core.balance.snake_distribute` restricted to the
        participant rows, but O(active entries) instead of O(n).

        Returns the new row sums, one per participant.
        """
        k = len(parts)
        rows = self.rows
        diag = self.diag
        totals: Counter[int] = Counter()
        for p in parts:
            totals.update(rows[p])
        for p in parts:
            dv = int(diag[p])
            if dv:
                totals[p] += dv
        if not totals:
            for p in parts:
                if rows[p]:
                    rows[p] = {}
                self.row_sums[p] = 0
            return [0] * k
        pos = {p: q for q, p in enumerate(parts)}
        new_rows: list[dict[int, int]] = [{} for _ in range(k)]
        new_diag = [0] * k
        sums = [0] * k
        ptr = start % k
        for c in sorted(totals):
            total = totals[c]
            qc = pos.get(c, -1)
            if total >= k:
                base, rem = divmod(total, k)
                if qc >= 0:
                    for q in range(k):
                        if q == qc:
                            new_diag[q] = base
                        else:
                            new_rows[q][c] = base
                        sums[q] += base
                else:
                    for q in range(k):
                        new_rows[q][c] = base
                        sums[q] += base
            else:
                rem = total  # base == 0: remainder-only deal
            if rem:
                for q in range(ptr, ptr + rem):
                    if q >= k:
                        q -= k
                    if q == qc:
                        new_diag[q] += 1
                    else:
                        row = new_rows[q]
                        row[c] = row.get(c, 0) + 1
                    sums[q] += 1
                ptr += rem
                if ptr >= k:
                    ptr -= k
        for q, p in enumerate(parts):
            rows[p] = new_rows[q]
            diag[p] = new_diag[q]
            self.row_sums[p] = sums[q]
        return sums

    # -- snapshots: dense (tests / debugging) and CSR (checkpoints) -------

    def dense(self) -> np.ndarray:
        """Dense ``(n, n)`` copy of the whole ledger."""
        out = np.zeros((self.n, self.n), dtype=np.int64)
        np.fill_diagonal(out, self.diag)
        for i, row in enumerate(self.rows):
            if row:
                out[i, list(row)] = list(row.values())
        return out

    def to_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Export the off-diagonal entries as CSR-style arrays.

        Returns ``(indptr, classes, counts)``: row ``i``'s entries live
        at positions ``indptr[i]:indptr[i+1]``, classes ascending within
        each row.  Together with ``diag`` this is a complete columnar
        snapshot of the ledger — O(active entries), no dense
        materialisation — used for engine checkpoints and offline analysis
        of large-n runs (:meth:`dense` is O(n²) and unusable at
        n = 10⁵⁺).  Round-trips through :meth:`from_csr`.
        """
        counts_per_row = np.fromiter(
            (len(r) for r in self.rows), dtype=np.int64, count=self.n
        )
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts_per_row, out=indptr[1:])
        nnz = int(indptr[-1])
        classes = np.empty(nnz, dtype=np.int64)
        counts = np.empty(nnz, dtype=np.int64)
        pos = 0
        for row in self.rows:
            if row:
                for c in sorted(row):
                    classes[pos] = c
                    counts[pos] = row[c]
                    pos += 1
        return indptr, classes, counts

    @classmethod
    def from_csr(
        cls,
        diag: np.ndarray,
        indptr: np.ndarray,
        classes: np.ndarray,
        counts: np.ndarray,
    ) -> "ClassLedger":
        """Rebuild a ledger from :meth:`to_csr` output plus the diagonal."""
        n = len(diag)
        led = cls(n)
        led.diag[:] = diag
        for i in range(n):
            s, e = int(indptr[i]), int(indptr[i + 1])
            if e > s:
                led.rows[i] = {
                    int(classes[p]): int(counts[p]) for p in range(s, e)
                }
        led.row_sums[:] = diag
        np.add.at(
            led.row_sums,
            np.repeat(np.arange(n), np.diff(indptr)),
            counts,
        )
        return led

    def total(self) -> int:
        return int(self.row_sums.sum())

    def active_entries(self) -> int:
        """Number of stored nonzero entries (memory proxy)."""
        return int(np.count_nonzero(self.diag)) + sum(
            len(r) for r in self.rows
        )

    # -- consistency -------------------------------------------------------

    def check_consistency(self) -> None:
        """Raise AssertionError if the sparse form disagrees with its
        caches (row-sum cache, pruned zeros, diagonal separation)."""
        for i, row in enumerate(self.rows):
            if i in row:
                raise AssertionError(f"row {i} stores its diagonal off-diag")
            if any(v == 0 for v in row.values()):
                raise AssertionError(f"row {i} holds an unpruned zero entry")
            expect = int(self.diag[i]) + sum(row.values())
            if int(self.row_sums[i]) != expect:
                raise AssertionError(
                    f"row-sum cache stale for row {i}: "
                    f"{int(self.row_sums[i])} != {expect}"
                )

    def min_value(self) -> int:
        """Smallest stored entry (0 if no off-diagonal entries)."""
        lo = int(self.diag.min()) if self.n else 0
        for row in self.rows:
            for v in row.values():
                if v < lo:
                    lo = v
        return lo

    def max_value(self) -> int:
        """Largest stored entry (0 if no off-diagonal entries)."""
        hi = int(self.diag.max()) if self.n else 0
        for row in self.rows:
            if row:
                hi = max(hi, max(row.values()))
        return hi

    def __repr__(self) -> str:
        return (
            f"ClassLedger(n={self.n}, active={self.active_entries()}, "
            f"total={self.total()})"
        )
