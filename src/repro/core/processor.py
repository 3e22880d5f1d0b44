"""Read-only per-processor view of an engine's state.

The engine stores the whole network's state in compact ledgers
(:mod:`repro.core.ledger`) plus dense load vectors;
:class:`ProcessorView` presents the per-processor perspective the
appendix's pseudo-code is written in — convenient for debugging,
notebooks and assertions in tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import Engine

__all__ = ["ProcessorView"]


class ProcessorView:
    """Live (non-copying where possible) view of processor ``i``.

    >>> from repro import Engine, EngineConfig, LBParams
    >>> eng = Engine(EngineConfig(n=4, params=LBParams()))
    >>> view = eng.processor(0)
    >>> view.load
    0
    """

    def __init__(self, engine: "Engine", i: int) -> None:
        if not 0 <= i < engine.n:
            raise IndexError(f"processor {i} out of range 0..{engine.n - 1}")
        self._engine = engine
        self.i = i

    # -- appendix variables -----------------------------------------------

    @property
    def load(self) -> int:
        """``l_i``: total real packets."""
        return int(self._engine.l[self.i])

    @property
    def l_old(self) -> int:
        """``l_{i,old}``: own-class load at the last balancing op."""
        return int(self._engine.l_old[self.i])

    @property
    def own_load(self) -> int:
        """``d_{i,i}``: self-generated packets held locally."""
        return int(self._engine.d.diag[self.i])

    @property
    def d(self) -> np.ndarray:
        """``d_{i,1..n}``: per-class real packets (copy)."""
        return self._engine.d.row_dense(self.i)

    @property
    def b(self) -> np.ndarray:
        """``b_{i,1..n}``: per-class outstanding debt (copy)."""
        return self._engine.b.row_dense(self.i)

    @property
    def debt(self) -> int:
        """Total outstanding borrow debt ``sum_j b_{i,j}``."""
        return self._engine.b.row_sum(self.i)

    @property
    def virtual_load(self) -> int:
        """``sum_j (d_{i,j} + b_{i,j})``: the load the analysis sees."""
        return self._engine.d.row_sum(self.i) + self._engine.b.row_sum(self.i)

    @property
    def local_time(self) -> int:
        """Local clock: balancing operations participated in."""
        return int(self._engine.local_time[self.i])

    # -- derived -------------------------------------------------------------

    @property
    def foreign_load(self) -> int:
        """Packets of other classes held here (migrated-in work)."""
        return self.load - self.own_load

    @property
    def can_borrow(self) -> bool:
        """Whether a borrow would currently be admissible."""
        from repro.core.borrowing import eligible_borrow_classes_sparse

        if self.debt >= self._engine.params.C:
            return False
        return (
            len(
                eligible_borrow_classes_sparse(
                    self._engine.d.rows[self.i], self._engine.b.rows[self.i]
                )
            )
            > 0
        )

    def would_trigger(self) -> str:
        """What the trigger would decide right now ('none'/'growth'/
        'decrease')."""
        return self._engine.trigger.check(self.own_load, self.l_old).value

    def __repr__(self) -> str:
        return (
            f"ProcessorView(i={self.i}, load={self.load}, own={self.own_load}, "
            f"debt={self.debt}, l_old={self.l_old}, t_local={self.local_time})"
        )
