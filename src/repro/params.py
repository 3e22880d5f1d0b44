"""Algorithm parameters and their validity domain.

The Lüling–Monien algorithm is governed by three parameters:

``f``
    The *trigger factor*.  A processor initiates a load balancing
    operation whenever its self-generated load has grown by a factor
    ``>= f`` or shrunk by a factor ``<= 1/f`` since its last balancing
    operation.  The theorems of the paper require ``1 <= f < delta + 1``.

``delta``
    The *neighbourhood size*: the number of randomly chosen partner
    processors participating in one balancing operation (so ``delta + 1``
    processors are equalised).

``C``
    The *borrow capacity*: the maximum total number of load packets a
    processor may hold "borrowed" from foreign load classes before it has
    to trigger the debt-reduction protocol of section 4.

All theoretical quantities (``FIX``, the Theorem 3/4 bounds, the Lemma
5/6 cost bounds) are functions of these parameters; see
:mod:`repro.theory`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

__all__ = ["LBParams", "ParamError"]


class ParamError(ValueError):
    """Raised when a parameter combination violates the paper's domain."""


@dataclass(frozen=True, slots=True)
class LBParams:
    """Parameter set of the load balancing algorithm.

    Parameters
    ----------
    f:
        Trigger factor.  Must be finite and ``f >= 1``.  The provable bounds
        additionally require ``f < delta + 1`` (checked by default;
        disable with ``require_provable=False`` for out-of-domain
        experiments).
    delta:
        Number of random balancing partners, ``1 <= delta``.  The
        paper also requires ``delta < n``; that is checked against the
        actual network size when a simulator is constructed.
    C:
        Borrow capacity, ``C >= 1``.
    require_provable:
        When true (default), enforce ``1 <= f < delta + 1`` so the
        theorems of the paper apply.  Experiments probing behaviour
        outside the provable domain may set this to ``False``.

    Examples
    --------
    >>> p = LBParams(f=1.1, delta=1, C=4)
    >>> p.fix_limit_upper  # delta / (delta + 1 - f), Theorem 2
    1.1111111111111112
    """

    f: float = 1.1
    delta: int = 1
    C: int = 4
    require_provable: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.delta, int):
            raise ParamError(f"delta must be an int, got {self.delta!r}")
        if self.delta < 1:
            raise ParamError(f"delta must be >= 1, got {self.delta}")
        if not self.f >= 1.0:
            raise ParamError(f"f must be >= 1, got {self.f}")
        if not math.isfinite(self.f):
            raise ParamError(f"f must be finite, got {self.f}")
        if not isinstance(self.C, int) or self.C < 1:
            raise ParamError(f"C must be a positive int, got {self.C!r}")
        if self.require_provable and not self.f < self.delta + 1:
            raise ParamError(
                f"the provable domain requires 1 <= f < delta + 1 "
                f"(got f={self.f}, delta={self.delta}); pass "
                f"require_provable=False to experiment outside it"
            )

    # -- derived theoretical quantities ---------------------------------

    @property
    def in_provable_domain(self) -> bool:
        """True iff ``1 <= f < delta + 1`` (Theorems 1-4 apply)."""
        return 1.0 <= self.f < self.delta + 1

    @property
    def fix_limit_upper(self) -> float:
        """``delta / (delta + 1 - f)``: Theorem 2's network-size-free
        upper bound on the expected-load ratio in the OPG model."""
        if not self.in_provable_domain:
            raise ParamError("fix_limit_upper requires 1 <= f < delta + 1")
        return self.delta / (self.delta + 1 - self.f)

    @property
    def fix_limit_lower(self) -> float:
        """``delta / (delta + 1 - 1/f)``: Theorem 3's lower counterpart
        for the consumption operator ``C``."""
        return self.delta / (self.delta + 1 - 1.0 / self.f)

    def validate_for_network(self, n: int) -> None:
        """Check the constraints that involve the network size ``n``.

        The balancing operation draws ``delta`` distinct partners from the
        ``n - 1`` other processors, hence ``delta < n`` is required.
        """
        if n < 2:
            raise ParamError(f"need at least 2 processors, got n={n}")
        if self.delta >= n:
            raise ParamError(
                f"delta must be < n (delta={self.delta}, n={n})"
            )

    def with_(self, **changes: Any) -> "LBParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def as_dict(self) -> Mapping[str, Any]:
        """Plain-dict view (for experiment manifests / CSV headers)."""
        return {"f": self.f, "delta": self.delta, "C": self.C}
