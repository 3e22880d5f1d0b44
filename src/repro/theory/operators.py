"""The expected-load-ratio operators ``G`` and ``C`` of section 3.

Setting
-------
In the one-processor-generator (OPG) model, processor 1 is the only
producer.  Let ``k_t = E(l_{1,t}) / E(l_{i,t})`` be the ratio between the
expected load of processor 1 and of any other processor ``i`` after ``t``
balancing operations (by symmetry all ``i >= 2`` share the same
expectation).  Lemma 1 of the paper shows that one *growth phase*
(processor 1's load grows by the factor ``f``, then a balancing
operation with ``delta`` uniformly chosen partners equalises the
``delta + 1`` participants) maps the ratio through

    G(k) = (k f + delta) (n - 1) / (delta k f + delta (n - 2) + (n - 1)).

Derivation sketch (matches Lemma 1): write ``E(l_i) = 1`` for ``i >= 2``
and ``E(l_1) = k``.  After growth, processor 1 holds ``k f``.  The
balancing operation averages processor 1 with ``delta`` partners, so its
new expected load is ``(k f + delta) / (delta + 1)``.  A non-producer is
selected as partner with probability ``delta / (n - 1)``; its new
expectation is therefore a mixture of the balanced value and its old
value, and normalising the ratio of the two expectations yields ``G``.

The *consumption operator* ``C`` models a decrease of the producer's
load by the factor ``f`` followed by a balancing operation; it is ``G``
with ``f`` replaced by ``1/f``.

Both operators are contractions on the relevant interval (Banach's
fixed point theorem is the engine behind Theorems 1-3); their common
fixed point structure lives in :mod:`repro.theory.fixpoint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["growth_operator", "consume_operator", "GrowthOperator"]


def growth_operator(k: float, n: int, delta: int, f: float) -> float:
    """One application of the growth operator ``G`` (Lemma 1).

    Parameters
    ----------
    k:
        Current expected-load ratio ``E(l_1)/E(l_i)``, ``k > 0``.
    n:
        Number of processors (``n >= 2``).
    delta:
        Balancing neighbourhood size (``1 <= delta < n``).
    f:
        Growth factor applied to processor 1's load before balancing.
    """
    _check(n, delta)
    num = (k * f + delta) * (n - 1)
    den = delta * k * f + delta * (n - 2) + (n - 1)
    return num / den


def consume_operator(k: float, n: int, delta: int, f: float) -> float:
    """One application of the consumption operator ``C``: ``G`` at ``1/f``."""
    return growth_operator(k, n, delta, 1.0 / f)


def _check(n: int, delta: int) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 1 <= delta < n:
        raise ValueError(f"need 1 <= delta < n, got delta={delta}, n={n}")


@dataclass(frozen=True, slots=True)
class GrowthOperator:
    """``G`` (or ``C``) curried over ``(n, delta, f)``.

    Use ``GrowthOperator(n, delta, f)`` for the growth direction and
    ``GrowthOperator(n, delta, 1/f)`` for consumption.  Instances are
    plain callables, convenient for iteration and composition::

        >>> G = GrowthOperator(n=16, delta=1, f=1.1)
        >>> round(G(1.0), 6)
        1.046512
    """

    n: int
    delta: int
    f: float

    def __post_init__(self) -> None:
        _check(self.n, self.delta)
        if self.f <= 0:
            raise ValueError(f"f must be positive, got {self.f}")

    def __call__(self, k: float) -> float:
        return growth_operator(k, self.n, self.delta, self.f)

    def inverse_direction(self) -> "GrowthOperator":
        """The operator for the opposite load direction (``f -> 1/f``)."""
        return GrowthOperator(self.n, self.delta, 1.0 / self.f)

    def iterated(self, t: int) -> Callable[[float], float]:
        """Return ``G^t`` as a callable (``t >= 0``)."""
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")

        def power(k: float) -> float:
            for _ in range(t):
                k = self(k)
            return k

        return power

    def derivative(self, k: float) -> float:
        """Analytic derivative ``G'(k)``; used to verify contraction.

        With ``N = (kf + d)(n-1)`` and ``D = dkf + d(n-2) + (n-1)``,
        ``G'(k) = f (n-1) (D - d (kf + d)) / D^2``
                = ``f (n-1) (d(n-2) + (n-1) - d^2) / D^2``.
        """
        d, n, f = self.delta, self.n, self.f
        den = d * k * f + d * (n - 2) + (n - 1)
        return f * (n - 1) * (d * (n - 2) + (n - 1) - d * d) / den**2
