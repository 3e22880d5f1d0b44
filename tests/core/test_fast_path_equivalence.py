"""Dense-lane equivalence: the per-tick vectorized lane must be invisible.

Before the deep-quiet lane, every vectorized tick ran one shape:
classify the processors into fast / starved / slow masks, bulk-apply an
all-fast tick, and otherwise walk the permutation with the buffered
dense lane (:meth:`ColumnarEngine._dense_sweep`), flushing the fast runs
before each slow or mid-tick-dirtied processor.  The engine below pins
:class:`~repro.core.columnar.ColumnarEngine` to exactly that shape — no
deep-quiet horizon, and the dense walk for every tick with a scalar
stop, whatever the stop count — so the buffered walk is checked against
the scalar oracle (``Engine``) on every such tick of the grid, not only
on the ticks the mode heuristic happens to route to it.  Agreement is
bit-for-bit on ``l``, ``d``, ``b``, ``l_old``, all counters, the RNG
state and the full traced event sequence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.columnar import ColumnarEngine
from repro.core.engine import Engine, EngineConfig
from repro.observability import Tracer
from repro.params import LBParams


class _DenseLaneEngine(ColumnarEngine):
    """Per-tick lanes only; traced, so every tick with a scalar stop
    takes the dense walk."""

    dense_ticks = 0

    def _deep_horizon(self) -> int:
        return 0

    def _dense_sweep(self, frame) -> None:
        self.dense_ticks += 1
        super()._dense_sweep(frame)


def _run(engine_cls, n, params, actions, seed):
    tracer = Tracer()
    eng = engine_cls(EngineConfig(n=n, params=params), rng=seed, tracer=tracer)
    for row in actions:
        eng.step(np.asarray(row, dtype=np.int64))
    eng.assert_invariants()
    return eng, tracer


def _assert_equivalent(n, params, actions, seed):
    dense, dense_tr = _run(_DenseLaneEngine, n, params, actions, seed)
    ref, ref_tr = _run(Engine, n, params, actions, seed)
    assert dense.dense_ticks > 0
    assert dense.l.tolist() == ref.l.tolist()
    assert dense.l_old.tolist() == ref.l_old.tolist()
    assert np.array_equal(dense.d.dense(), ref.d.dense())
    assert np.array_equal(dense.b.dense(), ref.b.dense())
    assert dense.counters.as_dict() == ref.counters.as_dict()
    assert dense.total_ops == ref.total_ops
    assert dense.packets_migrated == ref.packets_migrated
    assert dense.total_generated == ref.total_generated
    assert dense.total_consumed == ref.total_consumed
    assert dense.rng.bit_generator.state == ref.rng.bit_generator.state
    assert dense_tr.events == ref_tr.events


GRID = [
    # (n, f, delta, C, gen_bias, ticks, seed)
    (2, 1.5, 1, 2, 0.5, 80, 0),
    (3, 1.1, 1, 1, 0.6, 60, 1),
    (5, 1.3, 2, 4, 0.45, 60, 2),
    (8, 1.2, 3, 2, 0.55, 50, 3),
    (16, 1.1, 2, 4, 0.5, 40, 4),
    (16, 2.5, 4, 1, 0.7, 40, 5),
    (32, 1.3, 2, 4, 0.45, 30, 6),
    (32, 1.8, 5, 3, 0.65, 30, 7),
]


@pytest.mark.parametrize("n,f,delta,C,bias,ticks,seed", GRID)
def test_equivalence_seeded_sweep(n, f, delta, C, bias, ticks, seed):
    wr = np.random.default_rng(1000 + seed)
    u = wr.random((ticks, n))
    actions = np.zeros((ticks, n), dtype=np.int64)
    actions[u < bias * 0.9] = 1
    actions[u > 1 - (1 - bias) * 0.9] = -1  # ~10% idle
    _assert_equivalent(n, LBParams(f=f, delta=delta, C=C), actions, seed)
