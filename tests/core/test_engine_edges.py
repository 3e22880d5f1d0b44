"""Engine edge cases: minimal networks, extreme parameters, churn."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, EngineConfig, LBParams


def run_random(engine: Engine, ticks: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(ticks):
        engine.step(rng.integers(-1, 2, size=engine.n))


class TestMinimalNetwork:
    def test_two_processors(self):
        e = Engine(
            EngineConfig(n=2, params=LBParams(f=1.1, delta=1, C=1),
                         check_invariants=True),
            rng=0,
        )
        run_random(e, 200, seed=1)
        assert e.total_ops > 0

    def test_two_processors_one_sided(self):
        """Producer/consumer pair: the tightest possible pipeline."""
        e = Engine(EngineConfig(n=2, params=LBParams(f=1.1, delta=1, C=2)), rng=0)
        for _ in range(150):
            e.step(np.array([1, -1]))
        e.assert_invariants()
        # the consumer was fed: it consumed far more than it starved
        assert e.total_consumed > e.counters.starved


class TestExtremeParameters:
    def test_f_exactly_one(self):
        """f = 1: every change triggers — maximal churn, still sound."""
        e = Engine(
            EngineConfig(n=6, params=LBParams(f=1.0, delta=2, C=4),
                         check_invariants=True),
            rng=0,
        )
        run_random(e, 100, seed=2)
        # one op per own-class change, roughly
        assert e.total_ops > 50

    def test_capacity_one(self):
        e = Engine(
            EngineConfig(n=6, params=LBParams(f=1.2, delta=1, C=1),
                         check_invariants=True),
            rng=3,
        )
        run_random(e, 200, seed=3)
        assert e.b.total() <= 1 * 6 + e.n  # near-capacity bound

    def test_delta_n_minus_one(self):
        """Full-machine balancing: spread can never exceed 1 right
        after any op."""
        e = Engine(EngineConfig(n=5, params=LBParams(f=1.1, delta=4, C=4)), rng=4)
        a = np.zeros(5, dtype=np.int64)
        a[0] = 1
        for _ in range(100):
            e.step(a)
        assert e.l.max() - e.l.min() <= 2  # <=1 at ops, +1 drift between

    def test_out_of_domain_f(self):
        """f >= delta + 1 voids the theorems but must not crash."""
        e = Engine(
            EngineConfig(
                n=6,
                params=LBParams(f=3.0, delta=1, C=4, require_provable=False),
                check_invariants=True,
            ),
            rng=5,
        )
        run_random(e, 150, seed=5)


class TestChurn:
    @given(seed=st.integers(0, 100))
    @settings(max_examples=15)
    def test_drain_refill_cycles(self, seed):
        """Repeated total drains and refills never corrupt the ledger."""
        e = Engine(
            EngineConfig(n=4, params=LBParams(f=1.2, delta=1, C=2),
                         check_invariants=True),
            rng=seed,
        )
        gen = np.ones(4, dtype=np.int64)
        con = -np.ones(4, dtype=np.int64)
        for _ in range(5):
            for _ in range(20):
                e.step(gen)
            for _ in range(25):
                e.step(con)
        assert (e.l >= 0).all()

    def test_long_alternation_bounded_debt(self):
        e = Engine(EngineConfig(n=8, params=LBParams(f=1.1, delta=1, C=4)), rng=6)
        rng = np.random.default_rng(6)
        for t in range(400):
            phase = (t // 40) % 2
            p_gen = 0.8 if phase == 0 else 0.1
            p_con = 0.1 if phase == 0 else 0.8
            u = rng.random(8)
            a = np.where(u < p_gen, 1, np.where(u < p_gen + p_con, -1, 0))
            e.step(a.astype(np.int64))
        e.assert_invariants()
        assert e.b.total() <= 4 * 8  # total debt bounded by C * n
