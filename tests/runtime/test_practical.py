"""Tests for the practical balancer and its hook protocol."""

import numpy as np
import pytest

from repro.params import LBParams
from repro.runtime.practical import BalancerHooks, PracticalBalancer


class RecordingHooks(BalancerHooks):
    def __init__(self):
        self.log = []

    def on_generate(self, i):
        self.log.append(("gen", i))

    def on_consume(self, i):
        self.log.append(("con", i))

    def on_starved(self, i):
        self.log.append(("starve", i))

    def on_transfer(self, src, dst, amount):
        self.log.append(("move", src, dst, amount))


def make(n=6, f=1.3, delta=2, seed=0, hooks=None):
    return PracticalBalancer(
        n, LBParams(f=f, delta=delta, C=4), rng=seed, hooks=hooks
    )


class TestPracticalBalancer:
    def test_conservation(self):
        """sum(l) == generates - consumes, counted via hooks."""
        hooks = RecordingHooks()
        b = make(hooks=hooks)
        rng = np.random.default_rng(0)
        for _ in range(100):
            b.step(rng.integers(-1, 2, size=6))
        gen = sum(1 for ev in hooks.log if ev[0] == "gen")
        con = sum(1 for ev in hooks.log if ev[0] == "con")
        assert int(b.l.sum()) == gen - con
        assert (b.l >= 0).all()

    def test_loads_equal_events(self):
        """Hook events replay to exactly the balancer's load vector."""
        hooks = RecordingHooks()
        b = make(hooks=hooks)
        rng = np.random.default_rng(1)
        for _ in range(60):
            b.step(rng.integers(-1, 2, size=6))
        shadow = np.zeros(6, dtype=np.int64)
        for ev in hooks.log:
            if ev[0] == "gen":
                shadow[ev[1]] += 1
            elif ev[0] == "con":
                shadow[ev[1]] -= 1
            elif ev[0] == "move":
                _, src, dst, amount = ev
                shadow[src] -= amount
                shadow[dst] += amount
        assert np.array_equal(shadow, b.l)

    def test_events_never_underflow(self):
        """Replaying events in order keeps every shadow count >= 0 —
        the inline-ordering guarantee the task runtime relies on."""
        hooks = RecordingHooks()
        b = make(hooks=hooks, seed=7)
        rng = np.random.default_rng(7)
        shadow = np.zeros(6, dtype=np.int64)
        for _ in range(80):
            b.step(rng.integers(-1, 2, size=6))
        for ev in hooks.log:
            if ev[0] == "gen":
                shadow[ev[1]] += 1
            elif ev[0] == "con":
                shadow[ev[1]] -= 1
            elif ev[0] == "move":
                _, src, dst, amount = ev
                shadow[src] -= amount
                shadow[dst] += amount
            assert (shadow >= 0).all(), ev

    def test_starved_hook(self):
        hooks = RecordingHooks()
        b = make(hooks=hooks)
        b.step(np.array([-1, 0, 0, 0, 0, 0]))
        assert ("starve", 0) in hooks.log
        assert b.starved == 1

    def test_balances_growth(self):
        b = make(n=8, f=1.1, delta=7)
        a = np.zeros(8, dtype=np.int64)
        a[0] = 1
        for _ in range(60):
            b.step(a)
        assert b.l.max() - b.l.min() <= 2

    def test_transfers_accumulate_per_tick(self):
        hooks = RecordingHooks()
        b = make(n=4, f=1.1, delta=3, hooks=hooks)
        a = np.array([1, 1, 0, 0])
        b.step(a)
        transfers = [ev[1:] for ev in hooks.log if ev[0] == "move"]
        assert transfers
        for src, dst, amount in transfers:
            assert amount > 0
            assert src != dst
        assert sum(amount for _, _, amount in transfers) == b.packets_migrated

    def test_invalid_action_shape(self):
        with pytest.raises(ValueError):
            make().step(np.zeros(3, dtype=np.int64))

    def test_invalid_action_value(self):
        with pytest.raises(ValueError):
            make().step(np.full(6, 3, dtype=np.int64))

    def test_simulation_protocol(self):
        """Drives through the standard Simulation glue."""
        from repro.simulation.driver import Simulation
        from repro.workload import UniformRandom
        import numpy as np

        b = make(n=8)
        sim = Simulation(
            b, UniformRandom(8, 0.7, 0.3), workload_rng=np.random.default_rng(0)
        )
        hist = sim.run(40)
        assert hist.shape == (41, 8)
