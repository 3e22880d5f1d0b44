"""Tests for candidate selection strategies."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.selection import GlobalRandomSelector, NeighborhoodSelector


class TestGlobalRandom:
    def test_excludes_initiator(self, rng):
        sel = GlobalRandomSelector(8)
        for i in range(8):
            for _ in range(50):
                picks = sel.select(i, 3, rng)
                assert i not in picks
                assert len(set(picks.tolist())) == 3
                assert ((0 <= picks) & (picks < 8)).all()

    def test_delta_equals_n_minus_1(self, rng):
        sel = GlobalRandomSelector(5)
        picks = sel.select(2, 4, rng)
        assert sorted(picks.tolist()) == [0, 1, 3, 4]

    def test_uniformity(self):
        """Every other processor is picked with equal frequency."""
        rng = np.random.default_rng(0)
        sel = GlobalRandomSelector(6)
        counts = np.zeros(6)
        trials = 30_000
        for _ in range(trials):
            counts[sel.select(0, 2, rng)] += 1
        assert counts[0] == 0
        freq = counts[1:] / (trials * 2 / 5)
        assert np.allclose(freq, 1.0, atol=0.05)

    def test_invalid(self, rng):
        sel = GlobalRandomSelector(4)
        with pytest.raises(ValueError):
            sel.select(4, 1, rng)
        with pytest.raises(ValueError):
            sel.select(0, 4, rng)
        with pytest.raises(ValueError):
            GlobalRandomSelector(1)

    @given(
        n=st.integers(2, 40),
        initiator=st.integers(0, 39),
        delta=st.integers(1, 39),
        seed=st.integers(0, 1000),
    )
    def test_contract(self, n, initiator, delta, seed):
        if initiator >= n or delta >= n:
            return
        rng = np.random.default_rng(seed)
        picks = GlobalRandomSelector(n).select(initiator, delta, rng)
        assert picks.shape == (delta,)
        assert initiator not in picks
        assert len(np.unique(picks)) == delta


class TestGlobalRandomReplay:
    """The selector's draws are ``rng.choice`` replayed bit for bit."""

    @staticmethod
    def _reference(rng, n, initiator, delta):
        picks = rng.choice(n - 1, size=delta, replace=False)
        picks[picks >= initiator] += 1
        return picks

    @pytest.mark.parametrize("kernel", ["auto", "off"])
    @pytest.mark.parametrize("n, delta", [(2, 1), (3, 2), (33, 3), (256, 2), (10_001, 5)])
    def test_matches_rng_choice(self, kernel, n, delta, request):
        if kernel == "off":
            request.getfixturevalue("python_tier")
        ref = np.random.default_rng(n)
        cand = np.random.default_rng(n)
        sel = GlobalRandomSelector(n)
        for k in range(40):
            i = (7 * k) % n
            assert np.array_equal(self._reference(ref, n, i, delta), sel.select(i, delta, cand))
        assert ref.bit_generator.state == cand.bit_generator.state

    def test_tier_is_resolved_per_bound_generator(self):
        sel = GlobalRandomSelector(16)
        assert sel.tier is None
        sel.select(0, 2, np.random.default_rng(0))
        assert sel.tier in ("next32", "python")
        sel.select(0, 2, np.random.Generator(np.random.MT19937(0)))
        assert sel.tier in ("next32", "python")

    def test_rebinds_when_handed_another_generator(self):
        a_ref, b_ref = np.random.default_rng(1), np.random.default_rng(2)
        a, b = np.random.default_rng(1), np.random.default_rng(2)
        sel = GlobalRandomSelector(64)
        for k in range(10):
            rng, ref = (a, a_ref) if k % 2 else (b, b_ref)
            assert np.array_equal(self._reference(ref, 64, k, 3), sel.select(k, 3, rng))

    def test_kernel_off_forces_the_python_tier(self, python_tier):
        # the columnar engine's own selector is the one Engine builds:
        # the process-wide switch reaches it with nothing passed on
        from repro.core.columnar import ColumnarEngine
        from repro.core.engine import EngineConfig
        from repro.params import LBParams

        eng = ColumnarEngine(EngineConfig(n=32, params=LBParams(f=1.3, delta=2, C=4)))
        eng.selector.select(3, 2, eng.rng)
        assert eng.selector.tier == "python"
        assert eng._skipper.tier == "python"

    def test_disabled_kernels_force_the_python_tier(self, python_tier):
        sel = GlobalRandomSelector(16)
        sel.select(3, 2, np.random.default_rng(0))
        assert sel.tier == "python"


class TestNeighborhood:
    def test_small_pool_used_entirely(self, rng):
        sel = NeighborhoodSelector([[1], [0]])
        assert sel.select(0, 3, rng).tolist() == [1]

    def test_pool_subset(self, rng):
        sel = NeighborhoodSelector([[1, 2, 3], [0], [0], [0]])
        for _ in range(30):
            picks = sel.select(0, 2, rng)
            assert set(picks.tolist()) <= {1, 2, 3}
            assert len(picks) == 2

    def test_self_in_pool_rejected(self):
        with pytest.raises(ValueError):
            NeighborhoodSelector([[0, 1], [0]])

    def test_duplicate_pool_rejected(self):
        with pytest.raises(ValueError):
            NeighborhoodSelector([[1, 1], [0]])
