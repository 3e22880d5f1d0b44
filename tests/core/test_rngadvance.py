"""RNG fast-forward and fused quiet-apply kernels: exactness contracts.

:class:`~repro.core.rngadvance.PermutationSkipper` must leave the bound
generator's full bit-generator state exactly where a real
``rng.permutation(n)`` call would — for every n, with and without a
buffered 32-bit high half pending;
:class:`~repro.core.rngadvance.ChoiceReplayer` must return the picks of
``rng.choice(m, size, replace=False)`` (shifted past the initiator) and
leave the same state behind; and
:func:`~repro.core.rngadvance.quiet_apply` must match the pure-numpy
fallback bit for bit, including the no-mutation-on-error guarantee.
The kernels are allowed to be *absent* (no C compiler, or
``REPRO_NO_CKERNEL``); every behaviour here must hold on the python
fallbacks too, which the forced-fallback tests pin.
"""

from __future__ import annotations

import ctypes
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import rngadvance
from repro.core.rngadvance import (
    ChoiceReplayer,
    PermutationSkipper,
    _states_equal,
    deep_horizon,
    quiet_apply,
)
from repro.core.triggers import FactorTrigger


def _state(rng):
    return rng.bit_generator.state


def _reference_choice(rng, m, size, skip):
    picks = rng.choice(m, size=size, replace=False)
    picks[picks >= skip] += 1
    return picks


class TestPermutationSkipper:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 17, 64, 255, 1000, 4096])
    def test_skip_matches_real_permutation(self, n):
        ref = np.random.default_rng(42)
        cand = np.random.default_rng(42)
        ref.permutation(n)
        PermutationSkipper(cand).skip(n)
        assert _states_equal(_state(ref), _state(cand))

    @pytest.mark.parametrize("pre", [1, 2, 3])
    def test_skip_with_desynced_uint32_buffer(self, pre):
        # odd 32-bit consumption leaves numpy's buffered high half
        # pending; the skip must consume draws from exactly there
        ref = np.random.default_rng(7)
        cand = np.random.default_rng(7)
        ref.integers(0, 3, size=pre)
        cand.integers(0, 3, size=pre)
        skipper = PermutationSkipper(cand)
        for n in (5, 100, 1000):
            ref.permutation(n)
            skipper.skip(n)
        assert _states_equal(_state(ref), _state(cand))

    def test_skip_interleaved_with_real_draws(self):
        ref = np.random.default_rng(9)
        cand = np.random.default_rng(9)
        skipper = PermutationSkipper(cand)
        for n in (12, 300, 33):
            ref.permutation(n)
            skipper.skip(n)
            assert ref.integers(0, 10**9) == cand.integers(0, 10**9)
        assert _states_equal(_state(ref), _state(cand))

    def test_kernel_off_forces_python_tier(self, python_tier):
        skipper = PermutationSkipper(np.random.default_rng(0))
        assert skipper.tier == "python"

    def test_python_tier_is_exact(self, python_tier):
        ref = np.random.default_rng(11)
        cand = np.random.default_rng(11)
        skipper = PermutationSkipper(cand)
        for n in (3, 50, 777):
            ref.permutation(n)
            skipper.skip(n)
        assert _states_equal(_state(ref), _state(cand))

    def test_missing_library_degrades_to_python(self, monkeypatch):
        monkeypatch.setattr(rngadvance, "_lib", False)  # "probed, absent"
        skipper = PermutationSkipper(np.random.default_rng(1))
        assert skipper.tier == "python"
        ref = np.random.default_rng(1)
        ref.permutation(64)
        skipper.skip(64)
        assert _states_equal(_state(ref), _state(skipper.rng))

    def test_tier_is_probed_not_assumed(self):
        # whatever tier was selected, it passed the full-state probe;
        # here we just pin that the attribute is one of the known tiers
        skipper = PermutationSkipper(np.random.default_rng(0))
        assert skipper.tier in ("pcg64", "next32", "python")


class TestChoiceReplayer:
    # partner-sized draws, an exhausted population, and both sides of
    # numpy's Floyd cutoff (m <= 10_000 or size <= m // 50)
    @pytest.mark.parametrize(
        "m, size",
        [
            (1, 1), (2, 1), (2, 2), (3, 2), (32, 4), (255, 2), (1023, 3),
            (1023, 5), (10_000, 300), (10_000, 10_000), (10_001, 200),
            (10_001, 201), (20_000, 400), (20_000, 401), (100_000, 5),
        ],
    )
    @pytest.mark.parametrize("pre", [0, 1, 2])
    def test_matches_rng_choice_picks_and_state(self, m, size, pre):
        ref = np.random.default_rng(1000 + m)
        cand = np.random.default_rng(1000 + m)
        if pre:
            # an odd 32-bit pre-draw leaves numpy's high half buffered
            ref.integers(0, 3, size=pre)
            cand.integers(0, 3, size=pre)
        skip = m // 3
        want = _reference_choice(ref, m, size, skip)
        got = ChoiceReplayer(cand).choice(m, size, skip)
        assert np.array_equal(want, got)
        assert _states_equal(_state(ref), _state(cand))

    @pytest.mark.parametrize(
        "bitgen", [np.random.PCG64, np.random.MT19937, np.random.Philox]
    )
    def test_stream_stays_in_step_over_many_draws(self, bitgen):
        for seed in range(20):
            ref = np.random.Generator(bitgen(seed))
            cand = np.random.Generator(bitgen(seed))
            replayer = ChoiceReplayer(cand)
            for k, (n, delta) in enumerate([(2, 1), (3, 2), (33, 3), (256, 2), (1024, 5)] * 4):
                skip = (seed + 7 * k) % n
                assert np.array_equal(
                    _reference_choice(ref, n - 1, delta, skip),
                    replayer.choice(n - 1, delta, skip),
                )
                assert ref.integers(0, 10**9) == cand.integers(0, 10**9)
            assert _states_equal(_state(ref), _state(cand))

    def test_kernel_runs_on_the_floyd_branch_only(self):
        replayer = ChoiceReplayer(np.random.default_rng(0))
        if replayer.tier == "python":
            pytest.skip("no compiled tier on this machine")
        calls = []
        kernel = replayer._fn

        def counting(*args):
            calls.append(args[:2])
            return kernel(*args)

        replayer._fn = counting
        for m, size in [(20_000, 400), (20_000, 401), (10_000, 9_000), (10_001, 201)]:
            replayer.choice(m, size, 0)
        assert calls == [(20_000, 400), (10_000, 9_000)]

    def test_each_call_returns_a_fresh_array(self):
        replayer = ChoiceReplayer(np.random.default_rng(3))
        first = replayer.choice(100, 3, 0)
        second = replayer.choice(100, 3, 0)
        assert not np.shares_memory(first, second)

    def test_output_buffer_rebinds_when_it_grows(self):
        # the kernel writes into one buffer whose address is cached; a
        # larger draw replaces it, and earlier results stay untouched
        ref, cand = np.random.default_rng(8), np.random.default_rng(8)
        replayer = ChoiceReplayer(cand)
        got = []
        for m, size, skip in [(1023, 2, 5), (10_000, 300, 7), (1023, 3, 0), (255, 2, 254)]:
            want = _reference_choice(ref, m, size, skip)
            got.append((want, replayer.choice(m, size, skip)))
            assert np.array_equal(*got[-1])
            assert _states_equal(_state(ref), _state(cand))
        assert all(np.array_equal(want, pick) for want, pick in got)
        assert len({id(pick) for _, pick in got}) == len(got)

    def test_kernel_off_forces_python_tier(self, python_tier):
        assert ChoiceReplayer(np.random.default_rng(0)).tier == "python"

    def test_compiled_tiers_pass_their_probes(self, monkeypatch):
        # a rejected tier only degrades to python (still exact), so pin
        # that the kernels as written pass, wherever they build
        if not rngadvance.kernel_available():
            pytest.skip("no compiled kernels on this machine")
        monkeypatch.setattr(rngadvance, "_TIER_CACHE", {})
        mt = np.random.Generator(np.random.MT19937(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ChoiceReplayer(np.random.default_rng(0)).tier == "next32"
            assert ChoiceReplayer(mt).tier == "next32"
            assert PermutationSkipper(np.random.default_rng(0)).tier in ("pcg64", "next32")
            assert PermutationSkipper(mt).tier == "next32"

    def test_wrong_kernel_fails_the_probe_and_falls_back(self, monkeypatch):
        def draws_nothing(*args):  # claims success, touches nothing
            return 0

        real = rngadvance._build_library()
        fake = type("FakeLib", (), {
            "choice_next32": staticmethod(draws_nothing),
            "advance_shuffle_pcg64": getattr(real, "advance_shuffle_pcg64", None),
            "advance_shuffle_next32": getattr(real, "advance_shuffle_next32", None),
        })()
        monkeypatch.setattr(rngadvance, "_lib", fake)
        monkeypatch.setattr(rngadvance, "_TIER_CACHE", {})
        ref = np.random.default_rng(5)
        cand = np.random.default_rng(5)
        with pytest.warns(RuntimeWarning, match="choice kernel's next32 tier"):
            replayer = ChoiceReplayer(cand)
        assert replayer.tier == "python"
        for skip in range(6):
            assert np.array_equal(
                _reference_choice(ref, 255, 2, skip), replayer.choice(255, 2, skip)
            )
        assert _states_equal(_state(ref), _state(cand))
        # the verdict is cached: a second replayer neither probes nor warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ChoiceReplayer(np.random.default_rng(6)).tier == "python"


class TestBuildCache:
    """Builds are named by ABI tag and source digest; a fresh build
    removes the builds of other sources for its ABI, nothing else."""

    def _fresh(self, monkeypatch, tmp_path):
        if not rngadvance.kernel_available():
            pytest.skip("no compiled kernels on this machine")
        monkeypatch.setattr(rngadvance, "_lib", None)
        monkeypatch.setattr(rngadvance, "_walk_build", None)
        monkeypatch.setattr(rngadvance, "_event_build", None)
        monkeypatch.setattr(rngadvance.tempfile, "gettempdir", lambda: str(tmp_path))

    def _builds(self, tmp_path):
        prefix = f"repro_ckernel_{rngadvance._abi_tag()}_"
        return sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(prefix))

    def test_fresh_build_removes_stale_builds_of_its_abi(self, monkeypatch, tmp_path):
        self._fresh(monkeypatch, tmp_path)
        tag = rngadvance._abi_tag()
        removed = [
            tmp_path / f"repro_ckernel_{tag}_{'0' * 16}",
            tmp_path / f"repro_ckernel_{'0' * 16}",  # no ABI tag
        ]
        kept = [
            tmp_path / f"repro_ckernel_otherabi_{'0' * 16}",  # another interpreter
            tmp_path / "unrelated",
        ]
        for d in (*removed, *kept):
            d.mkdir()
            (d / "kernel.so").write_bytes(b"")
        assert rngadvance._build_library() is not None
        (build,) = self._builds(tmp_path)
        assert {p.name for p in (tmp_path / build).iterdir()} == {"kernel.so", "walk.so", "event.so"}
        assert not any(d.exists() for d in removed)
        assert all(d.exists() for d in kept)

    def test_a_loaded_build_survives_its_removal(self, monkeypatch, tmp_path):
        self._fresh(monkeypatch, tmp_path)
        old = rngadvance._build_library()
        (first,) = self._builds(tmp_path)
        # an edited source builds under a new digest and removes the old
        monkeypatch.setattr(rngadvance, "_C_SOURCE", rngadvance._C_SOURCE + "\n/* edit */\n")
        monkeypatch.setattr(rngadvance, "_lib", None)
        assert rngadvance._build_library() is not None
        (second,) = self._builds(tmp_path)
        assert second != first
        l, diag, row_sums = _fresh_state()  # noqa: E741
        acts = np.ones(len(l), dtype=np.int64)
        npos = ctypes.c_longlong(0)
        nneg = ctypes.c_longlong(0)
        ll = ctypes.POINTER(ctypes.c_longlong)
        rc = old.quiet_apply(
            *(a.ctypes.data_as(ll) for a in (acts, l, diag, row_sums)),
            len(l), ctypes.byref(npos), ctypes.byref(nneg),
        )
        assert (rc, npos.value) == (0, len(l))


class TestLoudFallback:
    def _no_compiler(self, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise OSError("no such compiler")

        monkeypatch.setattr(rngadvance, "_lib", None)
        monkeypatch.setattr(rngadvance, "_TIER_CACHE", {})
        monkeypatch.setattr(rngadvance.tempfile, "gettempdir", lambda: str(tmp_path))
        monkeypatch.setattr(rngadvance.subprocess, "run", fail)

    def test_failed_build_warns_once_naming_the_python_tier(
        self, monkeypatch, tmp_path
    ):
        self._no_compiler(monkeypatch, tmp_path)
        monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
        with pytest.warns(RuntimeWarning, match="running the python tier"):
            skipper = PermutationSkipper(np.random.default_rng(0))
        assert skipper.tier == "python"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ChoiceReplayer(np.random.default_rng(0)).tier == "python"

    def test_disabled_kernels_stay_quiet(self, monkeypatch, tmp_path):
        self._no_compiler(monkeypatch, tmp_path)
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert PermutationSkipper(np.random.default_rng(0)).tier == "python"
            assert ChoiceReplayer(np.random.default_rng(0)).tier == "python"


def _fresh_state(n=16, seed=3):
    wr = np.random.default_rng(seed)
    l = wr.integers(5, 50, size=n)  # noqa: E741 - paper symbol
    diag = l.copy()
    row_sums = l.copy()
    return l, diag, row_sums


class TestQuietApply:
    @pytest.mark.parametrize("use_kernel", [True, False])
    def test_applies_and_counts(self, use_kernel, request):
        if not use_kernel:
            request.getfixturevalue("python_tier")
        l, diag, row_sums = _fresh_state()  # noqa: E741
        acts = np.array([1, -1, 0, 1] * 4, dtype=np.int64)
        before = l.copy()
        npos, nneg = quiet_apply(acts, l, diag, row_sums)
        assert (npos, nneg) == (8, 4)
        assert np.array_equal(l, before + acts)
        assert np.array_equal(diag, before + acts)
        assert np.array_equal(row_sums, before + acts)

    def test_kernel_matches_numpy_fallback(self):
        acts = np.random.default_rng(0).integers(-1, 2, size=257)
        a = _fresh_state(257)
        b = _fresh_state(257)
        ra = quiet_apply(acts, *a)
        rb = rngadvance._quiet_apply_numpy(acts, *b)
        assert ra == rb
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("use_kernel", [True, False])
    def test_invalid_action_reports_first_index_and_mutates_nothing(
        self, use_kernel, request
    ):
        if not use_kernel:
            request.getfixturevalue("python_tier")
        l, diag, row_sums = _fresh_state()  # noqa: E741
        acts = np.zeros(16, dtype=np.int64)
        acts[5] = 3
        acts[11] = -2
        snap = (l.copy(), diag.copy(), row_sums.copy())
        with pytest.raises(
            ValueError, match="invalid action 3 for processor 5"
        ):
            quiet_apply(acts, l, diag, row_sums)
        assert np.array_equal(l, snap[0])
        assert np.array_equal(diag, snap[1])
        assert np.array_equal(row_sums, snap[2])


def _columns(olds, n, spread, seed, debt):
    """``l``, ``l_old``, ``d.diag``, ``b.row_sums`` of ``n`` processors:
    each ``l_old`` drawn from ``olds``, ``own`` and ``l`` within
    ``spread`` of it (never negative), optionally one debtor."""
    wr = np.random.default_rng(seed)
    l_old = np.asarray(olds, dtype=np.int64)[wr.integers(len(olds), size=n)]
    own = np.maximum(l_old + wr.integers(-spread, spread + 1, size=n), 0)
    l = np.maximum(own + wr.integers(-spread, spread + 1, size=n), 0)  # noqa: E741
    b_rs = np.zeros(n, dtype=np.int64)
    if debt and n:
        b_rs[wr.integers(n)] = 1
    return l, l_old, own, b_rs


class TestDeepHorizon:
    """The one-pass C horizon against the numpy fallback (the band of
    :meth:`FactorTrigger.quiet_interval` and three minimums)."""

    @given(
        f=st.one_of(st.floats(1.0, 4.0), st.just(1.0), st.floats(1e17, 1e300)),
        strict=st.booleans(),
        olds=st.lists(
            st.one_of(
                st.just(0),
                st.integers(0, 200),
                st.integers(2**61 - 10, 2**61 + 10),
            ),
            min_size=1,
            max_size=4,
        ),
        n=st.sampled_from([0, 1, 17, 1000]),
        spread=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
        debt=st.booleans(),
    )
    # the fallback's f * old overflows to inf at the largest f (capped)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_kernel_matches_numpy_fallback(
        self, f, strict, olds, n, spread, seed, debt
    ):
        trigger = FactorTrigger(f, strict=strict)
        cols = _columns(olds, n, spread, seed, debt)
        h = deep_horizon(trigger, *cols)
        assert h == rngadvance._deep_horizon_numpy(trigger, *cols)
        if debt or n == 0:
            assert h == 0

    def test_balanced_network_has_a_horizon(self):
        # f = 1.3 at load 40: band (30, 52), so min(9, 11, 40) = 9
        n = 100_000
        l = np.full(n, 40, dtype=np.int64)  # noqa: E741
        cols = (l, l.copy(), l.copy(), np.zeros(n, dtype=np.int64))
        trigger = FactorTrigger(1.3)
        assert deep_horizon(trigger, *cols) == 9
        assert rngadvance._deep_horizon_numpy(trigger, *cols) == 9
        cols[3][-1] = 1  # a debt anywhere vetoes the deep lane
        assert deep_horizon(trigger, *cols) == 0

    def test_numpy_tier_when_kernels_are_off(self, python_tier, monkeypatch):
        calls = []
        real = rngadvance._deep_horizon_numpy
        monkeypatch.setattr(
            rngadvance,
            "_deep_horizon_numpy",
            lambda *a: calls.append(1) or real(*a),
        )
        cols = _columns([40], 17, 0, 0, False)
        assert deep_horizon(FactorTrigger(1.3), *cols) == 9
        assert calls == [1]

    def test_a_bound_horizon_reads_in_place_and_rebinds(self):
        """An engine binds the kernel to its columns once: in-place
        changes are seen, a replaced column rebinds."""
        from repro.core.columnar import ColumnarEngine
        from repro.core.engine import EngineConfig
        from repro.params import LBParams

        n = 64
        eng = ColumnarEngine(EngineConfig(n=n, params=LBParams(f=1.3, delta=2, C=4)), rng=0)
        for e in (eng.l, eng.d.diag, eng.d.row_sums, eng.l_old):
            e[:] = 40
        assert eng._deep_horizon() == 9
        bound = eng._horizon
        eng.d.diag[5] = 32  # in place: own - lo - 1 = 32 - 30 - 1
        assert eng._deep_horizon() == 1 and eng._horizon is bound
        eng.l = eng.l.copy()
        eng.l[0] = 3  # a replaced column, with a smaller load
        assert eng._deep_horizon() == 1 and eng._horizon is not bound
        eng.d.diag[5] = 40
        assert eng._deep_horizon() == 3
        cols = (eng.l, eng.l_old, eng.d.diag, eng.b.row_sums)
        assert eng._deep_horizon() == rngadvance._deep_horizon_numpy(eng.trigger, *cols)

    def test_columns_of_different_lengths_rejected(self):
        l, l_old, own, b_rs = _columns([40], 17, 0, 0, False)  # noqa: E741
        with pytest.raises(ValueError):
            deep_horizon(FactorTrigger(1.3), l, l_old[:-1], own, b_rs)

    @pytest.mark.parametrize("f", [float("inf"), float("nan")])
    def test_trigger_rejects_non_finite_f(self, f):
        # an infinite f makes the band's f * 0 a NaN (hi = INT64_MIN)
        # while check() stays quiet; the band's domain is finite f
        with pytest.raises(ValueError, match="f must be"):
            FactorTrigger(f, strict=True)
