"""Bit-exact RNG replays and the fused quiet-tick apply (C kernels).

The engines draw one ``rng.permutation(n)`` per tick to randomise the
processor sweep order.  On an *all-fast* tick (every processor is a
debt-free generate, a consume-own, starved, or idle) the permutation's
**values** are never read — only the generator state advance matters,
because the next tick's draws must come from the same stream position as
the scalar sweep's.  At n = 10⁵–10⁶ materialising and discarding that
permutation dominates the tick, so :class:`PermutationSkipper` advances
the generator state *without* building the array.

Every balancing operation draws its ``delta`` partners with
``rng.choice(n - 1, delta, replace=False)`` (see
:class:`~repro.core.selection.GlobalRandomSelector`).  From Python that
call costs ~12 µs, most of it numpy set-up around a handful of draws,
so :class:`ChoiceReplayer` replays it in C: picks and state alike.

Exactness contract
------------------
``numpy.random.Generator.permutation(n)`` is a Fisher–Yates shuffle that
draws each index ``j`` in ``[0, i]`` for ``i = n-1 .. 1`` with Lemire's
masked-rejection scheme on 32-bit words (for ``n - 1 <= UINT32_MAX``):
draw a 32-bit word, AND with the smallest all-ones mask covering ``i``,
reject while the result exceeds ``i``.  The 32-bit words come from
splitting 64-bit outputs: low half first, and the high half is buffered
in the bit generator's ``uinteger`` slot — numpy *always* stores the
high half on every 64-bit draw, even when the buffered value is about to
be consumed, which is why the kernels below do the same (the replay must
reproduce the buffer byte-for-byte, not just the accepted values).

``Generator.choice(m, size, replace=False)`` (numpy 2.x) takes Floyd's
branch when ``m <= 10_000`` or ``size <= m // 50``: for ``j = m-size ..
m-1`` draw ``v`` in ``[0, j]`` (a repeat becomes ``j``), then shuffle the
picks with draws in ``[0, i]`` for ``i = size-1 .. 1``.  Each draw is
Lemire's *bounded multiply* on the same buffered 32-bit words, not the
permutation's masked rejection.  Elsewhere choice tail-shuffles a full
``arange(m)``; the replay leaves that branch to numpy.

Three tiers, best available wins, each verified at first use by a probe
that replays real calls and compares the **full bit generator state
dict** (including the 32-bit buffer), and for ``choice`` the picks,
against the kernel; the choice probe covers both sides of the Floyd
cutoff:

* ``pcg64`` — permutation skips only: writes numpy's PCG64 state struct
  directly through ``bit_generator.ctypes.state_address`` and steps the
  128-bit LCG + XSL-RR output function in C.  No Python per tick at
  all.  A partner draw is only a few 32-bit words, so its cost is the
  ctypes call and it has no such tier.
* ``next32`` — generic: calls the bit generator's own ``next_uint32``
  C function pointer from C, so any bit generator works; the draw loop
  is identical by construction.
* ``python`` — make the real numpy call (always exact, the reference the
  probes compare against).

``quiet_apply`` is the companion kernel: validate + apply a whole
all-fast ±1 tick (``l``, ``d.diag``, ``d.row_sums``) in one C pass,
falling back to numpy when no compiler is available.

A failed build, or a probe that rejects a compiled tier, raises one
``RuntimeWarning`` naming the tier that runs instead.  Set
``REPRO_NO_CKERNEL=1`` to disable every kernel quietly (pure-python
tiers only); the engines stay bit-identical either way, only slower.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

__all__ = ["ChoiceReplayer", "PermutationSkipper", "quiet_apply", "kernel_available"]

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned __int128 u128;

/* numpy's PCG64 multiplier (PCG_DEFAULT_MULTIPLIER_128) */
static const u128 MULT =
    (((u128)2549297995355413924ULL) << 64) | 4865540595714422341ULL;

static inline uint64_t rotr64(uint64_t v, unsigned r) {
    return (v >> r) | (v << ((64 - r) & 63));
}

/* layouts match numpy/random/src/pcg64/pcg64.h and _pcg64.pyx */
typedef struct { u128 state; u128 inc; } pcg64_random_t;
typedef struct {
    pcg64_random_t *pcg_state;
    int has_uint32;
    uint32_t uinteger;
} pcg64_state;

/* Advance a PCG64 state exactly as Generator.permutation(n) would:
 * Fisher-Yates with masked-rejection 32-bit draws, low half of each
 * 64-bit output first, high half buffered in `uinteger` (numpy stores
 * the high half on EVERY 64-bit draw, even when immediately consumed).
 * The accept/shrink steps are branchless; only the refill loop remains.
 */
void advance_shuffle_pcg64(void *state_struct, uint64_t n) {
    pcg64_state *st = (pcg64_state *)state_struct;
    if (n < 2) return;
    u128 state = st->pcg_state->state;
    const u128 inc = st->pcg_state->inc;
    int has = st->has_uint32;
    uint32_t buf = st->uinteger;
    uint64_t i = n - 1;
    uint64_t mask = i;
    mask |= mask >> 1; mask |= mask >> 2; mask |= mask >> 4;
    mask |= mask >> 8; mask |= mask >> 16; mask |= mask >> 32;
    if (has) {
        has = 0;
        i -= ((buf & mask) <= i);
        mask >>= (i <= (mask >> 1)) & (mask > 1);
    }
    while (i > 0) {
        state = state * MULT + inc;
        const uint64_t hi = (uint64_t)(state >> 64), lo = (uint64_t)state;
        const uint64_t out = rotr64(hi ^ lo, (unsigned)(hi >> 58));
        buf = (uint32_t)(out >> 32);
        i -= (((uint32_t)out & mask) <= i);
        mask >>= (i <= (mask >> 1)) & (mask > 1);
        if (i == 0) { has = 1; break; }
        i -= ((buf & mask) <= i);
        mask >>= (i <= (mask >> 1)) & (mask > 1);
    }
    st->pcg_state->state = state;
    st->has_uint32 = has;
    st->uinteger = buf;
}

/* Generic tier: same rejection replay, drawing 32-bit words through the
 * bit generator's own next_uint32 function pointer (its next_uint32
 * implements the identical low-then-buffered-high split, so this is
 * exact for any bit generator numpy ships). */
typedef uint32_t (*next32_fn)(void *);

void advance_shuffle_next32(next32_fn next32, void *bg_state, uint64_t n) {
    if (n < 2) return;
    uint64_t i = n - 1;
    uint64_t mask = i;
    mask |= mask >> 1; mask |= mask >> 2; mask |= mask >> 4;
    mask |= mask >> 8; mask |= mask >> 16; mask |= mask >> 32;
    while (i > 0) {
        const uint32_t draw = next32(bg_state);
        i -= ((draw & mask) <= i);
        mask >>= (i <= (mask >> 1)) & (mask > 1);
    }
}

/* Partner draws: replay Generator.choice(m, size, replace=False) on
 * numpy's Floyd branch, then shift every pick >= skip up by one (so the
 * picks range over 0..m without `skip`).  Floyd: for j = m-size .. m-1
 * draw v in [0, j] (a repeat becomes j, which no earlier pick can be);
 * then numpy's _shuffle_int of the picks with draws in [0, i] for
 * i = size-1 .. 1.  Every draw is random_bounded_uint64(0, rng): no
 * draw for rng == 0, else Lemire's bounded 32-bit draw. */
static inline uint64_t bounded32(next32_fn next32, void *ctx, uint64_t rng) {
    if (rng == 0) return 0;
    const uint32_t excl = (uint32_t)rng + 1;
    uint64_t m = (uint64_t)next32(ctx) * excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < excl) {
        const uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % excl;
        while (leftover < threshold) {
            m = (uint64_t)next32(ctx) * excl;
            leftover = (uint32_t)m;
        }
    }
    return m >> 32;
}

/* Returns 0, or -1 (nothing drawn) when the pick set cannot be
 * allocated.  Requires 1 <= size <= m <= UINT32_MAX. */
int choice_next32(next32_fn next32, void *ctx, uint64_t m,
                  uint64_t size, uint64_t skip, int64_t *out) {
    uint64_t cap = 4;
    while (cap < 2 * size) cap <<= 1;
    uint64_t *seen = malloc(cap * sizeof(uint64_t));
    if (!seen) return -1;
    memset(seen, 0xff, cap * sizeof(uint64_t));
    const uint64_t first = m - size, mask = cap - 1;
    for (uint64_t j = first; j < m; j++) {
        uint64_t v = bounded32(next32, ctx, j);
        uint64_t at = v & mask;
        while (seen[at] != UINT64_MAX && seen[at] != v) at = (at + 1) & mask;
        if (seen[at] == v) {
            v = j;
            at = v & mask;
            while (seen[at] != UINT64_MAX) at = (at + 1) & mask;
        }
        seen[at] = v;
        out[j - first] = (int64_t)v;
    }
    free(seen);
    for (uint64_t i = size - 1; i >= 1; i--) {
        const uint64_t j = bounded32(next32, ctx, i);
        const int64_t t = out[j]; out[j] = out[i]; out[i] = t;
    }
    for (uint64_t k = 0; k < size; k++) out[k] += ((uint64_t)out[k] >= skip);
    return 0;
}

/* Fused all-fast tick: validate every action is in {-1,0,1}, then apply
 * l += a, diag += a, row_sums += a in one pass.  Returns 0 on success
 * (npos/nneg = generate/consume counts) or -(k+1) for the first invalid
 * index k, in which case nothing was mutated. */
long long quiet_apply(const long long *acts, long long *l, long long *diag,
                      long long *rs, long long n,
                      long long *npos, long long *nneg) {
    long long pos = 0, neg = 0;
    for (long long k = 0; k < n; k++) {
        const long long a = acts[k];
        if (a < -1 || a > 1) return -(k + 1);
        pos += (a == 1);
        neg += (a == -1);
    }
    for (long long k = 0; k < n; k++) {
        const long long a = acts[k];
        l[k] += a; diag[k] += a; rs[k] += a;
    }
    *npos = pos; *nneg = neg;
    return 0;
}
"""

_LL = ctypes.POINTER(ctypes.c_longlong)

# compiled-library singleton: None until first build attempt, then the
# CDLL or False (build failed / disabled)
_lib: ctypes.CDLL | bool | None = None

# probe verdicts per (replay, bit-generator class): "pcg64" | "next32" | "python"
_TIER_CACHE: dict[tuple[str, type], str] = {}


def _warn_fallback(why: str, tier: str) -> None:
    warnings.warn(
        f"{why}; running the {tier} tier (bit-identical, slower)",
        RuntimeWarning,
        stacklevel=4,
    )


def _build_library() -> ctypes.CDLL | None:
    """Compile the kernel source once per machine (cached .so) and load it.

    Returns None when disabled (``REPRO_NO_CKERNEL``) or when no C
    compiler is available — callers fall back to pure numpy/python, and
    the second case warns once per process.
    """
    global _lib
    if _lib is not None:
        return _lib if _lib is not False else None
    if os.environ.get("REPRO_NO_CKERNEL"):
        _lib = False
        return None
    try:
        digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
        cache = Path(tempfile.gettempdir()) / f"repro_ckernel_{digest}"
        so = cache / "kernel.so"
        if not so.exists():
            cache.mkdir(parents=True, exist_ok=True)
            csrc = cache / "kernel.c"
            csrc.write_text(_C_SOURCE)
            tmp_so = cache / f"kernel.{os.getpid()}.so"
            for cc in ("cc", "gcc", "clang"):
                try:
                    res = subprocess.run(
                        [cc, "-O3", "-shared", "-fPIC", "-o", str(tmp_so), str(csrc)],
                        capture_output=True,
                        timeout=120,
                    )
                except (OSError, subprocess.TimeoutExpired):
                    continue
                if res.returncode == 0:
                    break
            else:
                raise OSError("no C compiler built the kernel source")
            os.replace(tmp_so, so)  # atomic vs concurrent worker builds
        lib = ctypes.CDLL(str(so))
        lib.advance_shuffle_pcg64.argtypes = [ctypes.c_void_p, ctypes.c_uint64]
        lib.advance_shuffle_pcg64.restype = None
        lib.advance_shuffle_next32.argtypes = [
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_uint64,
        ]
        lib.advance_shuffle_next32.restype = None
        draw = [ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_void_p]
        lib.choice_next32.argtypes = [ctypes.c_void_p, ctypes.c_void_p, *draw]
        lib.choice_next32.restype = ctypes.c_int
        lib.quiet_apply.argtypes = [_LL, _LL, _LL, _LL, ctypes.c_longlong, _LL, _LL]
        lib.quiet_apply.restype = ctypes.c_longlong
    except Exception as exc:
        _lib = False
        _warn_fallback(f"the C kernels are unavailable ({exc})", "python")
        return None
    _lib = lib
    return lib


def kernel_available() -> bool:
    """True iff the compiled kernel library is loadable on this machine."""
    return _build_library() is not None


def _states_equal(a, b) -> bool:
    """Deep equality of bit-generator ``.state`` dicts (arrays inside)."""
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_states_equal(a[k], b[k]) for k in a)
        )
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _twins(bitgen_cls, seed: int, pre: int):
    """Two generators in one state after ``pre`` 32-bit draws (an odd
    count leaves a buffered high half pending)."""
    pair = [np.random.Generator(bitgen_cls(seed=seed)) for _ in range(2)]
    if pre:
        for gen in pair:
            gen.integers(0, 3, size=pre)
    return pair


# (permutation size, 32-bit pre-draws to desync the uinteger buffer)
_SKIP_CASES = ((3, 0), (17, 1), (64, 0), (255, 2), (1000, 3), (100003, 1))

# (population m, picks, skip, 32-bit pre-draws): partner-sized draws,
# an exhausted population, and both sides of numpy's Floyd cutoff —
# (10_000, 300) and (20_000, 400) replay in C, (10_001, 201) and
# (20_000, 401) take the tail-shuffle branch
_CHOICE_CASES = (
    (1, 1, 0, 0), (2, 2, 1, 1), (3, 2, 3, 0), (255, 2, 17, 3),
    (1023, 3, 0, 1), (10_000, 300, 4999, 2), (10_001, 201, 7, 1),
    (20_000, 400, 19_999, 1), (20_000, 401, 3, 0), (100_001, 5, 100_000, 3),
)


def _probe_skip(bitgen_cls, tier: str) -> bool:
    for off, (m, pre) in enumerate(_SKIP_CASES):
        ref, cand = _twins(bitgen_cls, 90210 + off, pre)
        ref.permutation(m)
        skipper = PermutationSkipper(cand, kernel="off")
        skipper._bind(tier)
        skipper.skip(m)
        if not _states_equal(ref.bit_generator.state, cand.bit_generator.state):
            return False
    return True


def _probe_choice(bitgen_cls, tier: str) -> bool:
    for off, (m, size, skip, pre) in enumerate(_CHOICE_CASES):
        ref, cand = _twins(bitgen_cls, 4242 + off, pre)
        want = _choice_python(ref, m, size, skip)
        replayer = ChoiceReplayer(cand, kernel="off")
        replayer._bind(tier)
        got = replayer.choice(m, size, skip)
        if not (
            np.array_equal(want, got)
            and _states_equal(ref.bit_generator.state, cand.bit_generator.state)
        ):
            return False
    return True


def check_kernel_mode(kernel: str) -> str:
    """Validate a ``kernel=`` switch: ``"auto"`` (compiled tiers that
    pass their probe) or ``"off"`` (the python tier only)."""
    if kernel not in ("auto", "off"):
        raise ValueError(f"kernel must be 'auto' or 'off', got {kernel!r}")
    return kernel


def _resolve_tier(replay: str, bitgen_cls, kernel: str) -> str:
    """The tier ``replay`` runs on for ``bitgen_cls``: the first compiled
    tier that passes its probe (probed once per process), else python."""
    if check_kernel_mode(kernel) == "off" or _build_library() is None:
        return "python"
    key = (replay, bitgen_cls)
    tier = _TIER_CACHE.get(key)
    if tier is not None:
        return tier
    probe = _probe_skip if replay == "skip" else _probe_choice
    # a partner draw is a few 32-bit words, so the ctypes call dominates
    # and the generic tier is the only compiled choice replay
    pcg64 = replay == "skip" and bitgen_cls is np.random.PCG64
    compiled = ("pcg64", "next32") if pcg64 else ("next32",)
    rejected = []
    tier = "python"
    for cand in compiled:
        try:
            ok = probe(bitgen_cls, cand)
        except Exception:
            ok = False
        if ok:
            tier = cand
            break
        rejected.append(cand)
    if rejected:
        _warn_fallback(
            f"the {replay} kernel's {'/'.join(rejected)} tier failed its "
            f"exactness probe on {bitgen_cls.__name__}",
            tier,
        )
    _TIER_CACHE[key] = tier
    return tier


def _kernel(name: str, rng: np.random.Generator, tier: str):
    """Kernel ``{name}_{tier}`` with its generator arguments bound: the
    PCG64 state struct, or the generic ``next_uint32`` pointer + state."""
    cif = rng.bit_generator.ctypes
    if tier == "pcg64":
        # the state struct address is fixed for the bitgen's lifetime
        head = (cif.state_address,)
    else:
        head = (ctypes.cast(cif.next_uint32, ctypes.c_void_p), cif.state)
    return functools.partial(getattr(_lib, f"{name}_{tier}"), *head)


class PermutationSkipper:
    """Advance a bound Generator exactly as ``rng.permutation(n)`` would.

    ``skip(n)`` leaves ``rng.bit_generator.state`` bit-identical to a
    real ``rng.permutation(n)`` call without materialising the array.
    The implementation tier (``"pcg64"``, ``"next32"`` or ``"python"``)
    is chosen once per bit-generator class after an exactness probe; the
    ``python`` tier simply draws and discards the permutation, so the
    skipper is always safe to use.

    Pass ``kernel="off"`` to force the python tier (used by the
    fallback-equivalence tests and as an escape hatch).
    """

    def __init__(self, rng: np.random.Generator, *, kernel: str = "auto") -> None:
        self.rng = rng
        self._bind(_resolve_tier("skip", type(rng.bit_generator), kernel))

    def _bind(self, tier: str) -> None:
        self.tier = tier
        self._fn = None if tier == "python" else _kernel("advance_shuffle", self.rng, tier)

    def skip(self, n: int) -> None:
        """Consume exactly the draws of one ``permutation(n)`` call."""
        if n < 2:
            return  # a 0/1-element shuffle draws nothing
        # the 32-bit rejection scheme only covers ranges up to UINT32_MAX
        if self._fn is not None and n - 1 <= 0xFFFFFFFF:
            self._fn(n)
        else:
            self.rng.permutation(n)


def _choice_python(rng, m: int, size: int, skip: int) -> np.ndarray:
    picks = rng.choice(m, size=size, replace=False)
    picks[picks >= skip] += 1
    return picks


class ChoiceReplayer:
    """Draw distinct ids exactly as ``rng.choice(m, size, replace=False)``.

    ``choice(m, size, skip)`` returns the picks of that call with every
    pick ``>= skip`` shifted up by one — ``size`` distinct ids from
    ``0..m`` without ``skip`` — and leaves ``rng.bit_generator.state``
    bit-identical to the real call.  Probing is as for
    :class:`PermutationSkipper`; the tier is ``"next32"`` or
    ``"python"``.  The compiled tier replays numpy's Floyd branch only (``m <= 10_000`` or ``size <= m // 50``); other
    draws, and the python tier, call ``rng.choice`` itself.  Each call
    returns a fresh array.
    """

    def __init__(self, rng: np.random.Generator, *, kernel: str = "auto") -> None:
        self.rng = rng
        self._bind(_resolve_tier("choice", type(rng.bit_generator), kernel))

    def _bind(self, tier: str) -> None:
        self.tier = tier
        self._fn = None if tier == "python" else _kernel("choice", self.rng, tier)

    def choice(self, m: int, size: int, skip: int) -> np.ndarray:
        fn = self._fn
        if (
            fn is not None
            and 0 < size <= m <= 0xFFFFFFFF
            and (m <= 10_000 or size <= m // 50)
        ):
            picks = np.empty(size, dtype=np.int64)
            if fn(m, size, skip, picks.ctypes.data) == 0:
                return picks
        return _choice_python(self.rng, m, size, skip)


def _quiet_apply_numpy(acts, l, diag, row_sums):  # noqa: E741 - paper symbol
    bad = (acts < -1) | (acts > 1)
    if bad.any():
        k = int(np.nonzero(bad)[0][0])
        raise ValueError(f"invalid action {int(acts[k])} for processor {k}")
    l += acts
    diag += acts
    row_sums += acts
    return int(np.count_nonzero(acts == 1)), int(np.count_nonzero(acts == -1))


def quiet_apply(actions, l, diag, row_sums, *, use_kernel=True):  # noqa: E741
    """Validate + apply one all-fast ±1 tick in a single fused pass.

    Adds ``actions`` elementwise to the load vector, the own-class
    diagonal and the row-sum cache, returning ``(n_generated,
    n_consumed)``.  Raises :class:`ValueError` on the first out-of-range
    action with the scalar engine's exact message — and in that case
    mutates nothing (the caller has not advanced the RNG yet either, so
    a failed tick leaves the engine untouched, matching the scalar
    sweep's validate-before-anything order).
    """
    acts = np.ascontiguousarray(actions, dtype=np.int64)
    lib = _build_library() if use_kernel else None
    if lib is None:
        return _quiet_apply_numpy(acts, l, diag, row_sums)
    npos = ctypes.c_longlong(0)
    nneg = ctypes.c_longlong(0)
    rc = lib.quiet_apply(
        acts.ctypes.data_as(_LL),
        l.ctypes.data_as(_LL),
        diag.ctypes.data_as(_LL),
        row_sums.ctypes.data_as(_LL),
        len(acts),
        ctypes.byref(npos),
        ctypes.byref(nneg),
    )
    if rc < 0:
        k = -int(rc) - 1
        raise ValueError(f"invalid action {int(acts[k])} for processor {k}")
    return int(npos.value), int(nneg.value)
