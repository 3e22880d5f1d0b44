"""Bit-exact RNG replays and the quiet-tick C kernels.

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

Two companion kernels serve the deep-quiet lane, each one C pass that
falls back to numpy when the kernels are off:

* ``quiet_apply`` — validate + apply a whole all-fast ±1 tick (``l``,
  ``d.diag``, ``d.row_sums``);
* ``deep_horizon`` — the lane's proven horizon, from ``l``, ``l_old``,
  ``d.diag`` and ``b.row_sums``.  Its static ``band()`` transcribes
  :meth:`~repro.core.triggers.FactorTrigger.quiet_interval` in the same
  IEEE doubles, and the tick walk's trigger test reads the same
  ``band()``, so the C source holds the trigger rule once.

The tick walk
-------------
``tick_walk`` is the event-dense tick of
:class:`~repro.core.columnar.ColumnarEngine`: the scalar sweep's
handlers, balancing operation and class-``j`` dance included, in C over
the engine's numpy columns and ``{class: count}`` ledger rows.  It
draws through ``bounded32`` (``rng.integers(k)``: Lemire's bounded
32-bit draw, nothing drawn for ``k == 1``) and the ``choice_next32``
Floyd replay, and calls back into Python only for the producer
exchange.  It reads the dict rows through the CPython API, so it
includes ``Python.h`` and is a library of its own.
:func:`_build_library` compiles it with the other kernels;
:func:`walk_function` loads it at its first use, and the engine's
first-use probe is cached with the tiers (:func:`walk_probed`).

The event walk
--------------
``event_walk`` is the serve loop of
:class:`~repro.core.async_engine.AsyncEngine` and the live service: its
fault-free handlers over the engine's columns, an event heap and the
task-queue rings (:mod:`repro.core.event_walk` binds and probes it).
It draws through numpy's own ``next_double`` and
``random_standard_exponential`` besides ``bounded32`` and
``choice_next32``, so it links ``libnpyrandom.a``
(:func:`event_build_flags`); :func:`event_walk_function` loads it at
its first use.

Builds live in ``repro_ckernel_{abi}_{digest}`` under the temp dir —
the interpreter's extension ABI tag and a digest of the sources — and
a fresh build removes the builds of other digests for its ABI and the
untagged ``repro_ckernel_{digest}`` builds of older versions.

A failed build, or a probe that rejects a compiled tier, raises one
``RuntimeWarning`` naming the tier that runs instead.

``REPRO_NO_CKERNEL=1`` is the one switch: read once, by
:func:`_build_library`, it disables every kernel quietly (pure-python
tiers only) for the whole process — every replay, ``quiet_apply``,
``deep_horizon`` and both walks, whichever engine, selector or
network uses them.  The engines stay bit-identical either way, only
slower.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import re
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path

import numpy as np

__all__ = [
    "ChoiceReplayer",
    "DeepHorizon",
    "PermutationSkipper",
    "deep_horizon",
    "event_walk_function",
    "floyd_branch",
    "kernel_available",
    "quiet_apply",
    "walk_function",
    "walk_probed",
]

_C_SOURCE = r"""
#include <math.h>
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

/* FactorTrigger.quiet_interval for one processor, in the same doubles:
 * the trigger fires iff own <= *lo or own >= *hi.  The cap keeps an
 * overflowing f * old (inf) from wrapping in the cast. */
static void band(double f, int64_t strict, int64_t old,
                 int64_t *lo, int64_t *hi) {
    const double od = (double)old, up = ceil(f * od);
    *hi = up < 0x1p62 ? (int64_t)up : (int64_t)1 << 62;
    *lo = (int64_t)floor(od / f);
    if (strict) return;
    if (old == 0) {  /* guarded idle state: growth iff own >= 1 */
        *lo = -((int64_t)1 << 62);
        *hi = 1;
        return;
    }
    if (*hi < old + 1) *hi = old + 1;  /* guarded growth needs own > old */
    if (*lo > old - 1) *lo = old - 1;  /* guarded decrease needs own < old */
}

/* ColumnarEngine._deep_horizon in one pass: 0 if n == 0 or any b row
 * sum is non-zero, else min(own - lo - 1, hi - own - 1, l) over all
 * processors, floored at 0.  A result of 0 is final as soon as it is
 * reached; consecutive equal l_old values share one band. */
long long deep_horizon(const long long *l, const long long *l_old,
                       const long long *diag, const long long *brs,
                       long long n, double f, long long strict) {
    if (n <= 0) return 0;
    int64_t h = INT64_MAX, last = l_old[0], lo, hi;
    band(f, strict, last, &lo, &hi);
    for (long long k = 0; k < n && h > 0; k++) {
        if (brs[k]) return 0;
        if (l_old[k] != last) band(f, strict, last = l_old[k], &lo, &hi);
        const int64_t own = diag[k];
        if (own - lo - 1 < h) h = own - lo - 1;
        if (hi - own - 1 < h) h = hi - own - 1;
        if (l[k] < h) h = l[k];
    }
    return h > 0 ? h : 0;
}
"""

# The event-dense tick of ColumnarEngine: Engine._sweep's per-processor
# handlers over the engine's own state, drawing from the bit generator
# through bounded32 and choice_next32 above.  It includes Python.h (the
# ledger rows are {class: count} dicts), so it is a library of its own,
# built per interpreter ABI.
_WALK_SOURCE = (
    "#define PY_SSIZE_T_CLEAN\n#include <Python.h>\n"
    + _C_SOURCE
    + r"""
/* layout mirrors repro.core.columnar._WalkConfig */
typedef struct {
    int64_t *l, *l_old, *local_time, *d_diag, *d_rs, *b_diag, *b_rs, *acc;
    int64_t n, delta, cap, strict, refresh;
    double f;
    next32_fn next32;
    void *bg;
} walk_cfg;

/* counter deltas, in columnar._WALK_COUNTERS order */
enum { TOTAL_BORROW, BORROW_FAIL, DECREASE_SIM, REPAYMENTS, CONSUME_BLOCKED,
       STARVED, DEBT_ANNIHILATED, DEBTS_SETTLED, TOTAL_OPS, PACKETS_MIGRATED,
       TOTAL_GENERATED, TOTAL_CONSUMED, N_ACC };

/* one ClassLedger: dense diagonal and row sums, {class: count} rows */
typedef struct { int64_t *diag, *rs; PyObject *rows; } ledger;

typedef struct { int64_t c, v; } entry;

typedef struct {
    const walk_cfg *c;
    int64_t *acc;
    ledger d, b;
    PyObject *keys;      /* tuple(range(n)): the class keys of the rows */
    PyObject *exchange;  /* bound Engine._exchange_with_producer */
    /* delta + 2 slots each */
    int64_t *parts, *old, *sums, *bsums, *ndiag, *grp, *col, *hold, *picks;
    int64_t *buf;        /* scratch sized from the rows it holds */
    Py_ssize_t cap;
} walk;

#define KEY(w, c) PyTuple_GET_ITEM((w)->keys, (c))

static inline uint64_t draw(walk *w, uint64_t k) {  /* rng.integers(k) */
    return bounded32(w->c->next32, w->c->bg, k - 1);
}

static int64_t *scratch(walk *w, Py_ssize_t need) {
    if (need > w->cap) {
        int64_t *grown = PyMem_Realloc(w->buf, (size_t)need * sizeof(int64_t));
        if (!grown) { PyErr_NoMemory(); return NULL; }
        w->buf = grown;
        w->cap = need;
    }
    return w->buf;
}

static PyObject *row_of(const ledger *L, int64_t i) {
    PyObject *row = PyList_GET_ITEM(L->rows, i);
    if (!PyDict_CheckExact(row)) {
        PyErr_SetString(PyExc_TypeError, "ledger rows must be dicts");
        return NULL;
    }
    return row;
}

static int class_of(const walk *w, PyObject *key, int64_t *c) {
    const long long v = PyLong_AsLongLong(key);
    if (v == -1 && PyErr_Occurred()) return -1;
    if (v < 0 || v >= w->c->n) {
        PyErr_Format(PyExc_ValueError, "ledger class %lld out of range", v);
        return -1;
    }
    *c = v;
    return 0;
}

static int count_of(PyObject *val, int64_t *v) {
    *v = PyLong_AsLongLong(val);
    return (*v == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int cmp_i64(const void *a, const void *b) {
    const int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

static int cmp_entry(const void *a, const void *b) {
    const int64_t x = ((const entry *)a)->c, y = ((const entry *)b)->c;
    return (x > y) - (x < y);
}

/* ClassLedger.get */
static int get(walk *w, const ledger *L, int64_t i, int64_t j, int64_t *v) {
    if (i == j) { *v = L->diag[i]; return 0; }
    PyObject *row = row_of(L, i);
    if (!row) return -1;
    PyObject *val = PyDict_GetItemWithError(row, KEY(w, j));
    if (!val) { *v = 0; return PyErr_Occurred() ? -1 : 0; }
    return count_of(val, v);
}

/* ClassLedger.add: prunes zeros off the diagonal */
static int add(walk *w, const ledger *L, int64_t i, int64_t j, int64_t dv) {
    if (dv == 0) return 0;
    if (i == j) {
        L->diag[i] += dv;
    } else {
        int64_t v;
        if (get(w, L, i, j, &v) < 0) return -1;
        PyObject *row = PyList_GET_ITEM(L->rows, i);
        if (v + dv) {
            PyObject *val = PyLong_FromLongLong(v + dv);
            if (!val) return -1;
            const int rc = PyDict_SetItem(row, KEY(w, j), val);
            Py_DECREF(val);
            if (rc < 0) return -1;
        } else if (PyDict_DelItem(row, KEY(w, j)) < 0) {
            return -1;
        }
    }
    L->rs[i] += dv;
    return 0;
}

/* ClassLedger.positive_classes of b row i, ascending */
static Py_ssize_t owed(walk *w, int64_t i, int64_t **out) {
    PyObject *row = row_of(&w->b, i), *key, *val;
    if (!row) return -1;
    int64_t *buf = scratch(w, PyDict_GET_SIZE(row) + 1);
    if (!buf) return -1;
    Py_ssize_t pos = 0, k = 0;
    while (PyDict_Next(row, &pos, &key, &val)) {
        int64_t v;
        if (count_of(val, &v) < 0) return -1;
        if (v > 0 && class_of(w, key, &buf[k++]) < 0) return -1;
    }
    if (w->b.diag[i] > 0) buf[k++] = i;
    qsort(buf, (size_t)k, sizeof *buf, cmp_i64);
    *out = buf;
    return k;
}

/* borrowing.eligible_borrow_classes_sparse of row i, ascending */
static Py_ssize_t eligible(walk *w, int64_t i, int64_t **out) {
    PyObject *drow = row_of(&w->d, i), *brow = row_of(&w->b, i), *key, *val;
    if (!drow || !brow) return -1;
    int64_t *buf = scratch(w, PyDict_GET_SIZE(drow) + 1);
    if (!buf) return -1;
    const int debts = PyDict_GET_SIZE(brow) > 0;
    Py_ssize_t pos = 0, k = 0;
    while (PyDict_Next(drow, &pos, &key, &val)) {
        int64_t v;
        if (count_of(val, &v) < 0) return -1;
        if (v <= 0) continue;
        if (debts) {
            const int owes = PyDict_Contains(brow, key);
            if (owes < 0) return -1;
            if (owes) continue;
        }
        if (class_of(w, key, &buf[k++]) < 0) return -1;
    }
    qsort(buf, (size_t)k, sizeof *buf, cmp_i64);
    *out = buf;
    return k;
}

/* borrowing.pick_from_classes */
static int pick(walk *w, const int64_t *xs, Py_ssize_t k, int64_t *out) {
    if (k == 0) {
        PyErr_SetString(PyExc_ValueError, "no outstanding debt to pick from");
        return -1;
    }
    *out = xs[draw(w, (uint64_t)k)];
    return 0;
}

/* FactorTrigger.check != NONE, on the quiet band */
static int fires(const walk_cfg *c, int64_t own, int64_t old) {
    int64_t lo, hi;
    band(c->f, c->strict, old, &lo, &hi);
    return own <= lo || own >= hi;
}

/* ClassLedger.snake_redeal of the k participant rows; new row sums into
 * sums */
static int snake(walk *w, const ledger *L, const int64_t *parts, int64_t k,
                 int64_t start, int64_t *sums) {
    Py_ssize_t m = k, ne = 0;
    for (int64_t q = 0; q < k; q++) {
        PyObject *row = row_of(L, parts[q]);
        if (!row) return -1;
        m += PyDict_GET_SIZE(row);
    }
    entry *e = (entry *)scratch(w, 2 * m);
    if (!e) return -1;
    for (int64_t q = 0; q < k; q++) {
        const int64_t p = parts[q];
        PyObject *row = PyList_GET_ITEM(L->rows, p), *key, *val;
        Py_ssize_t pos = 0;
        while (PyDict_Next(row, &pos, &key, &val)) {
            if (class_of(w, key, &e[ne].c) < 0 || count_of(val, &e[ne].v) < 0)
                return -1;
            ne++;
        }
        if (L->diag[p]) { e[ne].c = p; e[ne].v = L->diag[p]; ne++; }
    }
    qsort(e, (size_t)ne, sizeof *e, cmp_entry);
    int64_t *ndiag = w->ndiag;
    for (int64_t q = 0; q < k; q++) {
        PyDict_Clear(PyList_GET_ITEM(L->rows, parts[q]));
        ndiag[q] = sums[q] = 0;
    }
    int64_t ptr = start % k;
    for (Py_ssize_t x = 0; x < ne;) {
        const int64_t c = e[x].c;
        int64_t total = 0, qc = -1;
        for (; x < ne && e[x].c == c; x++) total += e[x].v;
        for (int64_t q = 0; q < k; q++)
            if (parts[q] == c) qc = q;
        const int64_t base = total / k, rem = total % k;
        for (int64_t q = 0; q < k; q++) {
            const int64_t v = base + ((q - ptr + k) % k < rem);
            if (!v) continue;
            sums[q] += v;
            if (q == qc) { ndiag[q] = v; continue; }
            PyObject *val = PyLong_FromLongLong(v);
            if (!val) return -1;
            const int rc = PyDict_SetItem(PyList_GET_ITEM(L->rows, parts[q]), KEY(w, c), val);
            Py_DECREF(val);
            if (rc < 0) return -1;
        }
        if (rem) { ptr += rem; if (ptr >= k) ptr -= k; }
    }
    for (int64_t q = 0; q < k; q++) {
        L->diag[parts[q]] = ndiag[q];
        L->rs[parts[q]] = sums[q];
    }
    return 0;
}

static int partners(walk *w, int64_t skip, int64_t *out) {
    if (choice_next32(w->c->next32, w->c->bg, (uint64_t)(w->c->n - 1),
                      (uint64_t)w->c->delta, (uint64_t)skip, out) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* Engine._balance without observers */
static int balance(walk *w, int64_t i) {
    const walk_cfg *c = w->c;
    const int64_t k = c->delta + 1;
    int64_t *parts = w->parts, *sums = w->sums;
    parts[0] = i;
    if (partners(w, i, parts + 1) < 0) return -1;
    for (int64_t q = 0; q < k; q++) w->old[q] = c->l[parts[q]];
    const int64_t start_d = (int64_t)draw(w, (uint64_t)k);
    if (snake(w, &w->d, parts, k, start_d, sums) < 0) return -1;
    /* drawn whether or not any debts are present */
    const int64_t start_b = (int64_t)draw(w, (uint64_t)k);
    int debts = 0;
    for (int64_t q = 0; q < k; q++) debts |= w->b.rs[parts[q]] != 0;
    if (debts && snake(w, &w->b, parts, k, start_b, w->bsums) < 0) return -1;
    int64_t moved = 0;
    for (int64_t q = 0; q < k; q++) {
        const int64_t diff = sums[q] - w->old[q];
        if (diff > 0) moved += diff;
        c->l[parts[q]] = sums[q];
    }
    w->acc[PACKETS_MIGRATED] += moved;
    w->acc[TOTAL_OPS]++;
    for (int64_t q = 0; q < (c->refresh ? k : 1); q++) {
        c->l_old[parts[q]] = w->d.diag[parts[q]];
        c->local_time[parts[q]]++;
    }
    /* appendix final rule: a debt to one's own class settles in place */
    for (int64_t q = 0; q < k; q++) {
        const int64_t p = parts[q], count = w->b.diag[p];
        if (count > 0) {
            w->acc[DECREASE_SIM]++;
            w->acc[DEBTS_SETTLED] += count;
            w->b.diag[p] -= count;
            w->b.rs[p] -= count;
        }
    }
    return 0;
}

/* Engine._maybe_balance */
static int maybe_balance(walk *w, int64_t i) {
    const int64_t own = w->d.diag[i], old = w->c->l_old[i];
    if (own < 0 || old < 0) {
        PyErr_Format(PyExc_ValueError,
                     "loads must be non-negative, got own=%lld, l_old=%lld",
                     (long long)own, (long long)old);
        return -1;
    }
    return fires(w->c, own, old) ? balance(w, i) : 0;
}

/* Engine._simulated_decrease */
static int simulated_decrease(walk *w, int64_t j) {
    w->acc[DECREASE_SIM]++;
    return maybe_balance(w, j);
}

/* Engine._class_balancing_dance */
static int dance(walk *w, int64_t i, int64_t j) {
    const walk_cfg *c = w->c;
    int64_t *grp = w->grp, *col = w->col;
    w->acc[BORROW_FAIL]++;
    if (partners(w, j, w->picks) < 0) return -1;
    int64_t k = 0;
    grp[k++] = j;
    grp[k++] = i;
    for (int64_t x = 0; x < c->delta; x++) {
        int64_t q = 0;
        while (q < k && grp[q] != w->picks[x]) q++;
        if (q == k) grp[k++] = w->picks[x];
    }
    qsort(grp, (size_t)k, sizeof *grp, cmp_i64);
    /* the d column first, then the b column: one even split each */
    for (int deal = 0; deal < 2; deal++) {
        const ledger *L = deal ? &w->b : &w->d;
        int64_t total = 0, moved = 0;
        for (int64_t q = 0; q < k; q++) {
            if (get(w, L, grp[q], j, &col[q]) < 0) return -1;
            total += col[q];
        }
        const int64_t start = (int64_t)draw(w, (uint64_t)k);
        const int64_t base = total / k, rem = total % k;
        for (int64_t q = 0; q < k; q++) {
            const int64_t diff = base + ((q - start + k) % k < rem) - col[q];
            if (diff > 0) moved += diff;
            if (add(w, L, grp[q], j, diff) < 0) return -1;
            if (!deal) c->l[grp[q]] += diff;
        }
        if (!deal) w->acc[PACKETS_MIGRATED] += moved;
    }
    int64_t debt;
    if (get(w, &w->b, i, j, &debt) < 0) return -1;
    if (debt == 0) return 0;  /* the debt moved away in the re-deal */
    Py_ssize_t h = 0;
    for (int64_t q = 0; q < k; q++) {
        int64_t v;
        if (get(w, &w->d, grp[q], j, &v) < 0) return -1;
        if (v > 0) w->hold[h++] = grp[q];
    }
    if (h) {
        int64_t p;
        if (pick(w, w->hold, h, &p) < 0 || add(w, &w->d, p, j, -1) < 0) return -1;
        c->l[p]--;
        if (add(w, &w->b, i, j, -1) < 0 || add(w, &w->d, i, j, 1) < 0) return -1;
        c->l[i]++;
        w->acc[DEBTS_SETTLED]++;
        w->acc[PACKETS_MIGRATED]++;
    } else {
        if (add(w, &w->b, i, j, -1) < 0) return -1;
        w->acc[DEBT_ANNIHILATED]++;
        w->acc[DEBTS_SETTLED]++;
    }
    return simulated_decrease(w, j);
}

/* Engine._reduce_debt; the producer exchange calls back into Python */
static int reduce_debt(walk *w, int64_t i) {
    int64_t *cls, j;
    const Py_ssize_t k = owed(w, i, &cls);
    if (k < 0 || pick(w, cls, k, &j) < 0) return -1;
    if (j == i) {
        const int64_t count = w->b.diag[i];
        w->acc[DEBTS_SETTLED] += count;
        if (add(w, &w->b, i, i, -count) < 0) return -1;
        return simulated_decrease(w, i);
    }
    if (w->d.diag[j] > 0) {
        PyObject *r = PyObject_CallFunctionObjArgs(w->exchange, KEY(w, i), KEY(w, j), NULL);
        if (!r) return -1;
        Py_DECREF(r);
        return 0;
    }
    return dance(w, i, j);
}

/* Engine._borrow: 1 if a packet was consumed, 0 if not, -1 on error */
static int borrow(walk *w, int64_t i) {
    if (w->b.rs[i] >= w->c->cap) return 0;
    int64_t *cls, j;
    const Py_ssize_t k = eligible(w, i, &cls);
    if (k <= 0) return (int)k;
    j = cls[draw(w, (uint64_t)k)];
    if (add(w, &w->b, i, j, 1) < 0 || add(w, &w->d, i, j, -1) < 0) return -1;
    w->c->l[i]--;
    w->acc[TOTAL_CONSUMED]++;
    w->acc[TOTAL_BORROW]++;
    return 1;
}

/* Engine._generate */
static int generate(walk *w, int64_t i) {
    if (w->b.rs[i] > 0) {
        int64_t *cls, j;
        const Py_ssize_t k = owed(w, i, &cls);
        if (k < 0 || pick(w, cls, k, &j) < 0) return -1;
        if (add(w, &w->b, i, j, -1) < 0 || add(w, &w->d, i, j, 1) < 0) return -1;
        w->acc[REPAYMENTS]++;
    } else {
        w->d.diag[i]++;
        w->d.rs[i]++;
    }
    w->c->l[i]++;
    w->acc[TOTAL_GENERATED]++;
    return maybe_balance(w, i);
}

/* Engine._consume */
static int consume(walk *w, int64_t i) {
    int64_t *l = w->c->l;
    if (l[i] == 0) { w->acc[STARVED]++; return 0; }
    if (w->d.diag[i] >= 1) {
        w->d.diag[i]--;
        w->d.rs[i]--;
        l[i]--;
        w->acc[TOTAL_CONSUMED]++;
        return maybe_balance(w, i);
    }
    int r = borrow(w, i);
    if (r) return r < 0 ? -1 : 0;
    if (reduce_debt(w, i) < 0) return -1;
    r = borrow(w, i);
    if (r < 0) return -1;
    if (r == 0) w->acc[CONSUME_BLOCKED]++;
    return 0;
}

/* One tick: every processor of `order` acts once, as in Engine._sweep.
 * Counter deltas go to c->acc, zeroed here.  Returns None, or NULL with
 * the exception set (the state then stands as far as the walk got). */
PyObject *tick_walk(const walk_cfg *c, PyObject *d_rows, PyObject *b_rows,
                    PyObject *keys, PyObject *exchange,
                    const int64_t *order, const int64_t *acts) {
    const int64_t n = c->n;
    if (!PyList_CheckExact(d_rows) || PyList_GET_SIZE(d_rows) != n ||
        !PyList_CheckExact(b_rows) || PyList_GET_SIZE(b_rows) != n ||
        !PyTuple_CheckExact(keys) || PyTuple_GET_SIZE(keys) != n) {
        PyErr_SetString(PyExc_TypeError, "ledger rows or class keys do not match n");
        return NULL;
    }
    memset(c->acc, 0, N_ACC * sizeof(int64_t));
    const size_t slots = (size_t)c->delta + 2;
    int64_t *mem = PyMem_Malloc(9 * slots * sizeof(int64_t));
    if (!mem) return PyErr_NoMemory();
    walk w = {
        .c = c, .acc = c->acc,
        .d = {c->d_diag, c->d_rs, d_rows}, .b = {c->b_diag, c->b_rs, b_rows},
        .keys = keys, .exchange = exchange,
        .parts = mem, .old = mem + slots, .sums = mem + 2 * slots,
        .bsums = mem + 3 * slots, .ndiag = mem + 4 * slots,
        .grp = mem + 5 * slots, .col = mem + 6 * slots,
        .hold = mem + 7 * slots, .picks = mem + 8 * slots,
        .buf = NULL, .cap = 0,
    };
    int rc = 0;
    for (int64_t t = 0; t < n && rc == 0; t++) {
        const int64_t i = order[t];
        if (i < 0 || i >= n) {
            PyErr_SetString(PyExc_ValueError, "sweep order out of range");
            rc = -1;
        } else if (acts[i] == 1) {
            rc = generate(&w, i);
        } else if (acts[i] == -1) {
            rc = consume(&w, i);
        }
    }
    PyMem_Free(w.buf);
    PyMem_Free(mem);
    if (rc < 0) return NULL;
    Py_RETURN_NONE;
}
"""
)

# The async engine's fault-free event loop: AsyncEngine's and
# ServiceEngine's handlers over the engine's columns, a binary heap of
# events and the task-queue rings.  It draws through numpy's own C
# distributions (random_standard_exponential, next_double) and the
# bounded32 / choice_next32 replays above, so it links libnpyrandom.a
# and includes numpy's headers (which include Python.h): a library of
# its own, built per interpreter ABI.
_EVENT_SOURCE = (
    '#define PY_SSIZE_T_CLEAN\n#include <Python.h>\n#include "numpy/random/distributions.h"\n'
    + _C_SOURCE
    + r"""
/* one pending event; layout mirrors repro.core.event_walk.EVENT_DTYPE */
typedef struct { double t; int64_t seq; int32_t kind, proc; int64_t arg; } event;

/* the payload kinds of repro.core.async_engine and repro.service.engine */
enum { EV_ACTION = 0, EV_COMPLETE = 1, EV_RETRY = 2, EV_ARRIVAL = 6 };

/* layout mirrors repro.core.event_walk._EventConfig */
typedef struct {
    int64_t *l, *l_old, *attempts;
    uint8_t *busy, *pending;
    const double *g, *c;            /* rows x n rate tables */
    event *heap;
    int64_t *op_id, *op_size, *op_group;  /* per initiator; group rows of delta + 1 */
    double *op_t0;
    const int64_t *arr_a, *arr_b;   /* arrival table: both candidates, */
    const uint8_t *arr_crit;        /* and criticality */
    double *ring;                   /* n x qcap arrival times */
    int64_t *head, *depth;
    double *soj;
    int64_t *acc;                   /* counters, in event_walk._ACC order */
    double *st;                     /* now, bucket tokens, bucket refill time */
    bitgen_t *bg;
    int64_t n, delta, rows, heap_cap, soj_cap, qcap, service, strict,
            max_retries, brownout;
    double f, latency, backoff, jitter, rate, burst, scale;
} ev_cfg;

enum { HEAP_SIZE, NEXT_SEQ, OP_SEQ, TOTAL_OPS, DROPPED_OPS, DECLINED_JOINS,
       PACKETS_MIGRATED, RETRIES, GIVE_UPS, OFFERED, ADMITTED, SHED_BROWNOUT,
       SHED_BUCKET, SHED_DEPTH, COMPLETED, MIGRATED_TASKS, N_SOJOURNS };
enum { NOW, TOKENS, T_LAST };

/* error codes (the Python side names them) */
enum { ERR_HEAP = -1, ERR_NOMEM = -2, ERR_QUEUE = -3, ERR_EVENT = -4 };

typedef struct {
    ev_cfg *c;
    int64_t *acc;
    double now;
    int64_t *picks, *before, *after;  /* delta + 1 slots each */
    double *moving, *merged;          /* (delta + 1) * qcap and qcap slots */
} ew;

static inline int ev_less(const event *a, const event *b) {
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
}

/* EventQueue.push: (time, seq) order, seq from one counter */
static int ev_push(ew *w, double t, int32_t kind, int64_t proc, int64_t arg) {
    event *h = w->c->heap;
    int64_t k = w->acc[HEAP_SIZE];
    if (k >= w->c->heap_cap) return ERR_HEAP;
    const event e = {t, w->acc[NEXT_SEQ]++, kind, (int32_t)proc, arg};
    while (k > 0) {
        const int64_t up = (k - 1) >> 1;
        if (!ev_less(&e, &h[up])) break;
        h[k] = h[up];
        k = up;
    }
    h[k] = e;
    w->acc[HEAP_SIZE]++;
    return 0;
}

static event ev_pop(ew *w) {
    event *h = w->c->heap;
    const event top = h[0];
    const int64_t size = --w->acc[HEAP_SIZE];
    if (size > 0) {
        const event last = h[size];
        int64_t k = 0;
        for (;;) {
            int64_t child = 2 * k + 1;
            if (child >= size) break;
            if (child + 1 < size && ev_less(&h[child + 1], &h[child])) child++;
            if (!ev_less(&h[child], &last)) break;
            h[k] = h[child];
            k = child;
        }
        h[k] = last;
    }
    return top;
}

static int cmp_f64(const void *a, const void *b) {
    const double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

/* TaskQueues.pop_oldest */
static int pop_oldest(ew *w, int64_t i) {
    ev_cfg *c = w->c;
    if (c->depth[i] <= 0) return ERR_QUEUE;
    const double t = c->ring[i * c->qcap + c->head[i]];
    c->head[i] = c->head[i] + 1 == c->qcap ? 0 : c->head[i] + 1;
    c->depth[i]--;
    c->soj[w->acc[N_SOJOURNS]++] = w->now - t;
    w->acc[COMPLETED]++;
    return 0;
}

/* TaskQueues.push (admission checked the depth) */
static void push_task(ev_cfg *c, int64_t i, double t) {
    int64_t slot = c->head[i] + c->depth[i];
    if (slot >= c->qcap) slot -= c->qcap;
    c->ring[i * c->qcap + slot] = t;
    c->depth[i]++;
}

/* TaskQueues.migrate: donors give their newest tasks, pooled oldest
 * first; each receiver merges its share in arrival order */
static int migrate(ew *w, const int64_t *grp, int64_t k) {
    ev_cfg *c = w->c;
    const int64_t cap = c->qcap;
    int64_t m = 0;
    for (int64_t q = 0; q < k; q++) {
        const int64_t p = grp[q];
        for (int64_t give = w->before[q] - w->after[q]; give > 0; give--) {
            if (c->depth[p] <= 0) return ERR_QUEUE;
            c->depth[p]--;
            int64_t slot = c->head[p] + c->depth[p];
            if (slot >= cap) slot -= cap;
            w->moving[m++] = c->ring[p * cap + slot];
        }
    }
    if (!m) return 0;
    qsort(w->moving, (size_t)m, sizeof(double), cmp_f64);
    w->acc[MIGRATED_TASKS] += m;
    int64_t pos = 0;
    for (int64_t q = 0; q < k; q++) {
        const int64_t take = w->after[q] - w->before[q], p = grp[q];
        if (take <= 0) continue;
        const int64_t d = c->depth[p];
        if (d + take > cap || pos + take > m) return ERR_QUEUE;
        double *row = c->ring + p * cap;
        for (int64_t x = 0; x < d; x++) w->merged[x] = row[(c->head[p] + x) % cap];
        memcpy(w->merged + d, w->moving + pos, (size_t)take * sizeof(double));
        pos += take;
        qsort(w->merged, (size_t)(d + take), sizeof(double), cmp_f64);
        for (int64_t x = 0; x < d + take; x++) row[(c->head[p] + x) % cap] = w->merged[x];
        c->depth[p] = d + take;
    }
    return pos == m ? 0 : ERR_QUEUE;
}

/* AsyncEngine._handle_refusal with RetryPolicy.delay */
static int refuse(ew *w, int64_t i) {
    ev_cfg *c = w->c;
    w->acc[DROPPED_OPS]++;
    const int64_t attempt = c->attempts[i];
    if (attempt < c->max_retries) {
        c->attempts[i] = attempt + 1;
        c->pending[i] = 1;
        w->acc[RETRIES]++;
        const double base = c->backoff * ldexp(1.0, (int)attempt);
        const double delay = base * (1.0 + c->jitter * next_double(c->bg));
        return ev_push(w, w->now + delay, EV_RETRY, i, 0);
    }
    w->acc[GIVE_UPS]++;
    c->attempts[i] = 0;
    c->l_old[i] = c->l[i];
    return 0;
}

/* AsyncEngine._maybe_initiate on a perfect network */
static int maybe_initiate(ew *w, int64_t i) {
    ev_cfg *c = w->c;
    if (c->busy[i] || c->pending[i]) return 0;
    int64_t lo, hi;
    band(c->f, c->strict, c->l_old[i], &lo, &hi);
    if (c->l[i] > lo && c->l[i] < hi) {
        c->attempts[i] = 0;
        return 0;
    }
    const int64_t k = c->delta;
    if (choice_next32((next32_fn)c->bg->next_uint32, c->bg->state, (uint64_t)(c->n - 1),
                      (uint64_t)k, (uint64_t)i, w->picks) < 0)
        return ERR_NOMEM;
    /* i is idle, so its group row is free */
    int64_t *grp = c->op_group + i * (k + 1), m = 0;
    grp[m++] = i;
    for (int64_t x = 0; x < k; x++)
        if (!c->busy[w->picks[x]]) grp[m++] = w->picks[x];
    w->acc[DECLINED_JOINS] += k + 1 - m;
    if (m == 1) return refuse(w, i);
    c->attempts[i] = 0;
    for (int64_t q = 0; q < m; q++) c->busy[grp[q]] = 1;
    c->op_id[i] = w->acc[OP_SEQ]++;
    c->op_size[i] = m;
    c->op_t0[i] = w->now;
    return ev_push(w, w->now + c->latency, EV_COMPLETE, i, c->op_id[i]);
}

/* AsyncEngine._complete_balance: even_split from the loads at completion */
static int complete(ew *w, int64_t i, int64_t op) {
    ev_cfg *c = w->c;
    const int64_t k = c->op_size[i];
    if (k < 2 || c->op_id[i] != op) return ERR_EVENT;
    const int64_t *grp = c->op_group + i * (c->delta + 1);
    int64_t total = 0, migrated = 0;
    for (int64_t q = 0; q < k; q++) {
        c->busy[grp[q]] = 0;
        w->before[q] = c->l[grp[q]];
        total += w->before[q];
    }
    const int64_t start = (int64_t)bounded32((next32_fn)c->bg->next_uint32, c->bg->state,
                                             (uint64_t)(k - 1));
    const int64_t base = total / k, rem = total % k;
    for (int64_t q = 0; q < k; q++) {
        const int64_t a = base + ((q - start + k) % k < rem);
        w->after[q] = a;
        c->l[grp[q]] = a;
        c->l_old[grp[q]] = a;
        if (a > w->before[q]) migrated += a - w->before[q];
    }
    c->op_size[i] = 0;
    if (c->service && migrate(w, grp, k) < 0) return ERR_QUEUE;
    w->acc[PACKETS_MIGRATED] += migrated;
    w->acc[TOTAL_OPS]++;
    return 0;
}

/* AsyncEngine._do_action and _schedule_action (ServiceEngine has g == 0) */
static int action(ew *w, int64_t i) {
    ev_cfg *c = w->c;
    int64_t row = 0;
    if (c->rows > 1)  /* TableRates: min(max(int(time), 0), rows - 1) */
        row = w->now < (double)(c->rows - 1) ? (int64_t)w->now : c->rows - 1;
    const double u = next_double(c->bg);
    const double g = c->g[row * c->n + i], cons = c->c[row * c->n + i];
    if (u < g) {
        c->l[i]++;
    } else if (u < g + cons && c->l[i] > 0) {
        c->l[i]--;
        if (c->service && pop_oldest(w, i) < 0) return ERR_QUEUE;
    }
    const int rc = maybe_initiate(w, i);
    if (rc < 0) return rc;
    return ev_push(w, w->now + random_standard_exponential(c->bg), EV_ACTION, i, 0);
}

/* ServiceEngine._handle_arrival with AdmissionController.decide */
static int arrival(ew *w, int64_t r) {
    ev_cfg *c = w->c;
    double *st = c->st;
    w->acc[OFFERED]++;
    const int64_t a = c->arr_a[r], b = c->arr_b[r];
    const int64_t target = c->l[a] <= c->l[b] ? a : b;
    if (c->brownout && !c->arr_crit[r]) {
        w->acc[SHED_BROWNOUT]++;
        return 0;
    }
    const double dt = w->now - st[T_LAST];
    if (dt > 0) {  /* TokenBucket._refill */
        const double filled = st[TOKENS] + dt * c->rate * c->scale;
        st[TOKENS] = filled < c->burst ? filled : c->burst;
        st[T_LAST] = w->now;
    }
    if (!(st[TOKENS] >= 1.0)) {
        w->acc[SHED_BUCKET]++;
        return 0;
    }
    st[TOKENS] -= 1.0;
    if (c->depth[target] >= c->qcap) {
        w->acc[SHED_DEPTH]++;
        return 0;
    }
    w->acc[ADMITTED]++;
    push_task(c, target, w->now);
    c->l[target]++;
    return maybe_initiate(w, target);
}

/* Deliver every event with time <= horizon and time < stop, in (time,
 * seq) order.  Returns 0 when none is left, 1 when the sojourn buffer
 * is full (grow it and call again: the next event is still pending), or
 * a negative error code. */
long long event_walk(ev_cfg *c, double stop, double horizon) {
    const size_t slots = (size_t)c->delta + 1, cap = c->qcap > 0 ? (size_t)c->qcap : 1;
    int64_t *mem = malloc(3 * slots * sizeof(int64_t));
    double *fmem = malloc((slots + 1) * cap * sizeof(double));
    if (!mem || !fmem) {
        free(mem);
        free(fmem);
        return ERR_NOMEM;
    }
    ew w = {
        .c = c, .acc = c->acc, .now = c->st[NOW],
        .picks = mem, .before = mem + slots, .after = mem + 2 * slots,
        .moving = fmem, .merged = fmem + slots * cap,
    };
    long long rc = 0;
    while (rc == 0 && w.acc[HEAP_SIZE] > 0) {
        const double t = c->heap[0].t;
        if (!(t <= horizon && t < stop)) break;
        if (c->service && w.acc[N_SOJOURNS] >= c->soj_cap) {
            rc = 1;
            break;
        }
        const event e = ev_pop(&w);
        w.now = e.t;
        switch (e.kind) {
        case EV_ACTION: rc = action(&w, e.proc); break;
        case EV_COMPLETE: rc = complete(&w, e.proc, e.arg); break;
        case EV_RETRY:
            c->pending[e.proc] = 0;
            rc = maybe_initiate(&w, e.proc);
            break;
        case EV_ARRIVAL: rc = c->service ? arrival(&w, e.arg) : ERR_EVENT; break;
        default: rc = ERR_EVENT;
        }
    }
    c->st[NOW] = w.now;
    free(mem);
    free(fmem);
    return rc;
}
"""
)

_LL = ctypes.POINTER(ctypes.c_longlong)

# compiled-library singleton: None until first build attempt, then the
# CDLL or False (build failed / disabled)
_lib: ctypes.CDLL | bool | None = None
# the tick walk: its built library path (or the build error), and its
# entry point once loaded (False: unavailable)
_walk_build: Path | Exception | None = None
_walk_fn = None
# the event walk, likewise
_event_build: Path | Exception | None = None
_event_fn = None

# probe verdicts per (replay, bit-generator class): "pcg64" | "next32" |
# "python", and "walk" | "python" per (walk, bit-generator class)
_TIER_CACHE: dict[tuple[str, type], str] = {}


def _warn_fallback(why: str, tier: str) -> None:
    warnings.warn(
        f"{why}; running the {tier} tier (bit-identical, slower)",
        RuntimeWarning,
        stacklevel=4,
    )


def _abi_tag() -> str:
    """The interpreter's extension ABI (``cpython_311_x86_64_linux_gnu``):
    the walk compiles against this interpreter's headers."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or "unknown"
    return re.sub(r"[^0-9A-Za-z]+", "_", suffix.rsplit(".", 1)[0]).strip("_")


def _compile(
    cache: Path, name: str, source: str, flags: list[str], libs: tuple[str, ...] = ()
) -> Path:
    """``cache/{name}.so`` built from ``source`` (linked with ``libs``)
    unless already there."""
    so = cache / f"{name}.so"
    if so.exists():
        return so
    cache.mkdir(parents=True, exist_ok=True)
    # per-process file names: concurrent workers may build at once
    csrc = cache / f"{name}.{os.getpid()}.c"
    csrc.write_text(source)
    tmp_so = cache / f"{name}.{os.getpid()}.so"
    errors = []
    for cc in ("cc", "gcc", "clang"):
        try:
            res = subprocess.run(
                [cc, "-O3", "-shared", "-fPIC", *flags, "-o", str(tmp_so), str(csrc), *libs],
                capture_output=True,
                timeout=120,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if res.returncode == 0:
            break
        errors.append(res.stderr.decode(errors="replace").strip().partition("\n")[0])
    else:
        raise OSError(f"no C compiler built the {name} source {errors}")
    csrc.unlink(missing_ok=True)
    os.replace(tmp_so, so)  # atomic vs concurrent worker builds
    return so


def _remove_stale_builds(cache: Path, tag: str) -> None:
    """Delete the builds of other sources for this ABI, and the builds
    named before the ABI tag (``repro_ckernel_<digest>``), which no
    interpreter loads any more (a loaded library survives the unlink on
    Linux)."""
    stale = re.compile(rf"repro_ckernel_(?:{re.escape(tag)}_)?[0-9a-f]{{16}}")
    for other in cache.parent.iterdir():
        if other != cache and stale.fullmatch(other.name):
            shutil.rmtree(other, ignore_errors=True)


def _build_library() -> ctypes.CDLL | None:
    """Compile the kernel sources once per machine and ABI, load the kernels.

    Builds live in ``repro_ckernel_{abi}_{digest}`` under the temp dir;
    a fresh build removes the other digests of its ABI and the untagged
    builds of older versions.  The tick walk
    is compiled here too (so one priming call builds everything) but
    loaded only by :func:`walk_function`, at its first use.

    Returns None when disabled (``REPRO_NO_CKERNEL``) or when no C
    compiler is available — callers fall back to pure numpy/python, and
    the second case warns once per process.
    """
    global _lib, _walk_build, _event_build
    if _lib is not None:
        return _lib if _lib is not False else None
    if os.environ.get("REPRO_NO_CKERNEL"):
        _lib = False
        return None
    try:
        tag = _abi_tag()
        digest = hashlib.sha256(
            (_C_SOURCE + _WALK_SOURCE + _EVENT_SOURCE).encode()
        ).hexdigest()[:16]
        cache = Path(tempfile.gettempdir()) / f"repro_ckernel_{tag}_{digest}"
        fresh = not cache.exists()
        so = _compile(cache, "kernel", _C_SOURCE, [])
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
        lib.deep_horizon.argtypes = [ctypes.c_void_p] * 4 + [
            ctypes.c_longlong, ctypes.c_double, ctypes.c_longlong
        ]
        lib.deep_horizon.restype = ctypes.c_longlong
    except Exception as exc:
        _lib = False
        _warn_fallback(f"the C kernels are unavailable ({exc})", "python")
        return None
    try:
        include = sysconfig.get_paths()["include"]
        _walk_build = _compile(cache, "walk", _WALK_SOURCE, [f"-I{include}"])
    except (OSError, KeyError) as exc:
        _walk_build = exc  # reported when a tick first needs the walk
    try:
        _event_build = _compile(cache, "event", _EVENT_SOURCE, *event_build_flags())
    except (OSError, KeyError) as exc:
        _event_build = exc  # reported when a run first needs the walk
    if fresh:
        _remove_stale_builds(cache, tag)
    _lib = lib
    return lib


def walk_function():
    """The compiled tick walk (``tick_walk``), loaded at its first use.

    None when the kernels are off or the walk failed to build or load;
    that failure warns once.
    """
    global _walk_fn
    if _build_library() is None:
        return None
    if _walk_fn is None:
        _walk_fn = False
        try:
            if not isinstance(_walk_build, Path):
                raise OSError(f"not built: {_walk_build}")
            fn = ctypes.PyDLL(str(_walk_build)).tick_walk
        except (OSError, AttributeError) as exc:
            _warn_fallback(f"the compiled tick walk is unavailable ({exc})", "python")
        else:
            obj = ctypes.py_object
            fn.argtypes = [ctypes.c_void_p, obj, obj, obj, obj, ctypes.c_void_p, ctypes.c_void_p]
            fn.restype = obj
            _walk_fn = fn
    return _walk_fn or None


def event_build_flags() -> tuple[list[str], tuple[str, ...]]:
    """Compiler flags and link inputs of the event walk: the interpreter's
    and numpy's headers, numpy's ``libnpyrandom.a`` and libm.  No
    floating-point contraction, so every product rounds as Python's.
    Raises OSError when numpy ships no ``libnpyrandom.a``."""
    lib = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    if not lib.is_file():
        raise OSError(f"numpy ships no {lib.name}")
    include = sysconfig.get_paths()["include"]
    flags = [f"-I{include}", f"-I{np.get_include()}", "-ffp-contract=off"]
    return flags, (str(lib), "-lm")


def load_event_walk(so: Path):
    """The ``event_walk`` entry point of the library at ``so``."""
    fn = ctypes.CDLL(str(so)).event_walk
    fn.argtypes = [ctypes.c_void_p, ctypes.c_double, ctypes.c_double]
    fn.restype = ctypes.c_longlong
    return fn


def event_walk_function():
    """The compiled event walk (``event_walk``), loaded at its first use.

    None when the kernels are off or the walk failed to build or load;
    that failure warns once.
    """
    global _event_fn
    if _build_library() is None:
        return None
    if _event_fn is None:
        _event_fn = False
        try:
            if not isinstance(_event_build, Path):
                raise OSError(f"not built: {_event_build}")
            _event_fn = load_event_walk(_event_build)
        except (OSError, AttributeError) as exc:
            _warn_fallback(f"the compiled event walk is unavailable ({exc})", "python")
    return _event_fn or None


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


def _bound(cls, rng: np.random.Generator, tier: str):
    """A ``cls`` replay on ``rng`` bound to ``tier`` without resolving
    the tier: the probes' candidate."""
    replay = cls.__new__(cls)
    replay.rng = rng
    replay._bind(tier)
    return replay


def _probe_skip(bitgen_cls, tier: str) -> bool:
    for off, (m, pre) in enumerate(_SKIP_CASES):
        ref, cand = _twins(bitgen_cls, 90210 + off, pre)
        ref.permutation(m)
        _bound(PermutationSkipper, cand, tier).skip(m)
        if not _states_equal(ref.bit_generator.state, cand.bit_generator.state):
            return False
    return True


def _probe_choice(bitgen_cls, tier: str) -> bool:
    for off, (m, size, skip, pre) in enumerate(_CHOICE_CASES):
        ref, cand = _twins(bitgen_cls, 4242 + off, pre)
        want = _choice_python(ref, m, size, skip)
        got = _bound(ChoiceReplayer, cand, tier).choice(m, size, skip)
        if not (
            np.array_equal(want, got)
            and _states_equal(ref.bit_generator.state, cand.bit_generator.state)
        ):
            return False
    return True


def _resolve_tier(replay: str, bitgen_cls) -> str:
    """The tier ``replay`` runs on for ``bitgen_cls``: the first compiled
    tier that passes its probe (probed once per process), else python."""
    if _build_library() is None:
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


def walk_probed(bitgen_cls, probe, walk: str = "tick walk") -> bool:
    """Whether ``walk`` passed ``probe(bitgen_cls)``: probed once per
    process, walk and bit-generator class; a failure warns once."""
    key = (walk, bitgen_cls)
    tier = _TIER_CACHE.get(key)
    if tier is None:
        try:
            ok = probe(bitgen_cls)
        except Exception:
            ok = False
        tier = _TIER_CACHE[key] = "walk" if ok else "python"
        if not ok:
            _warn_fallback(
                f"the {walk} failed its exactness probe on {bitgen_cls.__name__}",
                "python",
            )
    return tier == "walk"


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
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._bind(_resolve_tier("skip", type(rng.bit_generator)))

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


def floyd_branch(m: int, size: int) -> bool:
    """Whether ``rng.choice(m, size, replace=False)`` takes numpy's Floyd
    branch, the one the compiled replays cover."""
    return m <= 10_000 or size <= m // 50


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

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._bind(_resolve_tier("choice", type(rng.bit_generator)))

    def _bind(self, tier: str) -> None:
        self.tier = tier
        self._fn = None if tier == "python" else _kernel("choice", self.rng, tier)
        self._out = np.empty(0, dtype=np.int64)
        self._out_addr = self._out.ctypes.data

    def choice(self, m: int, size: int, skip: int) -> np.ndarray:
        fn = self._fn
        if fn is not None and 0 < size <= m <= 0xFFFFFFFF and floyd_branch(m, size):
            # the kernel writes into one buffer, whose address is looked
            # up only when it grows; the caller gets a copy
            if size > len(self._out):
                self._out = np.empty(size, dtype=np.int64)
                self._out_addr = self._out.ctypes.data
            if fn(m, size, skip, self._out_addr) == 0:
                return self._out[:size].copy()
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


def quiet_apply(actions, l, diag, row_sums):  # noqa: E741
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
    lib = _build_library()
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


def _deep_horizon_numpy(trigger, l, l_old, diag, b_row_sums) -> int:  # noqa: E741
    if b_row_sums.any():
        return 0
    lo, hi = trigger.quiet_interval(l_old)
    margin = np.minimum(diag - lo - 1, hi - diag - 1)
    margin = np.minimum(margin, l)
    h = int(margin.min()) if len(l) else 0
    return h if h > 0 else 0


def deep_horizon(trigger, l, l_old, diag, b_row_sums) -> int:  # noqa: E741
    """``min(diag - lo - 1, hi - diag - 1, l)`` over all processors,
    floored at 0, on ``trigger``'s quiet band ``(lo, hi)`` of ``l_old``;
    0 when any ``b_row_sums`` entry is non-zero.

    One C pass; the kernel's ``band()`` transcribes
    :meth:`~repro.core.triggers.FactorTrigger.quiet_interval` in the
    same IEEE doubles, so the result is the numpy computation's (the
    fallback when the kernels are off).  See
    :meth:`~repro.core.columnar.ColumnarEngine._deep_horizon`.
    """
    return DeepHorizon(l, l_old, diag, b_row_sums)(trigger)


class DeepHorizon:
    """:func:`deep_horizon` bound to four columns.

    The column addresses are looked up once, here: an engine keeps one
    per set of column objects (:meth:`bound_to`) and rebinds when a
    column is replaced.  Columns that are not contiguous int64 are
    converted on every call instead.
    """

    def __init__(self, l, l_old, diag, b_row_sums) -> None:  # noqa: E741
        self.cols = (l, l_old, diag, b_row_sums)
        self._lib = _build_library()
        self._fn = None
        if self._lib is None:
            return
        cols = self._contiguous()
        if all(a is b for a, b in zip(cols, self.cols)):
            self._fn = functools.partial(
                self._lib.deep_horizon, *(c.ctypes.data for c in cols), len(cols[0])
            )

    def _contiguous(self) -> list[np.ndarray]:
        cols = [np.ascontiguousarray(c, dtype=np.int64) for c in self.cols]
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ValueError(f"column lengths differ: {[len(c) for c in cols]}")
        return cols

    def bound_to(self, l, l_old, diag, b_row_sums) -> bool:  # noqa: E741
        """Whether these are the bound column objects."""
        c = self.cols
        return l is c[0] and l_old is c[1] and diag is c[2] and b_row_sums is c[3]

    def __call__(self, trigger) -> int:
        if self._fn is not None:
            return self._fn(trigger.f, trigger.strict)
        if self._lib is None:
            return _deep_horizon_numpy(trigger, *self.cols)
        cols = self._contiguous()
        return self._lib.deep_horizon(
            *(c.ctypes.data for c in cols), len(cols[0]), trigger.f, trigger.strict
        )
