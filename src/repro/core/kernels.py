"""Decode-free bound kernels over packed codes ("exploit every bit"),
and the native C2LSH collision-counting step.

The hot loop of cached kNN search is: given a query and ``m`` cached
tau-bit code rows, compute lower/upper Euclidean distance bounds.  The
baseline (``decode``) un-packs every code back to an ``(m, d)`` float
rectangle and calls :func:`repro.core.bounds.batch_rectangle_bounds` —
correct, but it rebuilds ``2 * m * d`` floats per batch that the bound
math immediately collapses.

The key observation: for per-dimension histogram codes the bound
contribution of candidate ``i`` in dimension ``j`` depends only on
``(j, code_ij)`` — there are at most ``d * B`` distinct values, not
``m * d``.  So each kernel precomputes, per query, a ``(d, B)`` table of
*squared* per-bucket contributions and gathers:

``lb(q, i) = sqrt( sum_j T_lb[j, c_ij] )``  where
``T_lb[j, b] = (max(l_b - q_j, 0) + max(q_j - u_b, 0))^2``, and
``T_ub[j, b] = max(|q_j - l_b|, |q_j - u_b|)^2``.

Three kernels, all **bit-identical** (see the contract below):

* ``decode`` — the baseline path (rectangles + batch bound kernel).
  Always available, supports every encoder.
* ``numpy``  — table build + fancy-index gather + ``np.sum`` in NumPy.
  Always available; falls back to ``decode`` for encoders without
  per-bucket structure (PQ's blockwise cells, the EXACT encoder).
* ``native`` — a small C kernel compiled on demand with the system C
  compiler and loaded via ctypes.  It reads ``BitPackedMatrix`` words
  directly — the ``(m, d)`` code matrix is never materialized — and
  replicates NumPy's pairwise summation so results stay bit-identical.
  Unavailable (gracefully) without a C compiler; a randomized
  self-check at load time verifies bit-identity, with and without a
  threshold, and disables the kernel on any mismatch.

Bit-identity contract: IEEE-754 elementwise ops (subtract, abs, max,
add, multiply, sqrt) are value-deterministic regardless of array shape,
and ``np.sum(axis=-1)`` over a C-contiguous ``(m, d)`` array applies a
fixed pairwise summation per row.  The table entries are computed with
the exact op sequence of :func:`batch_rectangle_bounds`, the gather
produces C-contiguous rows of the same length ``d``, and the native
kernel re-implements the same pairwise scheme in C — so all three
kernels agree on every output bit, and therefore on answer sets, prune
counts and telemetry.  ``tests/test_kernel_differential.py`` enforces
this across index x cache cells.

Selection (:func:`kernel_for`) has no option: ``native`` when
:func:`native_available` holds (a C compiler is present and the
load-time self-check passes), ``numpy`` otherwise, and ``decode`` for
encoders without per-bucket structure.  The kernels differ only in
speed, so there is nothing for a caller to choose.

The engine calls :meth:`BoundKernel.packed_bounds` once per query with
that query's own cached candidates and its ``k``.  The native kernel
decodes nothing and releases the GIL while it runs; the numpy fallback
unpacks those rows first.  With ``k`` the native kernel also applies
Algorithm 1's early prune while it sums: it keeps the k smallest upper
bounds seen so far and stops bounding a row once its partial lower
bound provably exceeds their maximum (the argument is at the C source).
Such a row comes back as ``lb = ub = inf``; the cache then sets every
row with ``lb > ub_k`` the same way, so ``lookup(query, ids, k)``
returns the same arrays under every kernel.  ``lookup_batch`` (one
candidate set shared by a query batch, as in range search) still runs
every query against the same rows in one call, with full bounds.

The same C library holds ``repro_count_collisions``, one level of C2LSH
candidate generation (see the "C2LSH collision counting" section below);
:func:`collision_counter` returns it when :func:`native_available` holds
and :func:`count_collisions_numpy` otherwise, and the load-time
self-check covers it too.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

from repro.core.bitpack import BitPackedMatrix
from repro.core.bounds import batch_rectangle_bounds, drop_pruned


class KernelUnavailableError(RuntimeError):
    """The native library did not compile or failed its self-check."""


# ----------------------------------------------------------------------
# Kernel interface
# ----------------------------------------------------------------------
class BoundKernel:
    """Computes lb/ub for a query batch against cached code rows."""

    name = "?"

    def supports(self, encoder) -> bool:
        """Can this kernel serve the encoder without changing results?"""
        return True

    def bounds(
        self, queries: np.ndarray, codes: np.ndarray, encoder
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(Q, d) x (m, n_fields) -> (lb, ub)`` of shape ``(Q, m)``."""
        raise NotImplementedError

    def packed_bounds(
        self,
        queries: np.ndarray,
        store: BitPackedMatrix,
        slots: np.ndarray,
        encoder,
        k: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bounds straight from a packed store (default: unpack first).

        With ``k``, a row whose lower bound exceeds the k-th smallest
        upper bound of these rows may come back as ``lb = ub = inf``
        (only the native kernel stops early); every other row carries
        its exact bounds.
        """
        return self.bounds(queries, store.get_rows(slots), encoder)


class DecodeKernel(BoundKernel):
    """Baseline: decode codes to ``(m, d)`` rectangles, then bound."""

    name = "decode"

    def bounds(self, queries, codes, encoder):
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        codes = np.atleast_2d(codes)
        if codes.shape[0] == 0:
            empty = np.empty((len(queries), 0), dtype=np.float64)
            return empty, empty.copy()
        lo, hi = encoder.rectangles(codes)
        return batch_rectangle_bounds(queries, lo, hi)


def _contribution_tables(
    query: np.ndarray, lo_t: np.ndarray, up_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-query squared-contribution tables, shape ``(d, B)``.

    Op-for-op the elementwise sequence of ``batch_rectangle_bounds``
    applied on the ``(d, 1) x (F, B)`` broadcast grid, so every table
    entry carries the identical bits the decode path would compute for
    a candidate holding that bucket code in that dimension.
    """
    qc = query[:, None]
    below = np.maximum(np.subtract(lo_t, qc), 0.0)
    above = np.maximum(np.subtract(qc, up_t), 0.0)
    tlb = np.add(below, above)
    np.multiply(tlb, tlb, out=tlb)
    tub = np.maximum(np.abs(np.subtract(qc, lo_t)), np.abs(np.subtract(qc, up_t)))
    np.multiply(tub, tub, out=tub)
    return tlb, tub


class TableGatherKernel(BoundKernel):
    """NumPy table-gather kernel (the always-available fast path)."""

    name = "numpy"

    def supports(self, encoder) -> bool:
        return (
            encoder.decode_tables() is not None
            or encoder.bucket_rectangles() is not None
        )

    def bounds(self, queries, codes, encoder):
        return self._bounds(queries, codes, encoder, owned=False)

    def packed_bounds(self, queries, store, slots, encoder, k=None):
        # Freshly unpacked codes are this call's to overwrite.
        return self._bounds(queries, store.get_rows(slots), encoder, owned=True)

    def _bounds(self, queries, codes, encoder, owned):
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        # C order: each gathered row is summed pairwise along axis -1.
        codes = np.ascontiguousarray(np.atleast_2d(codes), dtype=np.int64)
        n_queries, m = len(queries), codes.shape[0]
        if m == 0:
            empty = np.empty((n_queries, 0), dtype=np.float64)
            return empty, empty.copy()
        tables = encoder.decode_tables()
        if tables is not None:
            return self._per_dimension(queries, codes, tables, owned)
        rects = encoder.bucket_rectangles()
        if rects is not None:
            return self._per_bucket(queries, codes, rects)
        raise KernelUnavailableError(
            f"encoder {type(encoder).__name__} exposes no bucket structure; "
            "use the decode kernel"
        )

    @staticmethod
    def _per_dimension(queries, codes, tables, owned=False):
        """``owned`` codes were unpacked for this call: never negative,
        and overwritten in place with the gather indices."""
        lo_t, up_t = tables
        n_buckets = lo_t.shape[1]
        if codes.size and (
            (not owned and codes.min() < 0) or codes.max() >= n_buckets
        ):
            raise IndexError("code out of range")
        n_queries, m = len(queries), codes.shape[0]
        # Flat gather indices into the raveled (d, B) tables, built once
        # per call: entry (i, j) reads table row j at bucket code_ij.
        # One flat fancy index is several times faster than the
        # equivalent two-array gather (and than ``np.take``) and reads
        # the same elements, so the pairwise row sums stay bit-identical.
        flat = np.add(
            np.arange(codes.shape[1], dtype=np.int64) * n_buckets,
            codes,
            out=codes if owned else None,
        )
        lb = np.empty((n_queries, m), dtype=np.float64)
        ub = np.empty((n_queries, m), dtype=np.float64)
        for i, query in enumerate(queries):
            tlb, tub = _contribution_tables(query, lo_t, up_t)
            np.sum(tlb.ravel()[flat], axis=-1, out=lb[i])
            np.sqrt(lb[i], out=lb[i])
            np.sum(tub.ravel()[flat], axis=-1, out=ub[i])
            np.sqrt(ub[i], out=ub[i])
        return lb, ub

    @staticmethod
    def _per_bucket(queries, codes, rects):
        # Single-field encoders (mHC-R): bound every bucket rectangle
        # once per query, then gather per candidate — O(Q*B*d + Q*m).
        blo, bhi = rects
        flat = codes[:, 0]
        if flat.size and (flat.min() < 0 or flat.max() >= len(blo)):
            raise IndexError("bucket id out of range")
        tlb, tub = batch_rectangle_bounds(queries, blo, bhi)
        return (
            np.ascontiguousarray(tlb[:, flat]),
            np.ascontiguousarray(tub[:, flat]),
        )


# ----------------------------------------------------------------------
# Native (C) kernel
# ----------------------------------------------------------------------
# The summation mirrors numpy's pairwise_sum (the reduce loop behind
# np.sum over a contiguous axis): sequential below 8 elements, an 8-way
# unrolled block up to 128, then a recursive split rounded down to a
# multiple of 8.  node() walks that tree and leaf() sums one block, both
# bounds side by side.  Keeping the same reduction tree is what makes
# the C kernel bit-identical to the NumPy kernels; the load-time
# self-check below refuses the kernel if this ever drifts (e.g. a numpy
# release changing its pairwise blocking).
#
# Threshold pruning (k > 0): the kernel keeps the k smallest upper
# bounds of the rows it bounded in a max-heap, so theta, their maximum,
# never falls below the final k-th upper bound.  Every table entry is a
# square (>= 0), and round-to-nearest addition never decreases when an
# operand grows, so the tree with each unread entry replaced by 0 is a
# lower bound on the row's sum.  Once sqrt of that partial sum exceeds
# theta the row is one Algorithm 1 prunes: it is dropped unread (lb = ub
# = inf).  Rows that are kept sum in exactly the order above.
_C_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>

enum { KEPT = 0, DROPPED = 1, BAD_CODE = 2 };

/* One row being bounded: its words, the field layout, the tables, the
 * threshold, and the finished lb sums of the left siblings on the path
 * from the current node to the root of the summation tree. */
typedef struct {
    const uint64_t *row;
    const int64_t *word_idx, *shift, *spill;
    int bits;
    uint64_t mask;
    const double *tlb, *tub;
    ptrdiff_t n_buckets;
    double theta;
    double left[64];
    int depth;
} Row;

/* Decode field j into table entries L and U; a code >= n_buckets ends
 * the call with BAD_CODE before it indexes a table. */
#define TAKE(r, j, L, U) do {                                           \
    ptrdiff_t j_ = (j);                                                 \
    uint64_t v_ = (r)->row[(r)->word_idx[j_]] >> (r)->shift[j_];        \
    if ((r)->spill[j_] > 0)                                             \
        v_ |= (r)->row[(r)->word_idx[j_] + 1]                           \
              << ((r)->bits - (r)->spill[j_]);                          \
    v_ &= (r)->mask;                                                    \
    if (v_ >= (uint64_t)(r)->n_buckets)                                 \
        return BAD_CODE;                                                \
    (L) = (r)->tlb[j_ * (r)->n_buckets + (ptrdiff_t)v_];                \
    (U) = (r)->tub[j_ * (r)->n_buckets + (ptrdiff_t)v_];                \
} while (0)

/* Does the row's lb tree, with cur as the current node's partial sum and
 * every unread entry 0, exceed theta?  An unread right sibling adds 0,
 * so only the finished left siblings enter, innermost first. */
static int exceeds(const Row *r, double cur)
{
    if (!(r->theta < INFINITY))
        return 0;
    for (int d = r->depth - 1; d >= 0; d--)
        cur = r->left[d] + cur;
    return sqrt(cur) > r->theta;
}

/* pairwise() on n <= 128 fields from field j, checked every 16 fields
 * and at the end. */
static int leaf(Row *r, ptrdiff_t j, ptrdiff_t n, double *lb, double *ub)
{
    double l, u, sl, su;
    ptrdiff_t i = 0;
    if (n < 8) {
        sl = 0.0;
        su = 0.0;
    } else {
        double l0, l1, l2, l3, l4, l5, l6, l7;
        double u0, u1, u2, u3, u4, u5, u6, u7;
        TAKE(r, j + 0, l0, u0); TAKE(r, j + 1, l1, u1);
        TAKE(r, j + 2, l2, u2); TAKE(r, j + 3, l3, u3);
        TAKE(r, j + 4, l4, u4); TAKE(r, j + 5, l5, u5);
        TAKE(r, j + 6, l6, u6); TAKE(r, j + 7, l7, u7);
        for (i = 8; i < n - (n % 8); i += 8) {
            TAKE(r, j + i + 0, l, u); l0 += l; u0 += u;
            TAKE(r, j + i + 1, l, u); l1 += l; u1 += u;
            TAKE(r, j + i + 2, l, u); l2 += l; u2 += u;
            TAKE(r, j + i + 3, l, u); l3 += l; u3 += u;
            TAKE(r, j + i + 4, l, u); l4 += l; u4 += u;
            TAKE(r, j + i + 5, l, u); l5 += l; u5 += u;
            TAKE(r, j + i + 6, l, u); l6 += l; u6 += u;
            TAKE(r, j + i + 7, l, u); l7 += l; u7 += u;
            if ((i & 8) && exceeds(r, ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))))
                return DROPPED;
        }
        sl = ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7));
        su = ((u0 + u1) + (u2 + u3)) + ((u4 + u5) + (u6 + u7));
    }
    for (; i < n; i++) {
        TAKE(r, j + i, l, u);
        sl += l;
        su += u;
    }
    if (exceeds(r, sl))
        return DROPPED;
    *lb = sl;
    *ub = su;
    return KEPT;
}

/* pairwise() on n fields from field j: the recursive split. */
static int node(Row *r, ptrdiff_t j, ptrdiff_t n, double *lb, double *ub)
{
    if (n <= 128)
        return leaf(r, j, n, lb, ub);
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    double llb, lub, rlb, rub;
    int rc = node(r, j, n2, &llb, &lub);
    if (rc != KEPT)
        return rc;
    r->left[r->depth++] = llb;
    rc = node(r, j + n2, n - n2, &rlb, &rub);
    r->depth--;
    if (rc != KEPT)
        return rc;
    *lb = llb + rlb;
    *ub = lub + rub;
    return KEPT;
}

/* Offer x to heap, a max-heap of the held (< = k) smallest values;
 * returns the new count. */
static ptrdiff_t heap_offer(double *heap, ptrdiff_t held, ptrdiff_t k, double x)
{
    ptrdiff_t i;
    if (held < k) {
        for (i = held++; i > 0 && heap[(i - 1) / 2] < x; i = (i - 1) / 2)
            heap[i] = heap[(i - 1) / 2];
        heap[i] = x;
        return held;
    }
    if (!(x < heap[0]))
        return held;
    for (i = 0;;) {
        ptrdiff_t c = 2 * i + 1;
        if (c >= k)
            break;
        if (c + 1 < k && heap[c + 1] > heap[c])
            c++;
        if (!(heap[c] > x))
            break;
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = x;
    return held;
}

/* Bounds for one query against m packed rows addressed through slots.
 * Field j of a row lives at word word_idx[j], bit offset shift[j]; when
 * spill[j] > 0 its top spill[j] bits continue in the next word.  Codes
 * index the (n_fields, n_buckets) contribution tables tlb/tub.  With
 * k > 0 (heap holds k doubles) a row whose lb provably exceeds the k-th
 * smallest ub of the rows bounded before it gets lb = ub = INFINITY;
 * k = 0 bounds every row.  Returns 0 on success, 1 when a decoded code
 * is >= n_buckets. */
int repro_packed_bounds(
    const uint64_t *words, ptrdiff_t words_per_row,
    const int64_t *slots, ptrdiff_t m,
    ptrdiff_t n_fields, int bits,
    const int64_t *word_idx, const int64_t *shift, const int64_t *spill,
    const double *tlb, const double *tub, ptrdiff_t n_buckets,
    ptrdiff_t k, double *heap,
    double *lb, double *ub)
{
    Row r;
    r.word_idx = word_idx;
    r.shift = shift;
    r.spill = spill;
    r.bits = bits;
    r.mask = (((uint64_t)1) << bits) - 1;
    r.tlb = tlb;
    r.tub = tub;
    r.n_buckets = n_buckets;
    r.theta = INFINITY;
    r.depth = 0;
    ptrdiff_t held = 0;
    for (ptrdiff_t i = 0; i < m; i++) {
        double sl, su;
        r.row = words + slots[i] * words_per_row;
        int rc = node(&r, 0, n_fields, &sl, &su);
        if (rc == BAD_CODE)
            return 1;
        if (rc == DROPPED) {
            lb[i] = ub[i] = INFINITY;
            continue;
        }
        lb[i] = sqrt(sl);
        ub[i] = sqrt(su);
        if (k > 0) {
            held = heap_offer(heap, held, k, ub[i]);
            if (held == k)
                r.theta = heap[0];
        }
    }
    return 0;
}

/* First index i in [a, b) with run[i] >= key, or b when there is none. */
static ptrdiff_t lower_bound(const int64_t *run, ptrdiff_t a, ptrdiff_t b,
                             int64_t key)
{
    while (a < b) {
        ptrdiff_t mid = a + (b - a) / 2;
        if (run[mid] < key)
            a = mid + 1;
        else
            b = mid;
    }
    return a;
}

/* One virtual-rehashing level of C2LSH collision counting over m sorted
 * runs of n entries; run t starts at hashes + t * hash_stride (its ids
 * at ids + t * id_stride), so capacity buffers are read in place.  On
 * entry lo[t]/hi[t] bound the previous level's range of run t, or
 * lo[t] > hi[t] when there is none; the new range [key_lo[t],
 * key_hi[t]) must contain the previous one.  Each run is searched only
 * outside the previous range, counts gains 1 for every id in the added
 * entries [lo, lo_prev) and [hi_prev, hi), and lo/hi receive the new
 * range. */
void repro_count_collisions(
    const int64_t *hashes, ptrdiff_t hash_stride,
    const int64_t *ids, ptrdiff_t id_stride,
    ptrdiff_t m, ptrdiff_t n,
    const int64_t *key_lo, const int64_t *key_hi,
    int64_t *lo, int64_t *hi, int32_t *counts)
{
    for (ptrdiff_t t = 0; t < m; t++) {
        const int64_t *run = hashes + t * hash_stride;
        const int64_t *row = ids + t * id_stride;
        ptrdiff_t prev_lo = (ptrdiff_t)lo[t], prev_hi = (ptrdiff_t)hi[t];
        int first = prev_lo > prev_hi;
        ptrdiff_t new_lo = lower_bound(run, 0, first ? n : prev_lo, key_lo[t]);
        ptrdiff_t new_hi = lower_bound(run, first ? new_lo : prev_hi, n, key_hi[t]);
        if (first)
            prev_lo = prev_hi = new_hi;
        for (ptrdiff_t i = new_lo; i < prev_lo; i++)
            counts[row[i]] += 1;
        for (ptrdiff_t i = prev_hi; i < new_hi; i++)
            counts[row[i]] += 1;
        lo[t] = new_lo;
        hi[t] = new_hi;
    }
}
"""

#: memoized (lib, unavailable_reason) pair; at most one is non-None.
_NATIVE_STATE: list | None = None


def _kernel_cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured:
        return configured
    uid = os.getuid() if hasattr(os, "getuid") else "any"
    return os.path.join(tempfile.gettempdir(), f"repro-kernel-{uid}")


def _compile_native() -> ctypes.CDLL:
    compiler = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise KernelUnavailableError("no C compiler (cc/gcc) on PATH")
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = _kernel_cache_dir()
    os.makedirs(cache_dir, exist_ok=True)
    so_path = os.path.join(cache_dir, f"bound_kernel_{digest}.so")
    if not os.path.exists(so_path):
        # Source and output are private to this call, so concurrent
        # compiles into one cache (parallel workers on a fresh machine)
        # never read a file another process is rewriting; only the
        # finished library is published, atomically.
        fd, c_path = tempfile.mkstemp(
            prefix=f"bound_kernel_{digest}.", suffix=".c", dir=cache_dir
        )
        with os.fdopen(fd, "w") as fh:
            fh.write(_C_SOURCE)
        tmp_path = f"{c_path[:-2]}.so"
        cmd = [compiler, "-O2", "-fPIC", "-shared", "-o", tmp_path, c_path, "-lm"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                raise KernelUnavailableError(
                    f"native kernel compilation failed: {proc.stderr.strip()[:500]}"
                )
            os.replace(tmp_path, so_path)
        finally:
            for path in (c_path, tmp_path):
                if os.path.exists(path):
                    os.remove(path)
    lib = ctypes.CDLL(so_path)
    fn = lib.repro_packed_bounds
    fn.restype = ctypes.c_int
    fn.argtypes = [ctypes.c_void_p, ctypes.c_ssize_t] + [
        ctypes.c_void_p,
        ctypes.c_ssize_t,
        ctypes.c_ssize_t,
        ctypes.c_int,
    ] + [ctypes.c_void_p] * 3 + [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_ssize_t,
        ctypes.c_ssize_t,
    ] + [ctypes.c_void_p] * 3
    count = lib.repro_count_collisions
    count.restype = None
    count.argtypes = [ctypes.c_void_p, ctypes.c_ssize_t] * 2 + [
        ctypes.c_ssize_t,
        ctypes.c_ssize_t,
    ] + [ctypes.c_void_p] * 5
    return lib


def _native_self_check(lib: ctypes.CDLL) -> None:
    """Verify the native library against its NumPy twins on random inputs.

    The bound kernel must be bit-identical to the NumPy kernels in all
    three pairwise-summation regimes (d < 8, 8 <= d <= 128, d > 128) and
    at a word-spill bit width, both bounding every row and with a
    threshold; the collision-counting step must match
    :func:`count_collisions_numpy` on ranges, counts and run positions.
    Raises on any mismatch so the library is marked unavailable rather
    than silently divergent.
    """
    _bound_self_check(NativeKernel(lib))
    _count_self_check(_NativeCounter(lib))


def _bound_self_check(kernel: "NativeKernel") -> None:
    """With ``k``, rows are offered best-first (the threshold tightens
    at once, so most rows are dropped part-way) and worst-first (every
    row replaces the heap's top); after :func:`drop_pruned` the result
    must equal the NumPy bounds after :func:`drop_pruned`."""
    rng = np.random.default_rng(0x5EED)
    table = TableGatherKernel()
    m, k = 48, 3
    for d, bits in ((5, 4), (37, 13), (150, 8), (300, 7)):
        n_buckets = min(2**bits, 17)
        edges = np.sort(rng.uniform(-10.0, 10.0, size=2 * n_buckets))
        lo_t = np.ascontiguousarray(
            np.broadcast_to(edges[0::2], (d, n_buckets)), dtype=np.float64
        )
        up_t = np.ascontiguousarray(
            np.broadcast_to(edges[1::2], (d, n_buckets)), dtype=np.float64
        )
        codes = rng.integers(0, n_buckets, size=(m, d), dtype=np.int64)
        store = BitPackedMatrix(m, d, bits)
        store.set_rows(np.arange(m), codes)
        queries = rng.normal(0.0, 5.0, size=(3, d))

        class _Probe:
            def decode_tables(self):
                return lo_t, up_t

            def bucket_rectangles(self):
                return None

        want = table.bounds(queries, codes, _Probe())
        got = kernel._per_dimension_packed(
            queries, store, np.arange(m), (lo_t, up_t)
        )
        _require_equal(want, got, f"d={d}, bits={bits}")
        for i, query in enumerate(queries):
            best_first = np.argsort(want[1][i], kind="stable")
            for label, rows in (
                ("best-first", best_first),
                ("worst-first", best_first[::-1]),
            ):
                expect = (want[0][i, rows], want[1][i, rows])
                drop_pruned(*expect, k)
                lb, ub = kernel._per_dimension_packed(
                    query[None], store, rows, (lo_t, up_t), k
                )
                drop_pruned(lb[0], ub[0], k)
                _require_equal(
                    expect, (lb[0], ub[0]), f"d={d}, bits={bits}, k={k}, {label}"
                )


def _require_equal(want, got, where: str) -> None:
    for name, w, g in (("lb", want[0], got[0]), ("ub", want[1], got[1])):
        if not np.array_equal(w, g):
            raise KernelUnavailableError(
                f"native kernel self-check failed ({name} mismatch at "
                f"{where}); its bounds diverge from numpy on this platform"
            )


def native_available() -> tuple[bool, str | None]:
    """``(available, reason_if_not)`` for the native kernel."""
    global _NATIVE_STATE
    if _NATIVE_STATE is None:
        try:
            lib = _compile_native()
            _native_self_check(lib)
            _NATIVE_STATE = [lib, None]
        except KernelUnavailableError as exc:
            _NATIVE_STATE = [None, str(exc)]
        except OSError as exc:  # unwritable tmpdir, dlopen failure, ...
            _NATIVE_STATE = [None, f"native kernel unavailable: {exc}"]
    return _NATIVE_STATE[0] is not None, _NATIVE_STATE[1]


class NativeKernel(BoundKernel):
    """C bound kernel over packed words (no code matrix materialized)."""

    name = "native"

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._fn = lib.repro_packed_bounds

    def supports(self, encoder) -> bool:
        return (
            encoder.decode_tables() is not None
            or encoder.bucket_rectangles() is not None
        )

    def bounds(self, queries, codes, encoder):
        # Unpacked codes are already materialized here, so the packed C
        # path has nothing to save; reuse the table-gather math (it is
        # bit-identical by the module contract).
        return _TABLE.bounds(queries, codes, encoder)

    def packed_bounds(self, queries, store, slots, encoder, k=None):
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        tables = encoder.decode_tables()
        if tables is None:
            # Bucket-rectangle encoders (n_fields == 1) are already
            # decode-free under table-gather; delegate.
            return _TABLE.packed_bounds(queries, store, slots, encoder)
        if np.size(slots) == 0:
            empty = np.empty((len(queries), 0), dtype=np.float64)
            return empty, empty.copy()
        lo_t, up_t = tables
        if lo_t.shape[0] == 1 and store.n_fields > 1:
            lo_t = np.ascontiguousarray(
                np.broadcast_to(lo_t, (store.n_fields, lo_t.shape[1]))
            )
            up_t = np.ascontiguousarray(
                np.broadcast_to(up_t, (store.n_fields, up_t.shape[1]))
            )
        return self._per_dimension_packed(queries, store, slots, (lo_t, up_t), k)

    def _per_dimension_packed(self, queries, store, slots, tables, k=None):
        lo_t, up_t = tables
        word_idx, shifts, spill = store.field_geometry()
        n_fields, n_buckets = lo_t.shape
        words = store.words
        # The C loop trusts these: every slot's row and every field's
        # table row lies inside the arrays it reads.
        if (
            words.dtype != np.uint64
            or words.shape != (store.capacity, store.words_per_row)
            or not words.flags.c_contiguous
        ):
            raise ValueError(
                "packed words must be a contiguous uint64 "
                f"[{store.capacity}, {store.words_per_row}] array, got "
                f"{words.dtype}{list(words.shape)}"
            )
        if n_fields != store.n_fields:
            raise ValueError(
                f"tables cover {n_fields} fields, the store holds {store.n_fields}"
            )
        slots = np.ascontiguousarray(np.atleast_1d(slots), dtype=np.int64)
        m = len(slots)
        if m and (slots.min() < 0 or slots.max() >= store.capacity):
            raise IndexError(f"slot out of range for {store.capacity} rows")
        # k >= m rows can never fill the heap: no threshold.
        k = int(k) if k is not None and 0 < k < m else 0
        heap = np.empty(max(k, 1), dtype=np.float64)
        lb = np.empty((len(queries), m), dtype=np.float64)
        ub = np.empty((len(queries), m), dtype=np.float64)
        for i, query in enumerate(queries):
            tlb, tub = _contribution_tables(query, lo_t, up_t)
            tlb = np.ascontiguousarray(tlb)
            tub = np.ascontiguousarray(tub)
            rc = self._fn(
                words.ctypes.data,
                store.words_per_row,
                slots.ctypes.data,
                m,
                n_fields,
                store.bits,
                word_idx.ctypes.data,
                shifts.ctypes.data,
                spill.ctypes.data,
                tlb.ctypes.data,
                tub.ctypes.data,
                n_buckets,
                k,
                heap.ctypes.data,
                lb[i].ctypes.data,
                ub[i].ctypes.data,
            )
            if rc != 0:
                raise IndexError("code out of range")
        return lb, ub


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
_DECODE = DecodeKernel()
_TABLE = TableGatherKernel()


def auto_kernel() -> BoundKernel:
    """Native when it compiled and passed its self-check, else numpy."""
    return _native_kernel() if native_available()[0] else _TABLE


def _native_kernel() -> "NativeKernel":
    global _NATIVE_SINGLETON
    if _NATIVE_SINGLETON is None:
        _NATIVE_SINGLETON = NativeKernel(_NATIVE_STATE[0])
    return _NATIVE_SINGLETON


_NATIVE_SINGLETON: NativeKernel | None = None


# ----------------------------------------------------------------------
# C2LSH collision counting
# ----------------------------------------------------------------------
# C2LSH (repro.lsh.c2lsh) widens every hash function's bucket level by
# level, and each level's range of a sorted run contains the previous
# level's.  A counting step therefore searches each run only outside
# the previous range and counts only the entries the level added.  The
# C step reads the runs in place through their row stride, so the
# capacity buffers behind inserts and mmapped snapshot arrays need no
# copy; it releases the GIL while it runs.
def expand_ranges(
    starts: np.ndarray, stops: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(which, values)`` enumerating every range ``[starts[i], stops[i])``.

    ``values`` lists the integers of each range in order, range after
    range, and ``which[j]`` is the index of the range ``values[j]`` came
    from.  Empty and inverted ranges contribute nothing.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.maximum(np.asarray(stops, dtype=np.int64) - starts, 0)
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    which = np.repeat(np.arange(len(starts)), lengths)
    values = np.arange(total, dtype=np.int64)
    values += np.repeat(starts - (ends - lengths), lengths)
    return which, values


def count_collisions_numpy(
    hashes: np.ndarray,
    ids: np.ndarray,
    key_lo: np.ndarray,
    key_hi: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    counts: np.ndarray,
) -> None:
    """One counting level over ``m`` sorted runs, in NumPy.

    ``hashes``/``ids`` are ``(m, n)``; run ``t`` is searched for
    ``[key_lo[t], key_hi[t])``, a range that must contain the previous
    level's ``[lo[t], hi[t])`` (``lo[t] > hi[t]``: no previous level).
    Adds 1 to ``counts`` for every id the new ranges add and writes the
    new ranges into ``lo``/``hi``.  The C ``repro_count_collisions``
    step has the same contract.
    """
    m = len(key_lo)
    new_lo = np.fromiter(
        (run.searchsorted(key) for run, key in zip(hashes, key_lo)), np.int64, m
    )
    new_hi = np.fromiter(
        (run.searchsorted(key) for run, key in zip(hashes, key_hi)), np.int64, m
    )
    first = lo > hi
    lo[first] = hi[first] = new_hi[first]
    which, pos = expand_ranges(
        np.concatenate([new_lo, hi]), np.concatenate([lo, new_hi])
    )
    np.add.at(counts, ids[which % m, pos], 1)
    lo[:] = new_lo
    hi[:] = new_hi


class _NativeCounter:
    """The C counting step; same call as :func:`count_collisions_numpy`."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._fn = lib.repro_count_collisions

    def __call__(self, hashes, ids, key_lo, key_hi, lo, hi, counts) -> None:
        for runs in (hashes, ids):
            # Rows may sit at any stride; entries within a row are adjacent.
            if runs.dtype != np.int64 or runs.ndim != 2 or runs.strides[1] != 8:
                raise ValueError("sorted runs must be int64 rows of unit stride")
        key_lo = np.ascontiguousarray(key_lo, dtype=np.int64)
        key_hi = np.ascontiguousarray(key_hi, dtype=np.int64)
        m, n = hashes.shape
        # The C loop trusts these: every id of a run indexes ``counts``
        # (the runs are permutations of 0..n-1) and each array has a row.
        for array, dtype, size in (
            (key_lo, np.int64, m),
            (key_hi, np.int64, m),
            (lo, np.int64, m),
            (hi, np.int64, m),
            (counts, np.int32, n),
        ):
            if (
                array.dtype != dtype
                or array.shape != (size,)
                or not array.flags.c_contiguous
            ):
                raise ValueError(f"counting arrays must be contiguous {dtype}[{size}]")
        if ids.shape != hashes.shape:
            raise ValueError("hash and id runs must have the same shape")
        self._fn(
            hashes.ctypes.data,
            hashes.strides[0] // 8,
            ids.ctypes.data,
            ids.strides[0] // 8,
            m,
            n,
            key_lo.ctypes.data,
            key_hi.ctypes.data,
            lo.ctypes.data,
            hi.ctypes.data,
            counts.ctypes.data,
        )


def _count_self_check(counter: _NativeCounter) -> None:
    """Compare the C counting step with NumPy on random nested levels.

    The runs hold negative hashes and sit both in a contiguous array and
    as the prefix of a wider buffer (a row stride larger than ``n``).
    """
    rng = np.random.default_rng(0xC2)
    m, n = 9, 257
    for capacity in (n, 2 * n + 3):
        hashes = np.zeros((m, capacity), dtype=np.int64)
        ids = np.zeros((m, capacity), dtype=np.int64)
        hashes[:, :n] = np.sort(rng.integers(-60, 60, size=(m, n)), axis=1)
        ids[:, :n] = np.argsort(rng.random((m, n)), axis=1)
        runs, run_ids = hashes[:, :n], ids[:, :n]
        hq = rng.integers(-70, 70, size=m)
        state = [
            (np.full(m, n, dtype=np.int64), np.zeros(m, dtype=np.int64),
             np.zeros(n, dtype=np.int32))
            for _ in range(2)
        ]
        radius = 1
        for _ in range(7):
            key_lo = hq // radius * radius
            key_hi = key_lo + radius
            for step, (lo, hi, counts) in zip(
                (counter, count_collisions_numpy), state
            ):
                step(runs, run_ids, key_lo, key_hi, lo, hi, counts)
            if not all(np.array_equal(a, b) for a, b in zip(*state)):
                raise KernelUnavailableError(
                    "native collision-count self-check failed (capacity "
                    f"{capacity}, radius {radius}); the C step diverges "
                    "from numpy on this platform"
                )
            radius *= 3


def collision_counter():
    """The C2LSH counting step: native when :func:`native_available`
    holds, :func:`count_collisions_numpy` otherwise."""
    global _NATIVE_COUNTER
    if not native_available()[0]:
        return count_collisions_numpy
    if _NATIVE_COUNTER is None:
        _NATIVE_COUNTER = _NativeCounter(_NATIVE_STATE[0])
    return _NATIVE_COUNTER


_NATIVE_COUNTER: _NativeCounter | None = None


def effective_kernel(kernel: BoundKernel, encoder) -> BoundKernel:
    """The kernel actually used for an encoder (decode when unsupported)."""
    return kernel if kernel.supports(encoder) else _DECODE


def kernel_for(encoder) -> BoundKernel:
    """The bound kernel for ``encoder`` on this machine (the one rule)."""
    return effective_kernel(auto_kernel(), encoder)


def code_bounds(
    queries: np.ndarray, codes: np.ndarray, encoder
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of unpacked ``codes`` through :func:`kernel_for`."""
    return kernel_for(encoder).bounds(queries, codes, encoder)
