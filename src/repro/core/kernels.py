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
  self-check at load time verifies bit-identity and disables the
  kernel on any mismatch.

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
that query's own cached candidates.  The native kernel decodes nothing
and releases the GIL while it runs; the numpy fallback unpacks those
rows first.  ``lookup_batch`` (one candidate set shared by a query
batch, as in range search) still runs every query against the same
rows in one call.

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
from repro.core.bounds import batch_rectangle_bounds


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
        self, queries: np.ndarray, store: BitPackedMatrix, slots: np.ndarray, encoder
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bounds straight from a packed store (default: unpack first)."""
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

    def packed_bounds(self, queries, store, slots, encoder):
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
# The summation in pairwise() mirrors numpy's pairwise_sum (the reduce
# loop behind np.sum over a contiguous axis): sequential below 8
# elements, an 8-way unrolled block up to 128, then a recursive split
# rounded down to a multiple of 8.  Keeping the same reduction tree is
# what makes the C kernel bit-identical to the NumPy kernels; the
# load-time self-check below refuses the kernel if this ever drifts
# (e.g. a numpy release changing its pairwise blocking).
_C_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>

static double pairwise(const double *a, ptrdiff_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            res += a[i];
        return res;
    } else if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        ptrdiff_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i + 0]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++)
            res += a[i];
        return res;
    } else {
        ptrdiff_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise(a, n2) + pairwise(a + n2, n - n2);
    }
}

/* Bounds for one query against m packed rows addressed through slots.
 * Field j of a row lives at word word_idx[j], bit offset shift[j]; when
 * spill[j] > 0 its top spill[j] bits continue in the next word.  Codes
 * index the (n_fields, n_buckets) contribution tables tlb/tub.
 * Returns 0 on success, 1 when a decoded code is >= n_buckets. */
int repro_packed_bounds(
    const uint64_t *words, ptrdiff_t words_per_row,
    const int64_t *slots, ptrdiff_t m,
    ptrdiff_t n_fields, int bits,
    const int64_t *word_idx, const int64_t *shift, const int64_t *spill,
    const double *tlb, const double *tub, ptrdiff_t n_buckets,
    double *scratch_lb, double *scratch_ub,
    double *lb, double *ub)
{
    const uint64_t mask = (((uint64_t)1) << bits) - 1;
    for (ptrdiff_t i = 0; i < m; i++) {
        const uint64_t *row = words + slots[i] * words_per_row;
        for (ptrdiff_t j = 0; j < n_fields; j++) {
            uint64_t v = row[word_idx[j]] >> shift[j];
            if (spill[j] > 0)
                v |= row[word_idx[j] + 1] << (bits - spill[j]);
            v &= mask;
            if ((ptrdiff_t)v >= n_buckets)
                return 1;
            scratch_lb[j] = tlb[j * n_buckets + (ptrdiff_t)v];
            scratch_ub[j] = tub[j * n_buckets + (ptrdiff_t)v];
        }
        lb[i] = sqrt(pairwise(scratch_lb, n_fields));
        ub[i] = sqrt(pairwise(scratch_ub, n_fields));
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
    ] + [ctypes.c_void_p] * 4
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
    at a word-spill bit width; the collision-counting step must match
    :func:`count_collisions_numpy` on ranges, counts and run positions.
    Raises on any mismatch so the library is marked unavailable rather
    than silently divergent.
    """
    _bound_self_check(NativeKernel(lib))
    _count_self_check(_NativeCounter(lib))


def _bound_self_check(kernel: "NativeKernel") -> None:
    rng = np.random.default_rng(0x5EED)
    table = TableGatherKernel()
    for d, bits in ((5, 4), (37, 13), (150, 8), (300, 7)):
        n_buckets = min(2**bits, 17)
        edges = np.sort(rng.uniform(-10.0, 10.0, size=2 * n_buckets))
        lo_t = np.ascontiguousarray(
            np.broadcast_to(edges[0::2], (d, n_buckets)), dtype=np.float64
        )
        up_t = np.ascontiguousarray(
            np.broadcast_to(edges[1::2], (d, n_buckets)), dtype=np.float64
        )
        codes = rng.integers(0, n_buckets, size=(11, d), dtype=np.int64)
        store = BitPackedMatrix(11, d, bits)
        store.set_rows(np.arange(11), codes)
        queries = rng.normal(0.0, 5.0, size=(3, d))

        class _Probe:
            def decode_tables(self):
                return lo_t, up_t

            def bucket_rectangles(self):
                return None

        want = table.bounds(queries, codes, _Probe())
        got = kernel._per_dimension_packed(
            np.atleast_2d(queries), store, np.arange(11), (lo_t, up_t)
        )
        for name, w, g in (("lb", want[0], got[0]), ("ub", want[1], got[1])):
            if not np.array_equal(w, g):
                raise KernelUnavailableError(
                    f"native kernel self-check failed ({name} mismatch at "
                    f"d={d}, bits={bits}); summation order diverges from "
                    "numpy on this platform"
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

    def packed_bounds(self, queries, store, slots, encoder):
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        tables = encoder.decode_tables()
        if tables is None:
            # Bucket-rectangle encoders (n_fields == 1) are already
            # decode-free under table-gather; delegate.
            return _TABLE.packed_bounds(queries, store, slots, encoder)
        slots = np.ascontiguousarray(np.atleast_1d(slots), dtype=np.int64)
        if slots.size == 0:
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
        return self._per_dimension_packed(queries, store, slots, (lo_t, up_t))

    def _per_dimension_packed(self, queries, store, slots, tables):
        lo_t, up_t = tables
        word_idx, shifts, spill = store.field_geometry()
        n_fields, n_buckets = lo_t.shape
        m = len(slots)
        lb = np.empty((len(queries), m), dtype=np.float64)
        ub = np.empty((len(queries), m), dtype=np.float64)
        scratch_lb = np.empty(n_fields, dtype=np.float64)
        scratch_ub = np.empty(n_fields, dtype=np.float64)
        words = store.words
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
                scratch_lb.ctypes.data,
                scratch_ub.ctypes.data,
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
