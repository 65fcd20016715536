"""Bound kernels: bit-identity, packing edge cases, and the bugfix sweep.

Four concerns share this module because they guard one invariant — the
bounds the cache hands the reduction step are *sound* and *identical*
no matter which kernel produced them:

* ``BitPackedMatrix`` round-trips at word-spill boundaries (a field
  straddling two uint64 words is exactly where a native kernel reading
  raw words would silently corrupt codes);
* the three bound kernels (decode / numpy / native) agree bit-for-bit
  on random histograms, for every encoder family;
* ``Histogram.lookup`` rejects out-of-domain values (clamping them used
  to produce a "lower bound" exceeding the true distance);
* ``kth_smallest`` refuses NaN (``np.partition`` would silently order
  NaN last and shift the pruning threshold).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitpack import WORD_BITS, BitPackedMatrix
from repro.core.bounds import (
    batch_rectangle_bounds,
    exact_distances,
    kth_smallest,
    rectangle_bounds,
)
from repro.core.builders import build_equidepth, build_equiwidth
from repro.core.domain import ValueDomain
from repro.core.encoder import (
    ExactEncoder,
    GlobalHistogramEncoder,
    IndividualHistogramEncoder,
)
from repro.core import kernels as kernels_mod
from repro.core.histogram import Histogram
from repro.core.kernels import (
    _DECODE,
    _TABLE,
    DecodeKernel,
    KernelUnavailableError,
    NativeKernel,
    TableGatherKernel,
    auto_kernel,
    code_bounds,
    effective_kernel,
    kernel_for,
    native_available,
)
from repro.core.multidim import RTreeBucketEncoder
from repro.core.pq import PQEncoder

SEED = 20260808

NATIVE_OK, NATIVE_REASON = native_available()
needs_native = pytest.mark.skipif(
    not NATIVE_OK, reason=f"native kernel unavailable: {NATIVE_REASON}"
)


# ----------------------------------------------------------------------
# BitPackedMatrix at word boundaries
# ----------------------------------------------------------------------
class TestBitPackSpill:
    """Round-trips exactly where fields straddle uint64 words."""

    @pytest.mark.parametrize("bits", [7, 13, 63])
    def test_spill_round_trip(self, bits):
        # Enough fields that several cross a word boundary.
        n_fields = (3 * WORD_BITS) // bits + 2
        rng = np.random.default_rng(SEED + bits)
        codes = rng.integers(0, 2**bits, size=(17, n_fields), dtype=np.int64)
        store = BitPackedMatrix(17, n_fields, bits)
        store.set_rows(np.arange(17), codes)
        assert np.array_equal(store.get_rows(np.arange(17)), codes)
        # The geometry must mark at least one spilling field, or the
        # parametrization stopped exercising the boundary at all.
        _, _, spill = store.field_geometry()
        assert (spill > 0).any()

    @pytest.mark.parametrize("bits", [7, 13, 63])
    def test_spill_extremes_survive(self, bits):
        """All-ones codes (every payload bit set) round-trip unchanged."""
        n_fields = (2 * WORD_BITS) // bits + 1
        top = 2**bits - 1
        codes = np.full((3, n_fields), top, dtype=np.int64)
        codes[1] = 0
        codes[2, ::2] = 0
        store = BitPackedMatrix(3, n_fields, bits)
        store.set_rows(np.arange(3), codes)
        assert np.array_equal(store.get_rows(np.arange(3)), codes)

    @pytest.mark.parametrize(
        "n_fields,bits", [(8, 8), (4, 16), (64, 7), (2, 32)]
    )
    def test_exact_fit_rows(self, n_fields, bits):
        """Rows whose payload is a whole number of words (no slack bits)."""
        assert (n_fields * bits) % WORD_BITS == 0
        store = BitPackedMatrix(5, n_fields, bits)
        assert store.words_per_row == n_fields * bits // WORD_BITS
        rng = np.random.default_rng(SEED)
        codes = rng.integers(0, 2**bits, size=(5, n_fields), dtype=np.int64)
        store.set_rows(np.arange(5), codes)
        assert np.array_equal(store.get_rows(np.arange(5)), codes)

    def test_capacity_zero(self):
        store = BitPackedMatrix(0, 6, 13)
        assert store.nbytes == 0
        assert store.get_rows(np.empty(0, dtype=np.int64)).shape == (0, 6)
        with pytest.raises(IndexError):
            store.get_rows(np.array([0]))

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.sampled_from([7, 13, 63]),
        n_fields=st.integers(1, 40),
        data=st.data(),
    )
    def test_round_trip_property(self, bits, n_fields, data):
        rows = data.draw(st.integers(0, 6))
        codes = np.asarray(
            data.draw(
                st.lists(
                    st.lists(
                        st.integers(0, 2**bits - 1),
                        min_size=n_fields,
                        max_size=n_fields,
                    ),
                    min_size=rows,
                    max_size=rows,
                )
            ),
            dtype=np.int64,
        ).reshape(rows, n_fields)
        store = BitPackedMatrix(max(rows, 1), n_fields, bits)
        if rows:
            store.set_rows(np.arange(rows), codes)
            assert np.array_equal(store.get_rows(np.arange(rows)), codes)


# ----------------------------------------------------------------------
# Kernel equivalence over random histograms
# ----------------------------------------------------------------------
def _random_encoder(rng, kind, dim=7):
    n = 120
    points = np.rint(rng.uniform(0, 40, size=(n, dim)))
    if kind == "global":
        dom = ValueDomain.from_points(points)
        enc = GlobalHistogramEncoder(build_equidepth(dom, 8), dim)
    elif kind == "individual":
        hists = [
            build_equiwidth(ValueDomain.from_column(points[:, j]), 4 + j % 3)
            for j in range(dim)
        ]
        enc = IndividualHistogramEncoder(hists)
    elif kind == "rtree":
        enc = RTreeBucketEncoder(points, tau=4)
    elif kind == "pq":
        enc = PQEncoder(points, n_subspaces=3, bits=3, seed=1)
    else:
        raise ValueError(kind)
    return enc, points


KERNEL_ENCODERS = ("global", "individual", "rtree", "pq")


class TestKernelEquivalence:
    @pytest.mark.parametrize("kind", KERNEL_ENCODERS)
    def test_numpy_matches_decode_bitwise(self, kind):
        rng = np.random.default_rng(SEED)
        enc, points = _random_encoder(rng, kind)
        codes = enc.encode(points)
        queries = rng.uniform(-5, 45, size=(6, points.shape[1]))
        lb_d, ub_d = _DECODE.bounds(queries, codes, enc)
        lb_n, ub_n = effective_kernel(_TABLE, enc).bounds(queries, codes, enc)
        assert np.array_equal(lb_d, lb_n), kind
        assert np.array_equal(ub_d, ub_n), kind

    @pytest.mark.parametrize("kind", KERNEL_ENCODERS)
    def test_packed_matches_unpacked(self, kind):
        """packed_bounds (the cache hot path) equals decode bit-for-bit."""
        rng = np.random.default_rng(SEED + 1)
        enc, points = _random_encoder(rng, kind)
        codes = enc.encode(points)
        m = len(codes)
        store = BitPackedMatrix(m, enc.n_fields, enc.bits)
        store.set_rows(np.arange(m), codes)
        slots = rng.permutation(m)[: m // 2]
        queries = rng.uniform(-5, 45, size=(4, points.shape[1]))
        want = DecodeKernel().bounds(queries, codes[slots], enc)
        for kernel in self._kernels(enc):
            got = kernel.packed_bounds(queries, store, slots, enc)
            assert np.array_equal(want[0], got[0]), (kind, kernel.name)
            assert np.array_equal(want[1], got[1]), (kind, kernel.name)

    @staticmethod
    def _kernels(enc):
        kernels = [_DECODE, _TABLE]
        if NATIVE_OK:
            kernels.append(kernels_mod._native_kernel())
        for kern in kernels:
            yield effective_kernel(kern, enc)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_buckets=st.integers(2, 20))
    def test_random_histograms_property(self, seed, n_buckets):
        """Decode vs table-gather on arbitrary gap-y histograms."""
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 9))
        edges = np.sort(rng.uniform(-100, 100, size=2 * n_buckets))
        hist = Histogram(lowers=edges[0::2], uppers=edges[1::2])
        enc = GlobalHistogramEncoder(hist, dim)
        codes = rng.integers(0, n_buckets, size=(30, dim), dtype=np.int64)
        queries = rng.uniform(-120, 120, size=(3, dim))
        lb_d, ub_d = DecodeKernel().bounds(queries, codes, enc)
        lb_t, ub_t = TableGatherKernel().bounds(queries, codes, enc)
        assert np.array_equal(lb_d, lb_t)
        assert np.array_equal(ub_d, ub_t)

    def test_bounds_sound_vs_exact(self):
        """lb <= dist <= ub for in-domain points, every kernel."""
        rng = np.random.default_rng(SEED + 2)
        enc, points = _random_encoder(rng, "global")
        codes = enc.encode(points)
        queries = rng.uniform(0, 40, size=(5, points.shape[1]))
        for kernel in (_DECODE, _TABLE):
            lb, ub = kernel.bounds(queries, codes, enc)
            for i, q in enumerate(queries):
                dist = exact_distances(q, points)
                assert (lb[i] <= dist + 1e-9).all(), kernel.name
                assert (ub[i] >= dist - 1e-9).all(), kernel.name

    def test_empty_candidate_set(self):
        rng = np.random.default_rng(SEED)
        enc, points = _random_encoder(rng, "global")
        queries = rng.uniform(0, 40, size=(2, points.shape[1]))
        empty = np.empty((0, enc.n_fields), dtype=np.int64)
        for kernel in (_DECODE, _TABLE):
            lb, ub = kernel.bounds(queries, empty, enc)
            assert lb.shape == ub.shape == (2, 0)
        lb, ub = code_bounds(queries, empty, enc)
        assert lb.shape == ub.shape == (2, 0)


# ----------------------------------------------------------------------
# Kernel selection: the machine picks, nothing else does
# ----------------------------------------------------------------------
def _without_native(monkeypatch):
    monkeypatch.setattr(
        kernels_mod, "native_available", lambda: (False, "no C compiler (stub)")
    )


def _global_encoder():
    enc, _ = _random_encoder(np.random.default_rng(SEED), "global")
    return enc


class TestResolution:
    @needs_native
    def test_auto_is_native_when_available(self):
        assert auto_kernel().name == "native"
        assert kernel_for(_global_encoder()).name == "native"

    def test_auto_is_numpy_without_native(self, monkeypatch):
        _without_native(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert auto_kernel().name == "numpy"
            assert kernel_for(_global_encoder()).name == "numpy"

    def test_unsupported_encoder_falls_back_to_decode(self):
        rng = np.random.default_rng(SEED)
        enc, _ = _random_encoder(rng, "pq")
        assert effective_kernel(_TABLE, enc).name == "decode"
        assert kernel_for(enc).name == "decode"
        exact = ExactEncoder(4, 16)
        assert effective_kernel(_TABLE, exact).name == "decode"
        assert kernel_for(exact).name == "decode"

    @needs_native
    def test_native_resolves(self):
        kern = kernel_for(_global_encoder())
        assert isinstance(kern, NativeKernel)
        assert kern is kernels_mod._native_kernel()

    def test_env_var_is_ignored(self, monkeypatch):
        """``REPRO_KERNEL`` names no kernel any more."""
        want = kernel_for(_global_encoder()).name
        for value in ("decode", "numpy", "simd"):
            monkeypatch.setenv("REPRO_KERNEL", value)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert kernel_for(_global_encoder()).name == want


class TestNativeCompile:
    def test_compile_reads_a_private_source(self, monkeypatch, tmp_path):
        """Two compiles into one empty cache never share a source file.

        A shared ``bound_kernel_<sha>.c`` let a second process truncate
        the source while the first process's compiler was reading it.
        """
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        monkeypatch.setenv("CC", "cc")
        sources = []

        def fake_run(cmd, **kwargs):
            source = next(arg for arg in cmd if arg.endswith(".c"))
            with open(source) as fh:
                assert fh.read() == kernels_mod._C_SOURCE
            sources.append(source)
            return subprocess.CompletedProcess(cmd, 1, "", "stub compiler")

        monkeypatch.setattr(kernels_mod.subprocess, "run", fake_run)
        for _ in range(2):
            with pytest.raises(KernelUnavailableError, match="stub compiler"):
                kernels_mod._compile_native()
        digest = hashlib.sha256(kernels_mod._C_SOURCE.encode()).hexdigest()[:16]
        shared = str(tmp_path / f"bound_kernel_{digest}.c")
        assert len(sources) == 2
        assert len(set(sources)) == 2
        assert shared not in sources
        assert list(tmp_path.iterdir()) == []


def test_native_fails_only_for_want_of_a_compiler():
    """A library that compiles but diverges is a bug, not a fallback.

    Without a compiler the native kernel and count step quietly give way
    to numpy; a failed compile or self-check must fail here instead of
    only skipping the native tests.
    """
    ok, reason = native_available()
    assert ok or not any(
        word in reason for word in ("self-check", "compilation failed")
    ), reason


@needs_native
class TestNativeKernel:
    def test_matches_numpy_on_all_summation_regimes(self):
        """d < 8, 8 <= d <= 128 and d > 128 hit distinct pairwise paths."""
        rng = np.random.default_rng(SEED + 3)
        table = TableGatherKernel()
        native = kernels_mod._native_kernel()
        for dim, bits in ((3, 7), (24, 5), (150, 8), (301, 6)):
            n_buckets = 2**bits if bits <= 4 else 19
            edges = np.sort(rng.uniform(-50, 50, size=2 * n_buckets))
            hist = Histogram(lowers=edges[0::2], uppers=edges[1::2])
            enc = GlobalHistogramEncoder(hist, dim)
            enc.bits = bits  # widen the packed field past ceil(log2 B)
            codes = rng.integers(0, n_buckets, size=(21, dim), dtype=np.int64)
            store = BitPackedMatrix(21, dim, bits)
            store.set_rows(np.arange(21), codes)
            queries = rng.normal(0, 30, size=(3, dim))
            want = table.packed_bounds(queries, store, np.arange(21), enc)
            got = native.packed_bounds(queries, store, np.arange(21), enc)
            assert np.array_equal(want[0], got[0]), (dim, bits)
            assert np.array_equal(want[1], got[1]), (dim, bits)

    def test_out_of_range_code_raises(self):
        native = kernels_mod._native_kernel()
        hist = Histogram(lowers=np.array([0.0, 2.0]), uppers=np.array([1.0, 3.0]))
        enc = GlobalHistogramEncoder(hist, 4)
        store = BitPackedMatrix(1, 4, 3)
        store.set_rows(np.array([0]), np.array([[7, 0, 1, 0]]))
        with pytest.raises(IndexError):
            native.packed_bounds(
                np.zeros((1, 4)), store, np.array([0]), enc
            )

    def test_threshold_drops_only_pruned_rows(self):
        """With ``k`` the kernel drops a subset of the rows with ``lb >
        ub_k`` (as ``inf``) and leaves every other row bit-identical."""
        rng = np.random.default_rng(SEED + 4)
        native = kernels_mod._native_kernel()
        for dim, bits in ((3, 7), (24, 5), (150, 8), (301, 6)):
            n_buckets = 2**bits if bits <= 4 else 19
            edges = np.sort(rng.uniform(-50, 50, size=2 * n_buckets))
            # Bucket 0 is a single value, so rows of code 0 have lb == ub.
            edges[1] = edges[0]
            hist = Histogram(lowers=edges[0::2], uppers=edges[1::2])
            enc = GlobalHistogramEncoder(hist, dim)
            enc.bits = bits
            m = 40
            codes = rng.integers(0, n_buckets, size=(m, dim), dtype=np.int64)
            codes[:2] = 0  # two equal rows: a tie with lb == ub
            store = BitPackedMatrix(m, dim, bits)
            store.set_rows(np.arange(m), codes)
            query = np.full((1, dim), edges[0])
            query += rng.normal(0, 1, size=(1, dim))
            full_lb, full_ub = _TABLE.packed_bounds(query, store, np.arange(m), enc)
            best_first = np.argsort(full_ub[0], kind="stable")
            orders = (best_first, best_first[::-1], rng.permutation(m))
            dropped_any = False
            for rows in orders:
                for k in (1, 2, 4, m - 1, m, m + 5):
                    lb, ub = native.packed_bounds(query, store, rows, enc, k)
                    want_lb, want_ub = full_lb[0, rows], full_ub[0, rows]
                    pruned = want_lb > kth_smallest(want_ub, k)
                    dropped = np.isinf(lb[0])
                    where = (dim, bits, k)
                    assert not (dropped & ~pruned).any(), where
                    assert np.array_equal(np.isinf(ub[0]), dropped), where
                    assert np.array_equal(lb[0][~dropped], want_lb[~dropped]), where
                    assert np.array_equal(ub[0][~dropped], want_ub[~dropped]), where
                    dropped_any |= bool(dropped.any())
            assert dropped_any, (dim, bits)

    def test_tie_at_the_threshold_is_kept(self):
        """A row whose lb equals the running k-th ub is not pruned."""
        native = kernels_mod._native_kernel()
        hist = Histogram(lowers=np.array([1.0, 5.0]), uppers=np.array([1.0, 6.0]))
        enc = GlobalHistogramEncoder(hist, 150)
        store = BitPackedMatrix(3, 150, enc.bits)
        store.set_rows(np.arange(3), np.array([[0] * 150, [0] * 150, [1] * 150]))
        query = np.zeros((1, 150))
        lb, ub = native.packed_bounds(query, store, np.arange(3), enc, 1)
        assert lb[0, 1] == ub[0, 0] and np.isfinite(lb[0, 1])
        assert np.isinf(lb[0, 2]) and np.isinf(ub[0, 2])

    @pytest.mark.parametrize(
        "words",
        [
            lambda w: w.astype(np.uint32),
            np.asfortranarray,
            lambda w: w[:-1],
        ],
        ids=["uint32", "fortran-order", "short"],
    )
    def test_packed_words_of_another_layout_are_refused(self, words):
        """The C loop reads 8-byte words in row-major order: any other
        layout is refused before its pointer is passed."""
        native = kernels_mod._native_kernel()
        hist = Histogram(lowers=np.array([0.0, 2.0]), uppers=np.array([1.0, 3.0]))
        enc = GlobalHistogramEncoder(hist, 40)
        store = BitPackedMatrix(4, 40, 4)  # three words per row
        store.set_rows(np.arange(4), np.ones((4, 40), dtype=np.int64))
        store._words = words(store._words)
        assert store.words.shape[1] > 1
        with pytest.raises(ValueError, match="packed words"):
            native.packed_bounds(np.zeros((1, 40)), store, np.arange(3), enc)

    def test_slot_past_the_store_is_refused(self):
        native = kernels_mod._native_kernel()
        hist = Histogram(lowers=np.array([0.0, 2.0]), uppers=np.array([1.0, 3.0]))
        enc = GlobalHistogramEncoder(hist, 4)
        store = BitPackedMatrix(2, 4, 1)
        for slots in (np.array([0, 2]), np.array([-1, 0])):
            with pytest.raises(IndexError, match="slot"):
                native.packed_bounds(np.zeros((1, 4)), store, slots, enc)

    def test_self_check_passed(self):
        ok, reason = native_available()
        assert ok and reason is None

    def test_self_check_rejects_a_kernel_dropping_a_kept_row(self, monkeypatch):
        """A threshold that drops a row with ``lb <= ub_k`` marks the
        library unavailable."""
        real = NativeKernel._per_dimension_packed

        def drops_the_nearest(self, queries, store, slots, tables, k=None):
            lb, ub = real(self, queries, store, slots, tables, k)
            if k:
                nearest = np.argmin(lb, axis=1)
                lb[:, nearest] = ub[:, nearest] = np.inf
            return lb, ub

        monkeypatch.setattr(NativeKernel, "_per_dimension_packed", drops_the_nearest)
        with pytest.raises(KernelUnavailableError, match="k=3"):
            kernels_mod._native_self_check(kernels_mod._compile_native())

    def test_self_check_rejects_a_divergent_count_step(self, monkeypatch):
        """A C count that drifts from numpy marks the library unavailable."""
        real = kernels_mod._NativeCounter.__call__

        def off_by_one(self, hashes, ids, key_lo, key_hi, lo, hi, counts):
            real(self, hashes, ids, key_lo, key_hi, lo, hi, counts)
            counts[0] += 1

        monkeypatch.setattr(kernels_mod._NativeCounter, "__call__", off_by_one)
        with pytest.raises(KernelUnavailableError, match="collision-count"):
            kernels_mod._native_self_check(kernels_mod._compile_native())


# ----------------------------------------------------------------------
# Satellite bugfix 1: out-of-domain encodes are rejected
# ----------------------------------------------------------------------
class TestLookupSoundness:
    def _hist(self):
        dom = ValueDomain(
            np.array([0.0, 1.0, 4.0, 5.0, 9.0, 10.0]), np.ones(6, dtype=np.int64)
        )
        return Histogram.from_splits(dom, np.array([0, 2, 4]))

    def test_out_of_domain_raises(self):
        # Pre-fix, lookup() silently clamped 999.0 into the last bucket —
        # this assertion fails on that code.
        hist = self._hist()
        for bad in (999.0, -999.0):
            with pytest.raises(ValueError, match="outside every histogram"):
                hist.lookup(np.array([bad]))

    def test_gap_value_raises(self):
        """Values in inter-bucket gaps are just as unsound as outliers."""
        hist = self._hist()
        assert not hist.covers(np.array([2.5]))[0]
        with pytest.raises(ValueError, match="outside every histogram"):
            hist.lookup(np.array([2.5]))

    def test_clamped_code_would_break_lower_bound(self):
        """The soundness violation the strict check prevents.

        Encoding 999.0 via the old clamping path yields a rectangle that
        excludes the point, and the derived "lower bound" exceeds the
        true distance — exactly the condition that makes bound-based
        pruning drop true neighbors.
        """
        hist = self._hist()
        dim = 3
        enc = GlobalHistogramEncoder(hist, dim)
        point = np.array([[999.0, 5.0, 9.0]])
        codes = hist.lookup(point, strict=False)  # the pre-fix behavior
        lo, hi = enc.rectangles(codes)
        query = np.array([999.0, 5.0, 9.0])  # the point itself: dist 0
        lb, _ = rectangle_bounds(query, lo, hi)
        exact = exact_distances(query, point)
        assert lb[0] > exact[0], "clamped code must exhibit the unsound lb"
        with pytest.raises(ValueError):
            enc.encode(point)  # the fix: refuse to produce that code

    def test_domain_members_encode_strictly(self):
        hist = self._hist()
        values = np.array([0.0, 1.0, 4.0, 5.0, 9.0, 10.0])
        codes = hist.lookup(values)
        lo, hi = hist.decode_bounds(codes)
        assert (lo <= values).all() and (values <= hi).all()

    def test_covers_still_reports_instead_of_raising(self):
        hist = self._hist()
        mask = hist.covers(np.array([5.0, 999.0, 2.5]))
        assert mask.tolist() == [True, False, False]


# ----------------------------------------------------------------------
# Satellite bugfix 2: kth_smallest refuses NaN
# ----------------------------------------------------------------------
class TestKthSmallestNaN:
    def test_nan_raises_when_enough_values(self):
        values = np.array([3.0, np.nan, 1.0, 2.0])
        with pytest.raises(ValueError, match="NaN"):
            kth_smallest(values, 2)

    def test_nan_raises_in_short_regime(self):
        # Pre-fix the size < k branch returned +inf without looking at
        # the values, so a NaN slipped through silently.
        values = np.array([np.nan, 1.0])
        with pytest.raises(ValueError, match="NaN"):
            kth_smallest(values, 5)

    def test_nan_would_have_shifted_threshold(self):
        """Documents the np.partition hazard the guard closes."""
        clean = np.array([5.0, 1.0, 3.0])
        assert kth_smallest(clean, 3) == 5.0
        poisoned = np.array([5.0, np.nan, 3.0])
        # np.partition orders NaN last: the "3rd smallest" becomes NaN,
        # and every lb <= NaN comparison is False — pruning collapses.
        assert np.isnan(np.partition(poisoned, 2)[2])
        with pytest.raises(ValueError):
            kth_smallest(poisoned, 3)

    def test_clean_paths_unchanged(self):
        values = np.array([4.0, 0.5, 2.0, 9.0])
        assert kth_smallest(values, 1) == 0.5
        assert kth_smallest(values, 4) == 9.0
        assert kth_smallest(values, 5) == float("inf")


# ----------------------------------------------------------------------
# Satellite bugfix 3: measure_m1 routes through the kernel path
# ----------------------------------------------------------------------
class TestMeasureM1:
    @pytest.fixture(scope="class")
    def context(self):
        from repro.data.datasets import Dataset
        from repro.data.workload import QueryLog
        from repro.eval.methods import WorkloadContext

        rng = np.random.default_rng(SEED)
        points = np.rint(rng.uniform(0, 60, size=(160, 6)))
        pool = points[rng.permutation(160)[:10]].copy()
        log = QueryLog(
            pool,
            workload_idx=rng.integers(0, 10, size=30),
            test_idx=np.arange(4),
        )
        dataset = Dataset(
            name="m1-kernel", points=points, value_bits=6, query_log=log
        )
        return WorkloadContext.prepare(dataset, index_name="linear", k=4)

    def _old_loop(self, encoder, context, k):
        """The historical per-query implementation, verbatim."""
        from repro.core.bounds import rectangle_bounds
        from repro.core.reduction import reduce_candidates

        points = context.dataset.points
        total = 0.0
        for query, weight, cands in zip(
            context.distinct_queries,
            context.query_weights,
            context.candidate_sets,
        ):
            if cands.size == 0:
                continue
            codes = encoder.encode(points[cands])
            lo, hi = encoder.rectangles(codes)
            lb, ub = rectangle_bounds(query, lo, hi)
            outcome = reduce_candidates(
                cands, np.ones(len(cands), dtype=bool), lb, ub, k
            )
            total += weight * outcome.c_refine
        return float(total)

    @pytest.mark.parametrize(
        "kernel", ["decode", "numpy", pytest.param("native", marks=needs_native)]
    )
    def test_bit_identical_to_old_loop(self, context, kernel, force_kernel):
        from repro.eval.runner import measure_m1

        dom = ValueDomain.from_points(context.dataset.points)
        enc = GlobalHistogramEncoder(build_equidepth(dom, 16), 6)
        want = self._old_loop(enc, context, k=4)
        force_kernel(kernel)
        assert kernel_for(enc).name == kernel
        got = measure_m1(enc, context, k=4)
        assert got == want  # exact float equality, not approx


# ----------------------------------------------------------------------
# Compiled-artifact cache
# ----------------------------------------------------------------------
@needs_native
def test_kernel_cache_dir_override(tmp_path, monkeypatch):
    """REPRO_KERNEL_CACHE redirects the .so cache (fresh compile works)."""
    import repro.core.kernels as kernels

    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    lib = kernels._compile_native()
    assert lib.repro_packed_bounds is not None
    assert any(p.suffix == ".so" for p in tmp_path.iterdir())
    # Second call reuses the cached artifact (no error, same directory).
    kernels._compile_native()
    assert os.environ["REPRO_KERNEL_CACHE"] == str(tmp_path)
