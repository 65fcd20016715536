"""Differential harness: bound kernels are invisible to search results.

The guarantee matrix, per (index family x cache configuration) cell:
running ``ApproximateCache``/``LeafNodeCache`` on the ``decode``,
``numpy`` and (when a C compiler is present) ``native`` kernels changes
**nothing observable**:

* **bounds** — ``lookup`` and ``lookup_batch`` return byte-identical
  ``(hits, lb, ub)`` arrays;
* **results** — ids, distances, ``exact_mask`` and per-query
  ``QueryStats`` (candidates / hits / pruned / confirmed / c_refine /
  I/O counts) from a full ``QueryEngine.search_many`` run are identical;
* **telemetry** — the cache's cumulative counters agree, because every
  hit/prune decision fell the same way;
* **threshold** — ``lookup(query, ids, k)`` equals ``lookup(query,
  ids)`` with ``lb = ub = inf`` on every row Algorithm 1 prunes, on every
  kernel and cache, and its reduction equals the full bounds' one.

The product picks the kernel itself (``kernel_for``), so each run
forces one through the ``force_kernel`` fixture.  Each cell rebuilds
its engine from scratch per kernel (LRU caches mutate during search,
so state must not leak between kernel runs).
Every randomized input derives from ``SEED``; assertion messages carry
the cell and kernel names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.bounds import kth_smallest
from repro.core.builders import build_equidepth, build_equiwidth
from repro.core.cache import (
    ApproximateCache,
    CachePolicy,
    ExactCache,
    LeafNodeCache,
    NoCache,
)
from repro.core.domain import ValueDomain
from repro.core.encoder import GlobalHistogramEncoder, IndividualHistogramEncoder
from repro.core import kernels
from repro.core.kernels import native_available
from repro.core.multidim import RTreeBucketEncoder
from repro.core.pq import PQEncoder
from repro.core.reduction import reduce_candidates
from repro.engine.engine import QueryEngine
from repro.index.idistance import IDistanceIndex
from repro.index.linear_scan import LinearScanIndex
from repro.index.vafile import VAFileIndex
from repro.lsh.c2lsh import C2LSHIndex, C2LSHParams, calibrate_base_radius
from repro.storage.disk import DiskConfig, SimulatedDisk
from repro.storage.pointfile import PointFile

SEED = 20260808
N_POINTS = 240
DIM = 6
K = 5
CACHE_BYTES = 1 << 11

NATIVE_OK, NATIVE_REASON = native_available()
KERNELS = ("decode", "numpy") + (("native",) if NATIVE_OK else ())

STAT_FIELDS = (
    "num_candidates",
    "cache_hits",
    "pruned",
    "confirmed",
    "c_refine",
    "refined_fetches",
    "refine_page_reads",
    "gen_page_reads",
)
TELEMETRY_FIELDS = (
    "lookups",
    "hits",
    "lookup_calls",
    "admissions",
    "updates",
    "evictions",
    "rejections",
)


@dataclass(frozen=True)
class Cell:
    """One (index family x encoder x policy) entry of the matrix."""

    name: str
    index_name: str  # linear | c2lsh | vafile | idistance-leaf
    encoder: str  # hc | ihc | mhc | pq
    policy: str = "hff"  # hff | lru

    def expected_kernel(self, requested: str) -> str:
        """The kernel the cache should use for this encoder when
        ``requested`` is forced ("decode" for encoders without bucket
        structure)."""
        if self.encoder == "pq" and requested in ("numpy", "native"):
            return "decode"
        if (
            self.encoder == "mhc"
            and requested == "native"
            and self.index_name != "idistance-leaf"
        ):
            # Bucket-rectangle encoders delegate the packed path to the
            # table-gather kernel, but the selected kernel IS native.
            return "native"
        return requested


#: >= 8 index x cache cells (acceptance criterion).
CELLS = (
    Cell("linear~hc-hff", "linear", "hc"),
    Cell("linear~ihc-hff", "linear", "ihc"),
    Cell("linear~mhc-hff", "linear", "mhc"),
    Cell("linear~pq-hff", "linear", "pq"),
    Cell("linear~hc-lru", "linear", "hc", policy="lru"),
    Cell("c2lsh~hc-hff", "c2lsh", "hc"),
    Cell("c2lsh~ihc-hff", "c2lsh", "ihc"),
    Cell("vafile~hc-hff", "vafile", "hc"),
    Cell("vafile~mhc-hff", "vafile", "mhc"),
    Cell("idistance~leaf-hc", "idistance-leaf", "hc"),
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(SEED)
    centers = rng.uniform(10, 90, size=(3, DIM))
    points = np.rint(
        np.clip(
            np.concatenate(
                [c + rng.normal(scale=8, size=(N_POINTS // 3, DIM)) for c in centers]
            ),
            0,
            100,
        )
    )
    queries = rng.uniform(0, 100, size=(7, DIM))
    frequencies = rng.integers(0, 9, size=len(points)).astype(np.int64)
    return {"points": points, "queries": queries, "frequencies": frequencies}


def _build_encoder(kind: str, points: np.ndarray):
    dom = ValueDomain.from_points(points)
    if kind == "hc":
        return GlobalHistogramEncoder(build_equidepth(dom, 16), DIM)
    if kind == "ihc":
        return IndividualHistogramEncoder(
            [
                build_equiwidth(ValueDomain.from_column(points[:, j]), 8)
                for j in range(DIM)
            ]
        )
    if kind == "mhc":
        return RTreeBucketEncoder(points, tau=5)
    if kind == "pq":
        return PQEncoder(points, n_subspaces=3, bits=4, seed=1)
    raise ValueError(kind)


def _build_cache(cell: Cell, data, cache_bytes: int = CACHE_BYTES):
    points = data["points"]
    encoder = _build_encoder(cell.encoder, points)
    policy = CachePolicy.LRU if cell.policy == "lru" else CachePolicy.HFF
    cache = ApproximateCache(encoder, cache_bytes, len(points), policy)
    if policy is CachePolicy.HFF:
        cache.populate_hff(data["frequencies"], points)
    return cache


def _build_engine(cell: Cell, data):
    """A fresh engine + cache (no state shared between kernel runs)."""
    points = data["points"]
    if cell.index_name == "idistance-leaf":
        index = IDistanceIndex(points, seed=0, value_bytes=4)
        encoder = _build_encoder(cell.encoder, points)
        cache = LeafNodeCache(encoder, CACHE_BYTES)
        freqs = index.leaf_access_frequencies(data["queries"], K)
        cache.populate_by_frequency(freqs, index.leaf_contents)
        return QueryEngine.for_tree(index, cache), cache
    cache = _build_cache(cell, data)
    point_file = PointFile(points, disk=SimulatedDisk(DiskConfig()))
    return QueryEngine.for_index(_build_index(cell, points), point_file, cache), cache


def _build_index(cell: Cell, points: np.ndarray):
    if cell.index_name == "linear":
        return LinearScanIndex(len(points))
    if cell.index_name == "c2lsh":
        return C2LSHIndex(
            points,
            params=C2LSHParams(beta=1.0, n_hashes=16),
            seed=0,
            base_radius=calibrate_base_radius(points, seed=0),
        )
    if cell.index_name == "vafile":
        return VAFileIndex(points, bits=5)
    raise ValueError(cell.index_name)


# ----------------------------------------------------------------------
# Direct bound bit-identity (cache lookup / lookup_batch)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cell", CELLS, ids=lambda c: c.name)
def test_lookup_bounds_bit_identical(cell: Cell, data, force_kernel) -> None:
    if cell.index_name == "idistance-leaf":
        pytest.skip("leaf cache covered by test_leaf_lookup_bit_identical")
    rng = np.random.default_rng(SEED + 1)
    ids = rng.permutation(len(data["points"]))[:60]
    queries = data["queries"]
    baseline = None
    for kernel in KERNELS:
        force_kernel(kernel)
        cache = _build_cache(cell, data)
        hits_b, lb_b, ub_b = cache.lookup_batch(queries, ids)
        hits_s, lb_s, ub_s = cache.lookup(queries[0], ids)
        where = f"{cell.name} kernel={kernel} seed={SEED}"
        # Single-query lookup agrees with row 0 of the batch.
        assert np.array_equal(hits_b, hits_s), where
        assert np.array_equal(lb_b[0], lb_s), where
        assert np.array_equal(ub_b[0], ub_s), where
        if baseline is None:
            baseline = (hits_b, lb_b, ub_b)
        else:
            assert np.array_equal(baseline[0], hits_b), where
            assert np.array_equal(baseline[1], lb_b), f"{where}: lb differs"
            assert np.array_equal(baseline[2], ub_b), f"{where}: ub differs"


def test_leaf_lookup_bit_identical(data, force_kernel) -> None:
    cell = CELLS[-1]
    baseline = None
    for kernel in KERNELS:
        force_kernel(kernel)
        _, cache = _build_engine(cell, data)
        assert cache.num_leaves > 0
        leaf_ids = sorted(cache._entries)
        per_leaf = []
        for leaf in leaf_ids:
            ids, lb, ub = cache.lookup(data["queries"][0], leaf)
            per_leaf.append((ids, lb, ub))
        if baseline is None:
            baseline = per_leaf
        else:
            for (bi, bl, bu), (gi, gl, gu) in zip(baseline, per_leaf):
                assert np.array_equal(bi, gi), kernel
                assert np.array_equal(bl, gl), f"leaf lb differs ({kernel})"
                assert np.array_equal(bu, gu), f"leaf ub differs ({kernel})"


# ----------------------------------------------------------------------
# End-to-end: answers, stats and telemetry are kernel-invariant
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cell", CELLS, ids=lambda c: c.name)
def test_search_results_kernel_invariant(
    cell: Cell, data, force_kernel
) -> None:
    runs = {}
    for kernel in KERNELS:
        force_kernel(kernel)
        engine, cache = _build_engine(cell, data)
        assert cache.kernel_name == cell.expected_kernel(kernel), (
            f"{cell.name}: forced {kernel}, cache used {cache.kernel_name}"
        )
        results = engine.search_many(data["queries"], K)
        telemetry = tuple(
            getattr(cache.telemetry, f) for f in TELEMETRY_FIELDS
        )
        runs[kernel] = (results, telemetry)
    base_results, base_telemetry = runs["decode"]
    for kernel in KERNELS[1:]:
        got_results, got_telemetry = runs[kernel]
        for qi, (b, r) in enumerate(zip(base_results, got_results)):
            where = f"{cell.name} kernel={kernel} query={qi} seed={SEED}"
            assert np.array_equal(b.ids, r.ids), (
                f"{where}: ids {b.ids} != {r.ids}"
            )
            assert np.array_equal(b.distances, r.distances), (
                f"{where}: distances differ"
            )
            assert np.array_equal(b.exact_mask, r.exact_mask), (
                f"{where}: exact_mask differs"
            )
            for name in STAT_FIELDS:
                assert getattr(b.stats, name) == getattr(r.stats, name), (
                    f"{where}: stats.{name} "
                    f"{getattr(b.stats, name)} != {getattr(r.stats, name)}"
                )
        assert base_telemetry == got_telemetry, (
            f"{cell.name} kernel={kernel}: telemetry "
            f"{dict(zip(TELEMETRY_FIELDS, got_telemetry))} != "
            f"{dict(zip(TELEMETRY_FIELDS, base_telemetry))}"
        )


# ----------------------------------------------------------------------
# lookup(..., k): the prune mask, applied in or after the kernel
# ----------------------------------------------------------------------
def _with_prune_mask(lb, ub, k):
    """The reference: Algorithm 1's prune rule on the full bounds."""
    lb, ub = lb.copy(), ub.copy()
    pruned = lb > kth_smallest(ub, k)
    lb[pruned] = ub[pruned] = np.inf
    return lb, ub


def _assert_same_reduction(a, b, where: str) -> None:
    for name in vars(a):
        assert np.array_equal(getattr(a, name), getattr(b, name)), (
            f"{where}: reduction.{name} differs"
        )


def _threshold_cases(cache, ids, query):
    """``(label, ids, k)``: misses mixed in, a tie at ``ub_k``, fewer hits
    than ``k``, and ``k`` at least the number of candidates."""
    hits, _, ub = cache.lookup(query, ids)
    n_hits = int(hits.sum())
    order = np.argsort(ub, kind="stable")
    tied = np.concatenate([ids, ids[order[K - 1 : K]]])
    return (
        ("mixed-k1", ids, 1),
        ("mixed", ids, K),
        ("tie-at-ub_k", tied, K),
        ("tie-at-ub_k-k+1", tied, K + 1),
        ("fewer-hits-than-k", ids, n_hits + 1),
        ("k-above-candidates", ids, len(ids) + 3),
    )


@pytest.mark.parametrize(
    "cell", [c for c in CELLS if c.index_name != "idistance-leaf"],
    ids=lambda c: c.name,
)
def test_lookup_with_k_is_lookup_plus_prune_mask(
    cell: Cell, data, force_kernel
) -> None:
    rng = np.random.default_rng(SEED + 2)
    ids = rng.permutation(len(data["points"]))[:90]
    baseline = {}
    for kernel in KERNELS:
        force_kernel(kernel)
        # A quarter of the default cache, so some candidates miss.
        cache = _build_cache(cell, data, CACHE_BYTES // 4)
        for qi, query in enumerate(data["queries"]):
            for label, cand, k in _threshold_cases(cache, ids, query):
                where = f"{cell.name} kernel={kernel} query={qi} {label}"
                hits, lb, ub = cache.lookup(query, cand)
                got = cache.lookup(query, cand, k)
                assert np.array_equal(hits, got[0]), where
                want = _with_prune_mask(lb, ub, k)
                assert np.array_equal(want[0], got[1]), f"{where}: lb"
                assert np.array_equal(want[1], got[2]), f"{where}: ub"
                _assert_same_reduction(
                    reduce_candidates(cand, hits, lb, ub, k),
                    reduce_candidates(cand, *got, k),
                    where,
                )
                key = (qi, label)
                arrays = b"".join(a.tobytes() for a in got)
                assert baseline.setdefault(key, arrays) == arrays, (
                    f"{where}: bytes differ from {KERNELS[0]}"
                )
        assert not np.all(cache.contains(ids)), cell.name


def test_lookup_with_k_keeps_lru_recency(data, force_kernel) -> None:
    """Dropped rows are still hits: an LRU cache touches the same ids in
    the same order and counts the same telemetry."""
    cell = next(c for c in CELLS if c.policy == "lru")
    points = data["points"]
    admitted = np.random.default_rng(SEED + 3).permutation(len(points))[:50]
    ids = np.arange(len(points))[::2]
    for kernel in KERNELS:
        force_kernel(kernel)
        caches = []
        for k in (None, K):
            cache = _build_cache(cell, data, CACHE_BYTES // 8)
            cache.admit(admitted, points[admitted])
            for query in data["queries"]:
                cache.lookup(query, ids, k)
            caches.append(cache)
        full, pruned = caches
        assert np.array_equal(full._stamp, pruned._stamp), kernel
        assert full._clock == pruned._clock, kernel
        assert full.telemetry == pruned.telemetry, kernel


def test_exact_and_no_cache_lookup_with_k(data) -> None:
    points = data["points"]
    exact = ExactCache(DIM, 100 * DIM * 4, len(points))
    exact.populate_hff(data["frequencies"], points)
    rng = np.random.default_rng(SEED + 4)
    ids = rng.permutation(len(points))[:90]
    for cache in (exact, NoCache()):
        for query in data["queries"]:
            for label, cand, k in _threshold_cases(cache, ids, query):
                where = f"{type(cache).__name__} {label}"
                hits, lb, ub = cache.lookup(query, cand)
                got = cache.lookup(query, cand, k)
                want = _with_prune_mask(lb, ub, k)
                assert np.array_equal(want[0], got[1]), where
                assert np.array_equal(want[1], got[2]), where


@pytest.mark.parametrize(
    "cell", [CELLS[0], CELLS[5]], ids=lambda c: c.name
)
def test_eager_miss_fetch_engine_unchanged_by_k(
    cell: Cell, data, force_kernel
) -> None:
    """Eager miss fetches tighten ``ub_k`` after the kernel pruned
    against the looser one: answers and ``QueryStats`` still equal an
    engine whose probe bounds every candidate."""
    points = data["points"]
    index = _build_index(cell, points)

    def build(full_bounds: bool):
        cache = _build_cache(cell, data, CACHE_BYTES // 4)
        if full_bounds:
            lookup = cache.lookup
            cache.lookup = lambda query, ids, k=None: lookup(query, ids)
        return QueryEngine.for_index(
            index,
            PointFile(points, disk=SimulatedDisk(DiskConfig())),
            cache,
            eager_miss_fetch=True,
        )

    for kernel in KERNELS:
        force_kernel(kernel)
        want = build(True).search_many(data["queries"], K)
        got = build(False).search_many(data["queries"], K)
        for qi, (w, g) in enumerate(zip(want, got)):
            where = f"{cell.name} kernel={kernel} query={qi}"
            assert np.array_equal(w.ids, g.ids), where
            assert np.array_equal(w.distances, g.distances), where
            assert w.stats == g.stats, where


def test_forced_kernel_switches_a_live_cache(data, force_kernel) -> None:
    """A cache holds no kernel: it follows the machine's pick on every
    lookup, and the bounds stay identical."""
    cell = CELLS[0]
    cache = _build_cache(cell, data)
    ids = np.arange(50)
    want = cache.lookup_batch(data["queries"], ids)
    for kernel in KERNELS:
        force_kernel(kernel)
        assert cache.kernel_name == kernel
        got = cache.lookup_batch(data["queries"], ids)
        assert np.array_equal(want[1], got[1]), kernel
        assert np.array_equal(want[2], got[2]), kernel


def test_env_does_not_select_the_kernel(data, monkeypatch) -> None:
    """``REPRO_KERNEL`` is no longer read: the machine's pick stands."""
    monkeypatch.setenv("REPRO_KERNEL", "decode")
    cache = _build_cache(CELLS[0], data)
    assert cache.kernel_name == kernels.auto_kernel().name
    assert cache.kernel_name != "decode"


def test_pickle_round_trip_keeps_bounds(data) -> None:
    """Caches pickle with the default protocol: no kernel to drop."""
    import pickle

    assert "__getstate__" not in vars(ApproximateCache)
    assert "__getstate__" not in vars(LeafNodeCache)
    cache = _build_cache(CELLS[0], data)
    clone = pickle.loads(pickle.dumps(cache))
    assert clone.kernel_name == cache.kernel_name
    ids = np.arange(40)
    want = cache.lookup_batch(data["queries"], ids)
    got = clone.lookup_batch(data["queries"], ids)
    assert np.array_equal(want[0], got[0])
    assert np.array_equal(want[1], got[1])
    assert np.array_equal(want[2], got[2])
