"""Property tests of the full pipeline over randomized worlds.

The load-bearing invariant of the whole paper: adding *any* cache (any
histogram, any tau, any capacity) never changes the result of a kNN
search — it only changes how much I/O is spent.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builders import (
    build_equidepth,
    build_equiwidth,
    build_knn_optimal,
)
from repro.core.cache import ApproximateCache, CachePolicy, ExactCache
from repro.core.domain import ValueDomain
from repro.core.encoder import GlobalHistogramEncoder
from repro.engine import QueryEngine
from repro.index.linear_scan import LinearScanIndex
from repro.storage.pointfile import PointFile
from tests.conftest import assert_valid_knn


@st.composite
def worlds(draw):
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(30, 180))
    d = draw(st.integers(2, 12))
    k = draw(st.integers(1, 8))
    tau = draw(st.integers(1, 6))
    builder = draw(st.sampled_from(["equiwidth", "equidepth", "knn-optimal"]))
    capacity_frac = draw(st.floats(0.0, 1.5))
    policy = draw(st.sampled_from([CachePolicy.HFF, CachePolicy.LRU]))
    return seed, n, d, k, tau, builder, capacity_frac, policy


@given(worlds())
@settings(max_examples=40, deadline=None)
def test_property_any_cache_preserves_results(world):
    seed, n, d, k, tau, builder, capacity_frac, policy = world
    rng = np.random.default_rng(seed)
    points = np.rint(rng.uniform(0, 255, size=(n, d)))
    domain = ValueDomain.from_points(points)
    if builder == "equiwidth":
        hist = build_equiwidth(domain, 2**tau)
    elif builder == "equidepth":
        hist = build_equidepth(domain, 2**tau)
    else:
        fprime = rng.integers(0, 5, size=domain.size).astype(float)
        hist = build_knn_optimal(domain, fprime, 2**tau)
    encoder = GlobalHistogramEncoder(hist, d)
    capacity = int(capacity_frac * n * 64)
    cache = ApproximateCache(encoder, capacity, n, policy=policy)
    if policy is CachePolicy.HFF:
        cache.populate(np.arange(n), points)
    searcher = QueryEngine.for_index(LinearScanIndex(n), PointFile(points), cache)
    for qi in rng.choice(n, size=3, replace=False):
        query = points[qi] + rng.normal(scale=0.3, size=d)
        result = searcher.search(query, k)
        assert_valid_knn(points, query, k, result.ids)
        s = result.stats
        assert s.pruned + s.confirmed + s.c_refine == s.num_candidates
        assert s.refined_fetches <= s.c_refine


@given(st.integers(0, 2**16), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_property_exact_cache_is_never_worse_than_no_cache(seed, k):
    rng = np.random.default_rng(seed)
    points = np.rint(rng.uniform(0, 127, size=(120, 6)))
    cache = ExactCache(6, 1 << 16, len(points))
    cache.populate(np.arange(len(points)), points)
    cached = QueryEngine.for_index(
        LinearScanIndex(len(points)), PointFile(points), cache
    )
    from repro.core.cache import NoCache

    plain = QueryEngine.for_index(
        LinearScanIndex(len(points)), PointFile(points), NoCache()
    )
    query = points[0] + 0.5
    r_cached = cached.search(query, k)
    r_plain = plain.search(query, k)
    assert r_cached.stats.refine_page_reads <= r_plain.stats.refine_page_reads
    assert set(r_cached.ids.tolist()) == set(r_plain.ids.tolist()) or (
        # distance ties may legitimately swap equal-distance members
        np.isclose(
            sorted(np.linalg.norm(points[r_cached.ids] - query, axis=1))[-1],
            sorted(np.linalg.norm(points[r_plain.ids] - query, axis=1))[-1],
        )
    )
