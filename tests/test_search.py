"""Algorithm 1 end-to-end: cached search preserves the index's answers."""

import numpy as np
import pytest

from repro.core.builders import build_equidepth, build_knn_optimal
from repro.core.cache import ApproximateCache, CachePolicy, ExactCache, NoCache
from repro.core.domain import ValueDomain
from repro.core.encoder import GlobalHistogramEncoder
from repro.engine import QueryEngine
from repro.index.linear_scan import LinearScanIndex
from repro.storage.pointfile import PointFile
from tests.conftest import assert_valid_knn


@pytest.fixture(scope="module")
def world(micro_points):
    pf = PointFile(micro_points)
    index = LinearScanIndex(len(micro_points))
    dom = ValueDomain.from_points(micro_points)
    encoder = GlobalHistogramEncoder(build_equidepth(dom, 16), micro_points.shape[1])
    return micro_points, pf, index, encoder


class TestResultQuality:
    @pytest.mark.parametrize("k", [1, 5, 13])
    def test_nocache_matches_bruteforce(self, world, k):
        points, pf, index, _ = world
        searcher = QueryEngine.for_index(index, pf, NoCache())
        for q in points[::80]:
            res = searcher.search(q + 0.5, k)
            assert_valid_knn(points, q + 0.5, k, res.ids)

    @pytest.mark.parametrize("k", [1, 5, 13])
    def test_approximate_cache_preserves_results(self, world, k):
        points, pf, index, encoder = world
        cache = ApproximateCache(encoder, 1 << 13, len(points))
        cache.populate(np.arange(len(points)), points)
        searcher = QueryEngine.for_index(index, pf, cache)
        for q in points[::80]:
            res = searcher.search(q + 0.5, k)
            assert_valid_knn(points, q + 0.5, k, res.ids)

    def test_exact_cache_preserves_results(self, world):
        points, pf, index, _ = world
        cache = ExactCache(points.shape[1], 1 << 12, len(points))
        cache.populate(np.arange(len(points)), points)
        searcher = QueryEngine.for_index(index, pf, cache)
        for q in points[::60]:
            res = searcher.search(q, 7)
            assert_valid_knn(points, q, 7, res.ids)

    def test_partial_cache_preserves_results(self, world):
        points, pf, index, encoder = world
        cache = ApproximateCache(encoder, 600, len(points))  # tiny cache
        cache.populate(np.arange(cache.max_items), points[: cache.max_items])
        searcher = QueryEngine.for_index(index, pf, cache)
        for q in points[::60]:
            res = searcher.search(q + 1.0, 5)
            assert_valid_knn(points, q + 1.0, 5, res.ids)

    def test_knn_optimal_histogram_cache(self, world):
        points, pf, index, _ = world
        dom = ValueDomain.from_points(points)
        fprime = dom.counts.astype(float)
        encoder = GlobalHistogramEncoder(
            build_knn_optimal(dom, fprime, 32), points.shape[1]
        )
        cache = ApproximateCache(encoder, 1 << 13, len(points))
        cache.populate(np.arange(len(points)), points)
        searcher = QueryEngine.for_index(index, pf, cache)
        for q in points[::60]:
            res = searcher.search(q, 9)
            assert_valid_knn(points, q, 9, res.ids)


class TestAccounting:
    def test_cache_reduces_io(self, world):
        points, _, index, encoder = world
        pf_a = PointFile(points)
        pf_b = PointFile(points)
        cache = ApproximateCache(encoder, 1 << 13, len(points))
        cache.populate(np.arange(len(points)), points)
        uncached = QueryEngine.for_index(index, pf_a, NoCache())
        cached = QueryEngine.for_index(index, pf_b, cache)
        q = points[5] + 0.5
        r_u = uncached.search(q, 5)
        r_c = cached.search(q, 5)
        assert r_c.stats.refine_page_reads < r_u.stats.refine_page_reads
        assert r_c.stats.hit_ratio == 1.0
        assert r_u.stats.hit_ratio == 0.0

    def test_stats_consistency(self, world):
        points, pf, index, encoder = world
        cache = ApproximateCache(encoder, 1 << 12, len(points))
        cache.populate(np.arange(cache.max_items), points[: cache.max_items])
        searcher = QueryEngine.for_index(index, pf, cache)
        res = searcher.search(points[0], 5)
        s = res.stats
        assert s.num_candidates == len(points)
        assert s.pruned + s.confirmed + s.c_refine == s.num_candidates
        assert 0 <= s.hit_ratio <= 1
        assert 0 <= s.prune_ratio <= 1
        assert s.refined_fetches <= s.c_refine

    def test_lru_cache_learns_from_fetches(self, world):
        points, _, index, encoder = world
        pf = PointFile(points)
        cache = ApproximateCache(
            encoder, 1 << 13, len(points), policy=CachePolicy.LRU
        )
        searcher = QueryEngine.for_index(index, pf, cache)
        q = points[2]
        first = searcher.search(q, 5)
        assert first.stats.cache_hits == 0
        second = searcher.search(q, 5)
        assert second.stats.cache_hits > 0
        assert second.stats.refine_page_reads <= first.stats.refine_page_reads

    def test_rejects_bad_k(self, world):
        points, pf, index, _ = world
        with pytest.raises(ValueError):
            QueryEngine.for_index(index, pf, NoCache()).search(points[0], 0)


class TestEagerMissFetch:
    """Footnote 6: eager miss fetching preserves exactness and never
    pays for a page twice."""

    def test_exactness(self, world):
        points, _, index, encoder = world
        pf = PointFile(points)
        cache = ApproximateCache(encoder, 2000, len(points))
        cache.populate(np.arange(cache.max_items), points[: cache.max_items])
        searcher = QueryEngine.for_index(index, pf, cache, eager_miss_fetch=True)
        for q in points[::60]:
            res = searcher.search(q + 0.5, 7)
            assert_valid_knn(points, q + 0.5, 7, res.ids)

    def test_no_double_charged_pages(self, world):
        points, _, index, encoder = world
        pf_lazy, pf_eager = PointFile(points), PointFile(points)
        cache = ApproximateCache(encoder, 2000, len(points))
        cache.populate(np.arange(cache.max_items), points[: cache.max_items])
        lazy = QueryEngine.for_index(index, pf_lazy, cache)
        eager = QueryEngine.for_index(index, pf_eager, cache, eager_miss_fetch=True)
        q = points[4] + 0.3
        a = lazy.search(q, 5)
        b = eager.search(q, 5)
        # Eager can only shift when pages are read, not inflate them much:
        # every miss is read exactly once either way; extra reads can only
        # come from pruned-by-tighter-bounds differences.
        assert b.stats.refine_page_reads <= a.stats.refine_page_reads + len(points)
        assert set(b.ids.tolist()) <= {
            int(i) for i in np.argsort(np.linalg.norm(points - q, axis=1))[:10]
        }

    def test_full_cache_means_no_eager_fetch(self, world):
        points, _, index, encoder = world
        pf = PointFile(points)
        cache = ApproximateCache(encoder, 1 << 13, len(points))
        cache.populate(np.arange(len(points)), points)
        searcher = QueryEngine.for_index(index, pf, cache, eager_miss_fetch=True)
        res = searcher.search(points[0], 5)
        assert res.stats.hit_ratio == 1.0
