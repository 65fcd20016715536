"""Extensions: cached kNN join, range search, DBSCAN."""

import numpy as np
import pytest

from repro.core.builders import build_equidepth
from repro.core.cache import ApproximateCache, ExactCache, NoCache
from repro.core.domain import ValueDomain
from repro.core.encoder import GlobalHistogramEncoder
from repro.engine import QueryEngine
from repro.extensions.clustering import dbscan
from repro.extensions.join import knn_join, knn_self_join
from repro.extensions.ranges import range_search
from repro.index.linear_scan import LinearScanIndex
from repro.storage.pointfile import PointFile
from tests.conftest import assert_valid_knn


@pytest.fixture(scope="module")
def world(micro_points):
    pf = PointFile(micro_points)
    index = LinearScanIndex(len(micro_points))
    dom = ValueDomain.from_points(micro_points)
    encoder = GlobalHistogramEncoder(build_equidepth(dom, 32), micro_points.shape[1])
    cache = ApproximateCache(encoder, 1 << 14, len(micro_points))
    cache.populate(np.arange(len(micro_points)), micro_points)
    return micro_points, pf, index, cache


class TestKnnJoin:
    def test_join_matches_bruteforce(self, world):
        points, pf, index, cache = world
        searcher = QueryEngine.for_index(index, pf, cache)
        queries = points[:12] + 0.25
        result = knn_join(queries, searcher, k=4)
        assert result.ids.shape == (12, 4)
        for q, row in zip(queries, result.ids):
            assert_valid_knn(points, q, 4, row.tolist())

    def test_cache_reduces_join_io(self, world):
        points, _, index, cache = world
        queries = points[:30] + 0.25
        cached = knn_join(queries, QueryEngine.for_index(index, PointFile(points), cache), 4)
        plain = knn_join(queries, QueryEngine.for_index(index, PointFile(points), NoCache()), 4)
        assert np.array_equal(
            np.sort(cached.ids, axis=1), np.sort(plain.ids, axis=1)
        )
        assert cached.total_page_reads < plain.total_page_reads
        assert cached.avg_page_reads < plain.avg_page_reads

    def test_self_join_excludes_self(self, world):
        points, pf, index, cache = world
        searcher = QueryEngine.for_index(index, pf, cache)
        result = knn_self_join(searcher, k=3)
        for i, row in enumerate(result.ids[:40]):
            assert i not in row.tolist()
            assert len([x for x in row if x >= 0]) == 3

    def test_self_join_including_self(self, world):
        points, pf, index, cache = world
        searcher = QueryEngine.for_index(index, pf, cache)
        result = knn_self_join(searcher, k=3, exclude_self=False)
        # Each point is its own nearest neighbor (distance 0)...
        # unless it has an exact duplicate; membership is the invariant.
        for i in range(20):
            d = np.linalg.norm(points - points[i], axis=1)
            kth = np.sort(d)[2]
            assert np.all(d[result.ids[i]] <= kth + 1e-9)

    def test_invalid_k(self, world):
        points, pf, index, cache = world
        with pytest.raises(ValueError):
            knn_join(points[:2], QueryEngine.for_index(index, pf, cache), 0)


class TestRangeSearch:
    def test_matches_bruteforce(self, world):
        points, pf, index, cache = world
        all_ids = np.arange(len(points))
        for qi in (0, 57, 200):
            q = points[qi] + 0.4
            for eps in (5.0, 25.0, 80.0):
                result = range_search(q, eps, all_ids, cache, pf)
                d = np.linalg.norm(points - q, axis=1)
                truth = np.flatnonzero(d <= eps)
                assert np.array_equal(result.ids, truth)

    def test_exact_cache_never_fetches(self, world):
        points, pf, index, _ = world
        cache = ExactCache(points.shape[1], 1 << 20, len(points))
        cache.populate(np.arange(len(points)), points)
        result = range_search(points[0], 30.0, np.arange(len(points)), cache, pf)
        assert result.fetched == 0
        assert result.page_reads == 0

    def test_no_cache_fetches_everything(self, world):
        points, pf, _, _ = world
        result = range_search(
            points[0], 30.0, np.arange(len(points)), NoCache(), pf
        )
        assert result.fetched == len(points)
        assert result.confirmed_without_io == 0

    def test_counts_add_up(self, world):
        points, pf, _, cache = world
        result = range_search(points[3], 40.0, np.arange(100), cache, pf)
        assert (
            result.confirmed_without_io + result.pruned_without_io + result.fetched
            == 100
        )

    def test_empty_candidates(self, world):
        points, pf, _, cache = world
        result = range_search(points[0], 10.0, np.empty(0, dtype=int), cache, pf)
        assert result.ids.size == 0

    def test_negative_eps(self, world):
        points, pf, _, cache = world
        with pytest.raises(ValueError):
            range_search(points[0], -1.0, np.arange(3), cache, pf)


class TestDBSCAN:
    @pytest.fixture(scope="class")
    def blobs(self):
        rng = np.random.default_rng(42)
        a = rng.normal((0, 0), 1.0, size=(60, 2))
        b = rng.normal((25, 25), 1.0, size=(60, 2))
        noise = rng.uniform(-10, 40, size=(5, 2))
        pts = np.concatenate([a, b, noise])
        return np.round(pts, 2)

    def _cache(self, pts, approximate=True):
        if not approximate:
            cache = ExactCache(pts.shape[1], 1 << 20, len(pts))
            cache.populate(np.arange(len(pts)), pts)
            return cache
        dom = ValueDomain.from_points(pts)
        enc = GlobalHistogramEncoder(build_equidepth(dom, 64), pts.shape[1])
        cache = ApproximateCache(enc, 1 << 16, len(pts))
        cache.populate(np.arange(len(pts)), pts)
        return cache

    def test_recovers_two_blobs(self, blobs):
        pf = PointFile(blobs)
        result = dbscan(blobs, eps=3.0, min_pts=5, cache=self._cache(blobs), point_file=pf)
        assert result.n_clusters == 2
        # The two blobs land in different clusters.
        assert len(set(result.labels[:60].tolist())) == 1
        assert len(set(result.labels[60:120].tolist())) == 1
        assert result.labels[0] != result.labels[60]

    def test_matches_uncached_clustering(self, blobs):
        pf1, pf2 = PointFile(blobs), PointFile(blobs)
        cached = dbscan(blobs, 3.0, 5, self._cache(blobs), pf1)
        plain = dbscan(blobs, 3.0, 5, NoCache(), pf2)
        assert np.array_equal(cached.labels, plain.labels)
        assert cached.page_reads <= plain.page_reads
        assert cached.decided_without_io > 0

    def test_all_noise_when_eps_tiny(self, blobs):
        pf = PointFile(blobs)
        result = dbscan(blobs, eps=1e-6, min_pts=5, cache=self._cache(blobs), point_file=pf)
        assert result.n_clusters == 0
        assert np.all(result.labels == -1)

    def test_single_cluster_when_eps_huge(self, blobs):
        pf = PointFile(blobs)
        result = dbscan(blobs, eps=1e6, min_pts=2, cache=self._cache(blobs), point_file=pf)
        assert result.n_clusters == 1
        assert np.all(result.labels == 0)

    def test_invalid_min_pts(self, blobs):
        with pytest.raises(ValueError):
            dbscan(blobs, 1.0, 0, NoCache(), PointFile(blobs))
