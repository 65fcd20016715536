"""M-tree index, SK-LSH index, and the query-result-cache baseline."""

import numpy as np
import pytest

from repro.core.builders import build_equidepth
from repro.core.cache import ApproximateCache, LeafNodeCache, NoCache
from repro.core.domain import ValueDomain
from repro.core.encoder import GlobalHistogramEncoder
from repro.core.resultcache import ResultCache, ResultCachedSearch
from repro.engine import QueryEngine
from repro.index.linear_scan import LinearScanIndex, exact_knn
from repro.index.mtree import MTreeIndex
from repro.lsh.sklsh import SKLSHIndex
from repro.storage.iostats import QueryIOTracker
from repro.storage.pointfile import PointFile
from tests.conftest import assert_valid_knn


class TestMTree:
    @pytest.fixture(scope="class")
    def index(self, micro_points):
        return MTreeIndex(micro_points, seed=0)

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_exactness(self, index, micro_points, k):
        for q in micro_points[::70]:
            res = index.search(q + 0.3, k, tracker=QueryIOTracker())
            assert_valid_knn(micro_points, q + 0.3, k, res.ids)

    def test_leaf_stream_monotone(self, index, micro_points):
        bounds = [b for b, _ in index.leaf_stream(micro_points[4])]
        assert all(a <= b + 1e-12 for a, b in zip(bounds, bounds[1:]))

    def test_covering_radii_valid(self, index, micro_points):
        """Every leaf member lies within its routing ball."""
        def walk(node):
            if node.is_leaf:
                ids, pts = index.leaf_contents(node.leaf_id)
                d = np.linalg.norm(pts - node.pivot, axis=1)
                assert np.all(d <= node.radius + 1e-9)
                return
            for child in node.children:
                walk(child)
        walk(index.root)

    def test_leaves_partition_points(self, index, micro_points):
        all_ids = np.concatenate(
            [index.leaf_contents(i)[0] for i in range(index.num_leaves)]
        )
        assert sorted(all_ids.tolist()) == list(range(len(micro_points)))

    def test_leaf_caching_reduces_io(self, index, micro_points, micro_dataset):
        dom = ValueDomain.from_points(micro_points)
        enc = GlobalHistogramEncoder(build_equidepth(dom, 16), micro_points.shape[1])
        cache = LeafNodeCache(enc, 1 << 13)
        freqs = index.leaf_access_frequencies(
            micro_dataset.query_log.workload[:40], 5
        )
        cache.populate_by_frequency(freqs, index.leaf_contents)
        total_cached, total_plain = 0, 0
        for q in micro_dataset.query_log.test:
            t1, t2 = QueryIOTracker(), QueryIOTracker()
            r = index.search(q, 5, cache=cache, tracker=t1)
            index.search(q, 5, cache=None, tracker=t2)
            assert_valid_knn(micro_points, q, 5, r.ids)
            total_cached += t1.page_reads
            total_plain += t2.page_reads
        assert total_cached <= total_plain


class TestSKLSH:
    @pytest.fixture(scope="class")
    def index(self, micro_points):
        return SKLSHIndex(micro_points, n_orders=4, probe_width=80, seed=1)

    def test_recall_reasonable(self, index, micro_points):
        hit, total = 0, 0
        for qi in range(0, len(micro_points), 40):
            q = micro_points[qi] + 0.05
            cands = set(index.candidates(q, 5).tolist())
            truth, _ = exact_knn(micro_points, q, 5)
            hit += len(set(truth.tolist()) & cands)
            total += 5
        assert hit / total >= 0.6  # LSH-quality recall, not exact

    def test_probe_reads_contiguous_pages(self, index, micro_points):
        t = QueryIOTracker()
        index.candidates(micro_points[0], 5, t)
        # 4 orders x 80 ids at 512 ids/page: at most 2 pages per order.
        assert 1 <= t.page_reads <= 8

    def test_candidate_count_bounded(self, index, micro_points):
        cands = index.candidates(micro_points[3], 5)
        assert len(cands) <= 4 * 80

    def test_validation(self, micro_points):
        with pytest.raises(ValueError):
            SKLSHIndex(micro_points, n_orders=0)
        idx = SKLSHIndex(micro_points, seed=0)
        with pytest.raises(ValueError):
            idx.candidates(micro_points[0], 0)


class TestResultCache:
    @pytest.fixture()
    def searcher(self, micro_points):
        return QueryEngine.for_index(
            LinearScanIndex(len(micro_points)), PointFile(micro_points), NoCache()
        )

    def test_repeat_query_is_free(self, searcher, micro_points):
        cache = ResultCache(1 << 16, micro_points.shape[1])
        wrapped = ResultCachedSearch(searcher, cache)
        q = micro_points[5]
        first = wrapped.search(q, 4)
        assert first.stats.refine_page_reads > 0
        second = wrapped.search(q, 4)
        assert second.stats.refine_page_reads == 0
        assert np.array_equal(second.ids, first.ids)
        assert cache.stats().hits == 1

    def test_different_k_misses(self, searcher, micro_points):
        cache = ResultCache(1 << 16, micro_points.shape[1])
        wrapped = ResultCachedSearch(searcher, cache)
        q = micro_points[5]
        wrapped.search(q, 4)
        wrapped.search(q, 5)
        assert cache.stats().hits == 0

    def test_lru_eviction_under_budget(self, searcher, micro_points):
        d = micro_points.shape[1]
        entry_cost = 8 * (d + 2 * 3) + 16
        cache = ResultCache(entry_cost * 2, d)
        wrapped = ResultCachedSearch(searcher, cache)
        for qi in (0, 1, 2):
            wrapped.search(micro_points[qi], 3)
        assert cache.num_entries == 2
        # Oldest (query 0) was evicted.
        assert cache.get(micro_points[0], 3) is None
        assert cache.get(micro_points[2], 3) is not None

    def test_oversized_entry_rejected(self, searcher, micro_points):
        cache = ResultCache(8, micro_points.shape[1])
        wrapped = ResultCachedSearch(searcher, cache)
        wrapped.search(micro_points[0], 3)
        assert cache.num_entries == 0

    def test_point_cache_generalizes_result_cache_does_not(self, micro_points):
        """Near-duplicate (but not identical) queries: the point cache
        still saves I/O, the result cache saves nothing."""
        dom = ValueDomain.from_points(micro_points)
        enc = GlobalHistogramEncoder(build_equidepth(dom, 32), micro_points.shape[1])
        point_cache = ApproximateCache(enc, 1 << 14, len(micro_points))
        point_cache.populate(np.arange(len(micro_points)), micro_points)
        base_pc = QueryEngine.for_index(
            LinearScanIndex(len(micro_points)), PointFile(micro_points), point_cache
        )
        base_rc = QueryEngine.for_index(
            LinearScanIndex(len(micro_points)), PointFile(micro_points), NoCache()
        )
        rc = ResultCachedSearch(base_rc, ResultCache(1 << 16, micro_points.shape[1]))
        q1 = micro_points[9]
        q2 = micro_points[9] + 0.5  # near-duplicate, different key
        rc.search(q1, 4)
        miss = rc.search(q2, 4)
        hit_pc = base_pc.search(q2, 4)
        assert miss.stats.refine_page_reads > hit_pc.stats.refine_page_reads
