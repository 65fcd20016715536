"""Buffer pool: LRU page semantics and the semantic-vs-page-cache story."""

import numpy as np
import pytest

from repro.core.builders import build_knn_optimal
from repro.core.cache import ApproximateCache, NoCache
from repro.core.domain import ValueDomain
from repro.core.encoder import GlobalHistogramEncoder
from repro.engine import QueryEngine
from repro.index.linear_scan import LinearScanIndex
from repro.storage.bufferpool import BufferedPointFile, BufferPool
from repro.storage.iostats import QueryIOTracker
from repro.storage.pointfile import PointFile


class TestBufferPool:
    def test_lru_semantics(self):
        pool = BufferPool(2 * 4096)
        assert not pool.access(1)
        assert not pool.access(2)
        assert pool.access(1)       # hit, promotes 1
        assert not pool.access(3)   # evicts 2
        assert not pool.access(2)
        assert pool.stats().hits == 1
        assert pool.used_bytes == 2 * 4096

    def test_zero_capacity_never_hits(self):
        pool = BufferPool(0)
        assert not pool.access(1)
        assert not pool.access(1)
        assert pool.stats().hit_ratio == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BufferPool(-1)
        with pytest.raises(ValueError):
            BufferPool(4096, page_size=0)


class TestBufferedPointFile:
    @pytest.fixture()
    def world(self):
        rng = np.random.default_rng(41)
        points = np.rint(rng.uniform(0, 255, size=(256, 128)))  # 512 B/point
        return points

    def test_repeated_fetches_become_free(self, world):
        pf = PointFile(world, value_bytes=4)
        buffered = BufferedPointFile(pf, BufferPool(1 << 16))
        t1 = QueryIOTracker()
        buffered.fetch(np.arange(32), t1)
        t2 = QueryIOTracker()
        buffered.fetch(np.arange(32), t2)
        assert t1.page_reads > 0
        assert t2.page_reads == 0  # all resident now

    def test_page_size_mismatch_rejected(self, world):
        pf = PointFile(world, value_bytes=4)
        with pytest.raises(ValueError):
            BufferedPointFile(pf, BufferPool(1 << 16, page_size=8192))

    def test_search_pipeline_accepts_buffered_file(self, world):
        pf = BufferedPointFile(PointFile(world, value_bytes=4), BufferPool(1 << 16))
        searcher = QueryEngine.for_index(LinearScanIndex(len(world)), pf, NoCache())
        q = world[3] + 0.2
        first = searcher.search(q, 5)
        second = searcher.search(q, 5)
        assert set(first.ids.tolist()) == set(second.ids.tolist())
        assert second.stats.refine_page_reads <= first.stats.refine_page_reads

    def test_semantic_cache_beats_page_cache_per_byte(self, world):
        """Same RAM budget: the paper's tau-bit cache covers more queries
        than a raw page cache (the quantitative reason the paper builds a
        semantic cache instead of re-enabling the OS cache)."""
        budget = 16 * 512  # room for 16 raw points' worth of pages
        # Page-cache configuration.
        page_pf = BufferedPointFile(
            PointFile(world, value_bytes=4), BufferPool(budget)
        )
        page_search = QueryEngine.for_index(
            LinearScanIndex(len(world)), page_pf, NoCache()
        )
        # Semantic (HC-O) configuration under the same budget.
        dom = ValueDomain.from_points(world)
        enc = GlobalHistogramEncoder(
            build_knn_optimal(dom, dom.counts.astype(float), 64), world.shape[1]
        )
        sem_cache = ApproximateCache(enc, budget, len(world))
        sem_cache.populate(np.arange(sem_cache.max_items), world[: sem_cache.max_items])
        sem_search = QueryEngine.for_index(
            LinearScanIndex(len(world)), PointFile(world, value_bytes=4), sem_cache
        )
        rng = np.random.default_rng(3)
        queries = world[rng.choice(len(world), 12, replace=False)] + 0.3
        page_io = sum(
            page_search.search(q, 5).stats.refine_page_reads for q in queries
        )
        sem_io = sum(
            sem_search.search(q, 5).stats.refine_page_reads for q in queries
        )
        assert sem_cache.max_items > 16  # covers more points than the pool
        assert sem_io < page_io
