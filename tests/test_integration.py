"""Cross-module integration: the paper's worked examples and full flows."""

import numpy as np
import pytest

from repro.core.bounds import rectangle_bounds
from repro.core.builders import build_knn_optimal
from repro.core.cache import ApproximateCache
from repro.core.domain import ValueDomain
from repro.core.encoder import GlobalHistogramEncoder
from repro.core.histogram import Histogram
from repro.core.multistep import multistep_knn
from repro.core.reduction import reduce_candidates
from repro.engine import QueryEngine
from repro.data.datasets import Dataset
from repro.data.workload import generate_query_log
from repro.eval.methods import WorkloadContext
from repro.index.linear_scan import LinearScanIndex
from repro.spec import CacheSection, PipelineSpec
from repro.storage.pointfile import PointFile
from tests.conftest import assert_valid_knn


class TestPaperSection3Example:
    """The running example of Figure 5 / Table 1 (d=2, tau=2, k=1)."""

    POINTS = np.array(
        [[2, 20], [10, 16], [19, 30], [26, 4], [11, 18], [3, 24], [0, 0]],
        dtype=float,
    )  # p1..p6 at ids 0..5 (plus a filler id 6), q=(9,11)
    QUERY = np.array([9.0, 11.0])

    def _histogram(self):
        # The example's equi-width histogram: [0..7], [8..15], [16..23], [24..31].
        return Histogram(
            lowers=np.array([0.0, 8.0, 16.0, 24.0]),
            uppers=np.array([7.0, 15.0, 23.0, 31.0]),
        )

    def test_figure5_codes(self):
        hist = self._histogram()
        enc = GlobalHistogramEncoder(hist, 2)
        codes = enc.encode(self.POINTS[:4])
        assert codes.tolist() == [[0, 2], [1, 2], [2, 3], [3, 0]]

    def test_table1_bounds(self):
        hist = self._histogram()
        enc = GlobalHistogramEncoder(hist, 2)
        codes = enc.encode(self.POINTS[:4])
        lo, hi = enc.rectangles(codes)
        lb, ub = rectangle_bounds(self.QUERY, lo, hi)
        assert lb[0] == pytest.approx(5.39, abs=0.01)
        assert ub[0] == pytest.approx(15.0, abs=0.01)
        assert lb[1] == pytest.approx(5.00, abs=0.01)
        assert ub[1] == pytest.approx(13.42, abs=0.01)
        assert lb[2] == pytest.approx(14.76, abs=0.01)
        assert lb[3] == pytest.approx(15.52, abs=0.01)

    def test_example_prunes_p3_p4(self):
        hist = self._histogram()
        enc = GlobalHistogramEncoder(hist, 2)
        ids = np.array([0, 1, 2, 3])
        codes = enc.encode(self.POINTS[ids])
        lo, hi = enc.rectangles(codes)
        lb, ub = rectangle_bounds(self.QUERY, lo, hi)
        out = reduce_candidates(ids, np.ones(4, bool), lb, ub, k=1)
        assert sorted(out.pruned_ids.tolist()) == [2, 3]
        assert sorted(out.remaining_ids.tolist()) == [0, 1]

    def test_example_total_disk_accesses(self):
        """The paper counts at most 4 accesses: p5, p6 (misses) + p1, p2."""
        points = self.POINTS
        pf = PointFile(points, value_bytes=1024)  # 1 point per page
        hist = self._histogram()
        enc = GlobalHistogramEncoder(hist, 2)
        cache = ApproximateCache(enc, 1 << 10, len(points))
        cache.populate(np.array([0, 1, 2, 3]), points[:4])  # p1..p4 cached
        index = LinearScanIndex(6)  # C(q) = p1..p6
        searcher = QueryEngine.for_index(index, pf, cache)
        res = searcher.search(self.QUERY, 1)
        assert res.stats.refined_fetches <= 4
        assert res.ids.tolist() == [1]  # p2 = (10, 16), dist 5.10


class TestFigure6Histograms:
    """Figure 6: 1-d data {3,4,10,12,22,24,30,31}, q=17, k=2, B=4."""

    DATA = np.array([3.0, 4.0, 10.0, 12.0, 22.0, 24.0, 30.0, 31.0])

    def test_optimal_histogram_yields_zero_refinement(self):
        dom = ValueDomain.from_column(self.DATA)
        fprime = np.zeros(dom.size)
        fprime[dom.index_of([12.0, 22.0])] = 1  # the 2NN of q=17
        hist = build_knn_optimal(dom, fprime, 4)
        enc = GlobalHistogramEncoder(hist, 1)
        pts = self.DATA.reshape(-1, 1)
        codes = enc.encode(pts)
        lo, hi = enc.rectangles(codes)
        lb, ub = rectangle_bounds(np.array([17.0]), lo, hi)
        out = reduce_candidates(
            np.arange(8), np.ones(8, bool), lb, ub, k=2
        )
        # The paper's ideal outcome: zero remaining candidates.
        assert out.c_refine == 0
        assert set(out.confirmed_ids.tolist()) == {3, 4}  # 12 and 22


class TestFullPipelineOnFreshData:
    def test_end_to_end_lsh_cache_refinement(self):
        rng = np.random.default_rng(77)
        centers = rng.uniform(0, 250, size=(5, 20))
        pts = np.rint(
            np.clip(
                np.concatenate(
                    [c + rng.normal(scale=8, size=(160, 20)) for c in centers]
                ),
                0,
                255,
            )
        )
        log = generate_query_log(pts, pool_size=60, workload_size=500, test_size=15, seed=1)
        ds = Dataset(name="fresh", points=pts, value_bits=8, query_log=log)
        ctx = WorkloadContext.prepare(ds, index_name="c2lsh", k=8, seed=2)
        pipeline = PipelineSpec(
            cache=CacheSection(method="HC-O", tau=6, cache_bytes=60_000),
            k=8,
        ).build(dataset=ds, context=ctx)
        baseline = PipelineSpec(
            cache=CacheSection(method="NO-CACHE"),
            k=8,
        ).build(dataset=ds, context=ctx)
        saved, spent = 0, 0
        for q in log.test:
            res = pipeline.search(q, 8)
            ref = baseline.search(q, 8)
            assert set(res.ids.tolist()) == set(ref.ids.tolist())
            saved += ref.stats.refine_page_reads
            spent += res.stats.refine_page_reads
        assert spent < saved  # the cache must save refinement I/O overall

    def test_multistep_and_reduction_compose(self):
        """Manually drive phases 2+3 and compare against brute force."""
        rng = np.random.default_rng(3)
        pts = np.rint(rng.uniform(0, 127, size=(250, 10)))
        dom = ValueDomain.from_points(pts)
        fprime = dom.counts.astype(float)
        enc = GlobalHistogramEncoder(build_knn_optimal(dom, fprime, 16), 10)
        pf = PointFile(pts)
        q = pts[11] + 0.5
        ids = np.arange(250)
        codes = enc.encode(pts)
        lo, hi = enc.rectangles(codes)
        lb, ub = rectangle_bounds(q, lo, hi)
        out = reduce_candidates(ids, np.ones(250, bool), lb, ub, 6)
        res = multistep_knn(
            q, out.remaining_ids, out.remaining_lb, 6, pf.fetch,
            out.confirmed_ids, out.confirmed_ub,
        )
        assert_valid_knn(pts, q, 6, res.ids)
