"""Bound-giving product quantization."""

import numpy as np
import pytest

from repro.core.bounds import rectangle_bounds
from repro.core.cache import ApproximateCache
from repro.core.pq import PQEncoder
from repro.engine import QueryEngine
from repro.index.linear_scan import LinearScanIndex
from repro.storage.pointfile import PointFile
from tests.conftest import assert_valid_knn


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(23)
    centers = rng.uniform(0, 200, size=(5, 12))
    return np.rint(
        np.concatenate([c + rng.normal(scale=6, size=(120, 12)) for c in centers])
    )


class TestPQEncoder:
    def test_geometry(self, points):
        enc = PQEncoder(points, n_subspaces=4, bits=5)
        assert enc.n_fields == 4
        assert enc.bits == 5
        assert enc.bits_per_point == 20  # far below d * tau

    def test_training_points_contained(self, points):
        enc = PQEncoder(points, n_subspaces=4, bits=5)
        codes = enc.encode(points)
        lo, hi = enc.rectangles(codes)
        assert np.all(lo <= points + 1e-9)
        assert np.all(points <= hi + 1e-9)

    def test_bounds_sandwich_distances(self, points):
        enc = PQEncoder(points, n_subspaces=3, bits=4)
        codes = enc.encode(points)
        lo, hi = enc.rectangles(codes)
        q = points[0] + 1.0
        lb, ub = rectangle_bounds(q, lo, hi)
        d = np.linalg.norm(points - q, axis=1)
        assert np.all(lb <= d + 1e-9)
        assert np.all(d <= ub + 1e-9)

    def test_uneven_blocks(self, points):
        enc = PQEncoder(points, n_subspaces=5, bits=3)  # 12 dims / 5 blocks
        codes = enc.encode(points[:10])
        lo, hi = enc.rectangles(codes)
        assert lo.shape == (10, 12)

    def test_more_bits_tighter_cells(self, points):
        coarse = PQEncoder(points, n_subspaces=4, bits=2, seed=1)
        fine = PQEncoder(points, n_subspaces=4, bits=6, seed=1)

        def avg_width(enc):
            codes = enc.encode(points)
            lo, hi = enc.rectangles(codes)
            return float(np.mean(hi - lo))

        assert avg_width(fine) < avg_width(coarse)

    def test_validation(self, points):
        with pytest.raises(ValueError):
            PQEncoder(points, n_subspaces=0)
        with pytest.raises(ValueError):
            PQEncoder(points, n_subspaces=99)
        with pytest.raises(ValueError):
            PQEncoder(points, bits=0)
        enc = PQEncoder(points, n_subspaces=2, bits=3)
        with pytest.raises(ValueError):
            enc.encode(points[:, :5])

    def test_codebook_bytes_positive(self, points):
        assert PQEncoder(points, n_subspaces=2, bits=3).codebook_bytes() > 0


class TestPQInPipeline:
    def test_pq_cache_preserves_results(self, points):
        enc = PQEncoder(points, n_subspaces=4, bits=5)
        cache = ApproximateCache(enc, 1 << 14, len(points))
        cache.populate(np.arange(len(points)), points)
        searcher = QueryEngine.for_index(
            LinearScanIndex(len(points)), PointFile(points), cache
        )
        for qi in (0, 99, 300):
            q = points[qi] + 0.4
            res = searcher.search(q, 6)
            assert_valid_knn(points, q, 6, res.ids)

    def test_pq_cache_saves_io(self, points):
        from repro.core.cache import NoCache

        enc = PQEncoder(points, n_subspaces=4, bits=5)
        cache = ApproximateCache(enc, 1 << 14, len(points))
        cache.populate(np.arange(len(points)), points)
        cached = QueryEngine.for_index(
            LinearScanIndex(len(points)), PointFile(points), cache
        )
        plain = QueryEngine.for_index(
            LinearScanIndex(len(points)), PointFile(points), NoCache()
        )
        q = points[3] + 0.2
        assert (
            cached.search(q, 5).stats.refine_page_reads
            < plain.search(q, 5).stats.refine_page_reads
        )
