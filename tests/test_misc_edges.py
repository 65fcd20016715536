"""Grab-bag edge cases across modules (CLI paths, dataclass edges)."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.histogram import Histogram
from repro.data.datasets import Dataset
from repro.data.workload import QueryLog, generate_query_log
from repro.workload import WindowWorkload


class TestCLIBudgetPath:
    def test_explicit_cache_kb(self, capsys):
        rc = main([
            "experiment", "--dataset", "tiny", "--scale", "0.2",
            "--method", "HC-W", "--tau", "4", "--k", "3", "--cache-kb", "8",
        ])
        assert rc == 0
        assert "HC-W" in capsys.readouterr().out

    def test_linear_index_variant(self, capsys):
        rc = main([
            "experiment", "--dataset", "tiny", "--scale", "0.15",
            "--method", "HC-D", "--tau", "4", "--k", "3", "--index", "linear",
        ])
        assert rc == 0


class TestDatasetEdges:
    def test_from_points_already_discrete(self):
        pts = np.rint(np.random.default_rng(0).uniform(0, 15, (50, 4)))
        ds = Dataset.from_points(
            "d", pts, value_bits=4, already_discrete=True,
            pool_size=5, workload_size=10, test_size=2,
        )
        assert np.array_equal(ds.points, pts)

    def test_rejects_empty_points(self):
        with pytest.raises(ValueError):
            Dataset(name="x", points=np.empty((0, 3)))

    def test_rejects_1d_points(self):
        with pytest.raises(ValueError):
            Dataset(name="x", points=np.zeros(5))


class TestQueryLogEdges:
    def test_out_of_range_test_idx(self):
        pool = np.zeros((3, 2))
        with pytest.raises(ValueError):
            QueryLog(pool, np.array([0]), np.array([7]))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            QueryLog(np.empty((0, 2)), np.array([]), np.array([]))

    def test_pool_larger_than_dataset_clamps(self):
        pts = np.random.default_rng(0).normal(size=(10, 2))
        log = generate_query_log(pts, pool_size=500, workload_size=20,
                                 test_size=5, seed=0)
        assert len(log.pool) == 10


class TestWindowCopySemantics:
    def test_recorded_queries_are_copies(self):
        window = WindowWorkload(capacity=3)
        q = np.array([1.0, 2.0])
        window.record(q)
        q[0] = 99.0
        assert window.queries()[0, 0] == 1.0


class TestHistogramEdges:
    def test_covers_false_outside_buckets(self):
        hist = Histogram(np.array([0.0, 10.0]), np.array([5.0, 15.0]))
        # 7.0 falls in the gap between buckets.
        assert not hist.covers(np.array([7.0]))[0]
        assert hist.covers(np.array([3.0]))[0]

    def test_widths_and_interval_consistency(self):
        hist = Histogram(np.array([0.0, 10.0]), np.array([5.0, 15.0]))
        assert hist.widths.tolist() == [5.0, 5.0]
        assert hist.interval(0) == (0.0, 5.0)
