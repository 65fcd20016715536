"""Golden determinism tests: seeded runs produce byte-identical outcomes.

These freeze observable behavior of the full stack on the tiny dataset.
If a change breaks one of these on purpose (an algorithmic improvement),
update the expected values alongside the change — the point is that such
changes never happen *silently*.
"""

import numpy as np
import pytest

from repro.core.builders import build_knn_optimal
from repro.data.datasets import load_dataset
from repro.data.synthetic import clustered_dataset
from repro.data.workload import generate_query_log
from repro.eval.methods import WorkloadContext
from repro.spec import CacheSection, PipelineSpec


class TestDataDeterminism:
    def test_dataset_fingerprint(self):
        ds = load_dataset("tiny", seed=0)
        assert ds.num_points == 2000
        assert float(ds.points.sum()) == pytest.approx(2926365.0)
        assert ds.domain.size == 256

    def test_dataset_differs_by_seed(self):
        a = load_dataset("tiny", seed=0)
        b = load_dataset("tiny", seed=1)
        assert not np.array_equal(a.points, b.points)

    def test_workload_fingerprint(self):
        ds = load_dataset("tiny", seed=0)
        log = ds.query_log
        assert log.workload.shape == (400, 16)
        assert log.test.shape == (20, 16)
        pop = log.popularity()
        assert int(pop[0]) == 122  # most popular query submissions

    def test_synthetic_reproducible_across_calls(self):
        a = clustered_dataset(300, 8, seed=5)
        b = clustered_dataset(300, 8, seed=5)
        assert np.array_equal(a, b)


class TestPipelineDeterminism:
    @pytest.fixture(scope="class")
    def ctx(self):
        ds = load_dataset("tiny", seed=0)
        return ds, WorkloadContext.prepare(ds, k=10, seed=0)

    def test_candidate_statistics(self, ctx):
        ds, context = ctx
        assert context.avg_candidates == pytest.approx(161.695)
        assert int(context.frequencies.sum()) == 64678

    def test_histogram_fingerprint(self, ctx):
        ds, context = ctx
        hist = build_knn_optimal(ds.domain, context.fprime, 32)
        assert hist.num_buckets == 32
        assert float(hist.widths.sum()) == pytest.approx(
            float(hist.uppers[-1] - hist.lowers[0])
            - float(np.sum(hist.lowers[1:] - hist.uppers[:-1]))
        )

    def test_search_is_deterministic_across_pipelines(self, ctx):
        ds, context = ctx
        a = PipelineSpec(
            cache=CacheSection(method="HC-O", tau=5, cache_bytes=30_000),
        ).build(dataset=ds, context=context)
        b = PipelineSpec(
            cache=CacheSection(method="HC-O", tau=5, cache_bytes=30_000),
        ).build(dataset=ds, context=context)
        for q in ds.query_log.test[:5]:
            ra, rb = a.search(q, 10), b.search(q, 10)
            assert np.array_equal(ra.ids, rb.ids)
            assert ra.stats == rb.stats

    def test_same_seed_same_results_after_rebuild(self):
        """Everything rebuilt from scratch with the same seed agrees."""
        def run():
            pts = clustered_dataset(500, 10, seed=3)
            log = generate_query_log(pts, pool_size=30, workload_size=150,
                                     test_size=8, seed=4)
            from repro.data.datasets import Dataset

            ds = Dataset(name="g", points=pts, value_bits=12, query_log=log)
            ctx = WorkloadContext.prepare(ds, k=5, seed=0)
            pipe = PipelineSpec(
                cache=CacheSection(method="HC-O", tau=5, cache_bytes=20_000),
            ).build(dataset=ds, context=ctx)
            return [tuple(pipe.search(q, 5).ids.tolist()) for q in log.test]

        assert run() == run()
