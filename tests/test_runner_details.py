"""Runner details: the time model and Experiment plumbing."""

import numpy as np
import pytest

from repro.core.cache import CachePolicy
from repro.data.datasets import load_dataset
from repro.engine.stats import QueryStats
from repro.eval.runner import Experiment, summarize


def _stat(refine_pages, gen_pages, candidates=100, hits=50, pruned=20):
    return QueryStats(
        num_candidates=candidates,
        cache_hits=hits,
        pruned=pruned,
        confirmed=0,
        c_refine=candidates - pruned,
        refined_fetches=refine_pages,
        refine_page_reads=refine_pages,
        gen_page_reads=gen_pages,
    )


class TestSummarize:
    def test_time_model(self):
        stats = [_stat(10, 100), _stat(20, 200)]
        result = summarize(
            stats, "X", 8, 1 << 20, 10,
            read_latency_s=0.005, seq_read_latency_s=0.0002,
        )
        assert result.avg_refine_io == 15
        assert result.avg_gen_io == 150
        assert result.refine_time_s == pytest.approx(15 * 0.005)
        assert result.gen_time_s == pytest.approx(150 * 0.0002)
        assert result.response_time_s == pytest.approx(0.075 + 0.03)
        assert result.avg_io == 165

    def test_ratios(self):
        stats = [_stat(5, 10, candidates=100, hits=50, pruned=25)]
        result = summarize(stats, "X", 8, 0, 10, 0.005)
        assert result.hit_ratio == pytest.approx(0.5)
        assert result.prune_ratio == pytest.approx(0.5)  # 25 of 50 hits
        assert result.hit_times_prune == pytest.approx(0.25)

    def test_query_stats_properties(self):
        stat = _stat(5, 10, candidates=0, hits=0, pruned=0)
        assert stat.hit_ratio == 0.0
        assert stat.prune_ratio == 0.0


class TestExperimentPlumbing:
    @pytest.fixture(scope="class")
    def dataset(self):
        return load_dataset("tiny", seed=0, scale=0.3)

    def test_custom_queries(self, dataset):
        result = Experiment(
            dataset, method="HC-D", tau=4, cache_bytes=10_000
        ).run(queries=dataset.points[:3])
        assert result.num_queries == 3

    def test_requires_queries_or_log(self, dataset):
        bare = dataset.with_query_log(dataset.query_log)
        object.__setattr__(bare, "query_log", None)
        with pytest.raises(ValueError):
            Experiment(bare, method="HC-D").run()

    def test_policy_passthrough(self, dataset):
        result = Experiment(
            dataset, method="HC-D", tau=4, cache_bytes=10_000,
            policy=CachePolicy.LRU,
        ).run()
        # LRU starts empty: first-visit test queries mostly miss.
        assert result.hit_ratio <= 1.0

    def test_ordering_passthrough(self, dataset):
        result = Experiment(
            dataset, method="EXACT", cache_bytes=10_000, ordering="clustered"
        ).run()
        assert result.num_queries == len(dataset.query_log.test)

    def test_wall_time_recorded(self, dataset):
        result = Experiment(
            dataset, method="NO-CACHE", cache_bytes=0
        ).run()
        assert result.wall_time_s > 0

    def test_per_query_dropped_by_default(self, dataset):
        result = Experiment(
            dataset, method="HC-D", tau=4, cache_bytes=10_000
        ).run()
        assert result.per_query == ()

    def test_per_query_retained_on_request(self, dataset):
        result = Experiment(
            dataset, method="HC-D", tau=4, cache_bytes=10_000,
            keep_per_query=True,
        ).run()
        assert len(result.per_query) == result.num_queries
