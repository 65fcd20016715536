"""Evaluation harness: contexts, method lineup, runner, reporting."""

import numpy as np
import pytest

from repro.eval.methods import METHOD_NAMES, WorkloadContext
from repro.eval.reporting import format_table, write_csv
from repro.eval.runner import Experiment, measure_m1, summarize
from repro.spec import CacheSection, IndexSection, PipelineSpec
from repro.spec.build import make_method_cache
from tests.conftest import assert_valid_knn


def spec_for(method, tau=5, cache_bytes=30_000, index_name="c2lsh", k=10, **cache):
    return PipelineSpec(
        index=IndexSection(name=index_name),
        cache=CacheSection(method=method, tau=tau, cache_bytes=cache_bytes, **cache),
        k=k,
    )


class TestWorkloadContext:
    def test_prepared_quantities(self, tiny_context):
        ctx = tiny_context
        assert ctx.avg_candidates > 0
        assert ctx.d_max > 0
        assert ctx.frequencies.sum() > 0
        assert len(ctx.candidate_sets) == len(ctx.distinct_queries)
        assert ctx.fprime.shape == (ctx.dataset.domain.size,)

    def test_frequencies_weighted_by_popularity(self, tiny_context):
        # Total frequency mass equals sum over queries of |C(q)| x weight.
        expect = sum(
            w * len(c)
            for w, c in zip(tiny_context.query_weights, tiny_context.candidate_sets)
        )
        assert tiny_context.frequencies.sum() == expect

    def test_cost_model_construction(self, tiny_context):
        model = tiny_context.cost_model()
        assert model.dim == tiny_context.dataset.dim
        assert model.avg_candidates == tiny_context.avg_candidates

    def test_histograms_memoized(self, tiny_context):
        a = tiny_context.histogram("equidepth", 5)
        b = tiny_context.histogram("equidepth", 5)
        assert a is b

    def test_requires_query_log(self, tiny_dataset):
        bare = tiny_dataset.with_query_log(tiny_dataset.query_log)
        object.__setattr__(bare, "query_log", None)
        with pytest.raises(ValueError):
            WorkloadContext.prepare(bare)


class TestMethodLineup:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_every_method_builds_and_answers(self, tiny_dataset, tiny_context, method):
        pipeline = spec_for(method).build(dataset=tiny_dataset, context=tiny_context)
        q = tiny_dataset.query_log.test[0]
        res = pipeline.search(q, 10)
        assert len(res.ids) == 10
        assert res.stats.num_candidates > 0

    def test_results_invariant_across_methods(self, tiny_dataset, tiny_context):
        """Caching never changes the answer (paper Section 2.2)."""
        q = tiny_dataset.query_log.test[3]
        reference = None
        for method in ("NO-CACHE", "EXACT", "HC-W", "HC-O", "C-VA"):
            pipeline = spec_for(method).build(
                dataset=tiny_dataset, context=tiny_context
            )
            got = frozenset(pipeline.search(q, 10).ids.tolist())
            cand = tiny_context.index.candidates(q, 10, None)
            d = np.linalg.norm(tiny_dataset.points[cand] - q, axis=1)
            kth = np.sort(d)[9]
            truth = set(cand[d <= kth + 1e-9].tolist())
            assert got <= truth
            if reference is None:
                reference = got

    def test_unknown_method(self, tiny_dataset):
        with pytest.raises(ValueError):
            spec_for("HC-X").build(dataset=tiny_dataset)

    @pytest.mark.parametrize(
        "index_name", ["c2lsh", "e2lsh", "multiprobe", "vafile", "vaplus", "linear"]
    )
    def test_every_index_drives_the_pipeline(self, micro_dataset, index_name):
        spec = spec_for("HC-D", cache_bytes=20_000, index_name=index_name, k=5)
        pipeline = spec.build(dataset=micro_dataset)
        res = pipeline.search(micro_dataset.query_log.test[0], 5)
        assert 0 < len(res.ids) <= 5

    def test_cva_bits_fit_budget(self, tiny_dataset, tiny_context):
        # 20 KB: 4 bits/dim (one word per 16-d point) holds all 2000 points.
        budget = 20_000
        cache = make_method_cache(tiny_context, "C-VA", cache_bytes=budget)
        assert cache.used_bytes <= budget
        assert cache.num_items == tiny_dataset.num_points
        assert cache.encoder.bits <= 4

    def test_lru_policy_supported(self, tiny_dataset, tiny_context):
        spec = spec_for("HC-D", policy="lru")
        pipeline = spec.build(dataset=tiny_dataset, context=tiny_context)
        q = tiny_dataset.query_log.test[0]
        first = pipeline.search(q, 10)
        second = pipeline.search(q, 10)
        assert second.stats.cache_hits >= first.stats.cache_hits


class TestTreePipelines:
    @pytest.mark.parametrize("index_name", ["idistance", "vptree", "mtree"])
    @pytest.mark.parametrize("method", ["NO-CACHE", "EXACT", "HC-O"])
    def test_exactness(self, micro_dataset, index_name, method):
        spec = spec_for(method, index_name=index_name, k=5)
        pipeline = spec.build(dataset=micro_dataset)
        for q in micro_dataset.query_log.test[:5]:
            res = pipeline.search(q, 5)
            assert_valid_knn(micro_dataset.points, q, 5, res.ids)

    def test_unknown_index(self, micro_dataset):
        with pytest.raises(ValueError):
            spec_for("EXACT", index_name="rtree-bogus").build(dataset=micro_dataset)


class TestRunner:
    @pytest.mark.parametrize("index_name", ["c2lsh", "idistance", "vptree"])
    def test_experiment_end_to_end(self, tiny_dataset, tiny_context, index_name):
        res = Experiment(
            tiny_dataset, method="HC-O", tau=5, cache_bytes=30_000,
            index_name=index_name,
        ).run(context=tiny_context)
        assert res.num_queries == len(tiny_dataset.query_log.test)
        assert 0 <= res.hit_ratio <= 1
        assert res.avg_io == res.avg_refine_io + res.avg_gen_io
        assert res.response_time_s > 0
        assert res.hit_times_prune <= 1

    def test_method_ordering_matches_paper(self, tiny_dataset, tiny_context):
        """HC-O <= HC-D <= ... <= NO-CACHE on refinement I/O (Table 4)."""
        io = {}
        for method in ("NO-CACHE", "EXACT", "HC-W", "HC-O"):
            r = Experiment(
                tiny_dataset, method=method, tau=5, cache_bytes=30_000
            ).run(context=tiny_context)
            io[method] = r.avg_refine_io
        assert io["HC-O"] <= io["HC-W"] + 1e-9
        assert io["HC-O"] < io["NO-CACHE"]
        assert io["EXACT"] < io["NO-CACHE"]

    def test_summarize_validation(self):
        with pytest.raises(ValueError):
            summarize([], "X", 1, 1, 1, 0.001)


class TestMeasureM1:
    def test_hco_minimizes_m1_among_histograms(self, tiny_context):
        """The optimal histogram should (approximately) minimize the exact
        M1 metric its construction approximates."""
        scores = {}
        for method in ("HC-W", "HC-D", "HC-V", "HC-O"):
            enc = tiny_context.encoder(method, 5)
            scores[method] = measure_m1(enc, tiny_context)
        assert scores["HC-O"] <= min(scores["HC-W"], scores["HC-V"]) + 1e-9
        assert scores["HC-O"] <= scores["HC-D"] * 1.2

    def test_identity_encoder_scores_low(self, tiny_context):
        enc = tiny_context.encoder("HC-O", 8)  # 256 buckets on 8-bit grid
        assert measure_m1(enc, tiny_context) <= measure_m1(
            tiny_context.encoder("HC-O", 2), tiny_context
        )


class TestReporting:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", 0.00001]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_write_csv(self, tmp_path):
        path = write_csv(tmp_path / "sub" / "t.csv", ["x"], [[1], [2]])
        assert path.read_text().splitlines() == ["x", "1", "2"]
