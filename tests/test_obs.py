"""The observability subsystem: registry, telemetry, hooks, reporters.

Covers the instrument semantics (merge, snapshot, exposition formats),
the cache telemetry counters, the engine's ``MetricsHook`` aggregation —
including the reconciliation invariant that registry totals equal the
sums over per-query ``QueryStats`` in both execution modes — and that
enabling metrics never changes results or I/O counts.
"""

import json
import math
import time

import numpy as np
import pytest

from repro.core.cache import ApproximateCache, NoCache
from repro.engine.context import PhaseHook
from repro.eval.runner import Experiment
from repro.obs import CacheTelemetry, Counter, FixedHistogram, Gauge, MetricsRegistry
from repro.obs.hooks import MetricsHook
from repro.obs.reporter import (
    MetricsReporter,
    observed_vs_predicted,
    publish_cache_metrics,
)
from repro.spec import CacheSection, IndexSection, PipelineSpec


class TestCounter:
    def test_inc_and_set_total(self):
        c = Counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.set_total(42)
        assert c.value == 42

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("hits").inc(-1)

    def test_merge_adds(self):
        a, b = Counter("x"), Counter("x")
        a.inc(3)
        b.inc(4)
        a.merge(b)
        assert a.value == 7


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("occupancy")
        g.set(10)
        g.inc(-3)
        assert g.value == 7

    def test_merge_prefers_updated_value(self):
        a, b = Gauge("x"), Gauge("x")
        a.set(5)
        a.merge(b)  # b never set -> a keeps its value
        assert a.value == 5
        b.set(9)
        a.merge(b)
        assert a.value == 9


class TestFixedHistogram:
    def test_observation_placement(self):
        h = FixedHistogram("lat", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 3.0, 100.0):
            h.observe(v)
        # 0.5 and 1.0 land in the first bucket (inclusive upper edge),
        # 3.0 in (2, 4], 100 overflows.
        assert h.counts.tolist() == [2, 0, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(104.5)
        assert h.mean == pytest.approx(104.5 / 4)

    def test_observe_many_matches_loop(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 5, 100)
        a = FixedHistogram("lat", bounds=(1.0, 2.0, 4.0))
        b = FixedHistogram("lat", bounds=(1.0, 2.0, 4.0))
        a.observe_many(values)
        for v in values:
            b.observe(v)
        assert np.array_equal(a.counts, b.counts)
        assert a.sum == pytest.approx(b.sum)

    def test_quantile_interpolates(self):
        h = FixedHistogram("lat", bounds=(1.0, 2.0))
        h.observe_many(np.full(10, 1.5))
        assert 1.0 <= h.quantile(0.5) <= 2.0
        assert math.isnan(FixedHistogram("e", bounds=(1.0,)).quantile(0.5))

    def test_merge_requires_equal_bounds(self):
        a = FixedHistogram("lat", bounds=(1.0, 2.0))
        b = FixedHistogram("lat", bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            FixedHistogram("lat", bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            FixedHistogram("lat", bounds=())


class TestMetricsRegistry:
    def test_get_or_create_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("phase_calls", phase="reduce")
        b = reg.counter("phase_calls", phase="reduce")
        c = reg.counter("phase_calls", phase="refine")
        assert a is b and a is not c
        a.inc()
        assert reg.value("phase_calls", phase="reduce") == 1
        assert reg.value("phase_calls", phase="refine") == 0
        assert reg.value("nonexistent") == 0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_empty_registry_is_truthy(self):
        # Regression: ``__len__`` made a fresh registry falsy, so
        # ``if metrics:`` silently dropped the caller's sink.
        assert MetricsRegistry()
        assert len(MetricsRegistry()) == 0

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("hits").inc(2)
        b.counter("hits").inc(3)
        b.counter("only_b").inc(1)
        b.histogram("lat", bounds=(1.0, 2.0)).observe(1.5)
        b.gauge("occ").set(7)
        a.merge(b)
        assert a.value("hits") == 5
        assert a.value("only_b") == 1
        assert a.get("lat").count == 1
        assert a.value("occ") == 7
        # Merging copies: mutating b afterwards must not leak into a.
        b.counter("only_b").inc(10)
        assert a.value("only_b") == 1

    def test_snapshot_and_json_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("hits", help="h").inc(3)
        reg.histogram("lat", bounds=(1.0,)).observe(0.5)
        path = tmp_path / "m.json"
        reg.to_json(path, run="unit")
        payload = json.loads(path.read_text())
        assert payload["run"] == "unit"
        by_name = {m["name"]: m for m in payload["metrics"]}
        assert by_name["hits"]["value"] == 3
        assert by_name["lat"]["counts"] == [1, 0]

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("hits", help="total hits").inc(3)
        reg.histogram("lat", bounds=(1.0, 2.0), phase="reduce").observe(1.5)
        text = reg.to_prometheus()
        assert "# HELP hits total hits" in text
        assert "# TYPE hits counter" in text
        assert "hits 3" in text
        # Cumulative buckets: nothing <= 1, one <= 2, one <= +Inf.
        assert 'lat_bucket{le="1",phase="reduce"} 0' in text
        assert 'lat_bucket{le="2",phase="reduce"} 1' in text
        assert 'lat_bucket{le="+Inf",phase="reduce"} 1' in text
        assert 'lat_count{phase="reduce"} 1' in text

    def test_table_lists_instruments(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        reg.histogram("lat", bounds=(1.0,)).observe(0.5)
        table = reg.to_table()
        assert "hits" in table and "lat" in table and "p50" in table


class TestCacheTelemetry:
    def test_record_and_ratios(self):
        t = CacheTelemetry()
        t.record_lookup(10, 7)
        t.record_lookup(5, 0)
        assert t.lookup_calls == 2
        assert t.lookups == 15 and t.hits == 7 and t.misses == 8
        assert t.rho_hit == pytest.approx(7 / 15)
        assert CacheTelemetry().rho_hit == 0.0

    def test_merge_and_reset(self):
        a, b = CacheTelemetry(), CacheTelemetry()
        a.record_lookup(4, 2)
        b.record_lookup(6, 3)
        b.admissions = 5
        a.merge(b)
        assert a.lookups == 10 and a.hits == 5 and a.admissions == 5
        a.reset()
        assert a.lookups == 0 and a.snapshot()["rho_hit"] == 0.0

    def test_caches_count_lookups(self, tiny_dataset, tiny_context):
        pipeline = PipelineSpec(cache=CacheSection(method="HC-O")).build(
            dataset=tiny_dataset, context=tiny_context
        )
        query = tiny_dataset.query_log.test[0]
        before = pipeline.cache.telemetry.lookup_calls
        pipeline.search(query)
        t = pipeline.cache.telemetry
        assert t.lookup_calls == before + 1
        assert t.lookups >= t.hits >= 0

    def test_nocache_all_misses(self):
        cache = NoCache()
        cache.lookup(np.zeros(3), np.arange(4))
        assert cache.telemetry.lookups == 4
        assert cache.telemetry.hits == 0


class TestPublishCacheMetrics:
    def test_mirrors_telemetry_and_occupancy(self, tiny_dataset, tiny_context):
        pipeline = PipelineSpec(cache=CacheSection(method="HC-O")).build(
            dataset=tiny_dataset, context=tiny_context
        )
        pipeline.search(tiny_dataset.query_log.test[0])
        reg = MetricsRegistry()
        publish_cache_metrics(pipeline.cache, reg)
        t = pipeline.cache.telemetry
        assert reg.value("cache_hits_total") == t.hits
        assert reg.value("cache_lookups_total") == t.lookups
        assert reg.value("cache_occupancy_bytes") == pipeline.cache.used_bytes
        assert reg.value("cache_capacity_bytes") == pipeline.cache.capacity_bytes
        # Re-publishing re-sets totals instead of doubling them.
        publish_cache_metrics(pipeline.cache, reg)
        assert reg.value("cache_hits_total") == t.hits


def _registry_totals(reg):
    return {
        "queries": reg.value("engine_queries_total"),
        "candidates": reg.value("engine_candidates_total"),
        "hits": reg.value("engine_cache_hits_total"),
        "pruned": reg.value("engine_pruned_total"),
        "confirmed": reg.value("engine_confirmed_total"),
        "crefine": reg.value("engine_crefine_total"),
        "fetches": reg.value("engine_refined_fetches_total"),
        "gen_io": reg.value("engine_gen_page_reads_total"),
        "refine_io": reg.value("engine_refine_page_reads_total"),
    }


def _stats_totals(stats):
    return {
        "queries": len(stats),
        "candidates": sum(s.num_candidates for s in stats),
        "hits": sum(s.cache_hits for s in stats),
        "pruned": sum(s.pruned for s in stats),
        "confirmed": sum(s.confirmed for s in stats),
        "crefine": sum(s.c_refine for s in stats),
        "fetches": sum(s.refined_fetches for s in stats),
        "gen_io": sum(s.gen_page_reads for s in stats),
        "refine_io": sum(s.refine_page_reads for s in stats),
    }


class TestMetricsHookAggregation:
    @pytest.mark.parametrize("batched", [False, True])
    def test_totals_reconcile_with_per_query_stats(
        self, tiny_dataset, tiny_context, batched
    ):
        """Registry totals == sums over QueryStats, in both modes."""
        reg = MetricsRegistry()
        pipeline = PipelineSpec(cache=CacheSection(method="HC-O")).build(
            dataset=tiny_dataset, context=tiny_context, metrics=reg
        )
        queries = tiny_dataset.query_log.test[:8]
        if batched:
            results = pipeline.search_many(queries)
        else:
            results = [pipeline.search(q) for q in queries]
        stats = [r.stats for r in results]
        assert _registry_totals(reg) == _stats_totals(stats)
        # Phase events fired for every query.
        assert reg.value("engine_phase_calls", phase="reduce") == len(queries)
        assert reg.get("engine_phase_seconds", phase="refine").count == len(queries)

    def test_phase_page_read_attribution(self, tiny_dataset, tiny_context):
        reg = MetricsRegistry()
        pipeline = PipelineSpec(cache=CacheSection(method="NO-CACHE")).build(
            dataset=tiny_dataset, context=tiny_context, metrics=reg
        )
        for q in tiny_dataset.query_log.test[:4]:
            pipeline.search(q)
        # Generation I/O happens in the generate phase, refinement I/O in
        # refine; the per-phase split must re-sum to the query totals.
        assert reg.value(
            "engine_phase_gen_page_reads", phase="generate"
        ) == reg.value("engine_gen_page_reads_total")
        assert reg.value(
            "engine_phase_refine_page_reads", phase="refine"
        ) == reg.value("engine_refine_page_reads_total")
        assert reg.value("engine_refine_page_reads_total") > 0

    def test_live_ratio_gauges(self, tiny_dataset, tiny_context):
        reg = MetricsRegistry()
        pipeline = PipelineSpec(cache=CacheSection(method="HC-O")).build(
            dataset=tiny_dataset, context=tiny_context, metrics=reg
        )
        stats = [
            pipeline.search(q).stats for q in tiny_dataset.query_log.test[:6]
        ]
        hits = sum(s.cache_hits for s in stats)
        cands = sum(s.num_candidates for s in stats)
        settled = sum(s.pruned + s.confirmed for s in stats)
        assert reg.value("engine_rho_hit") == pytest.approx(hits / cands)
        assert reg.value("engine_rho_refine") == pytest.approx(1 - settled / hits)

    def test_tree_queries_feed_tree_counters(self, micro_dataset):
        reg = MetricsRegistry()
        pipeline = PipelineSpec(
            index=IndexSection(name="idistance"),
            cache=CacheSection(method="EXACT", cache_bytes=1 << 12),
        ).build(dataset=micro_dataset, metrics=reg)
        stats = [
            pipeline.search(q, 5).stats for q in micro_dataset.query_log.test[:4]
        ]
        assert reg.value("engine_queries_total") == 4
        assert reg.value("engine_leaves_streamed_total") == sum(
            s.leaves_streamed for s in stats
        )
        assert reg.value("engine_leaf_fetches_total") == sum(
            s.leaf_fetches for s in stats
        )

    def test_periodic_reporter_fires(self):
        calls = []
        hook = MetricsHook(report_every=2, reporter=calls.append)
        from repro.engine.stats import QueryStats

        for _ in range(5):
            hook.observe_query(QueryStats(10, 5, 2, 1, 2, 2, 2, 3))
        assert len(calls) == 2  # after queries 2 and 4
        assert all(reg is hook.registry for reg in calls)


class TestMetricsNeutrality:
    @pytest.mark.parametrize("batched", [False, True])
    def test_results_and_io_unchanged(self, tiny_dataset, tiny_context, batched):
        """Enabling metrics changes neither results nor I/O counts."""
        plain = PipelineSpec(cache=CacheSection(method="HC-O")).build(
            dataset=tiny_dataset, context=tiny_context
        )
        metered = PipelineSpec(cache=CacheSection(method="HC-O")).build(
            dataset=tiny_dataset, context=tiny_context, metrics=MetricsRegistry()
        )
        queries = tiny_dataset.query_log.test[:8]
        if batched:
            a = plain.search_many(queries)
            b = metered.search_many(queries)
        else:
            a = [plain.search(q) for q in queries]
            b = [metered.search(q) for q in queries]
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.ids, rb.ids)
            assert np.allclose(ra.distances, rb.distances)
            assert ra.stats == rb.stats


class _ReduceProbeSpy(PhaseHook):
    """Times every ``cache.lookup`` and the ``reduce`` phase around it."""

    def __init__(self, cache):
        self.in_reduce = False
        self.lookups = []  # per reduce phase: [(query bytes, seconds)]
        self.reduce_s = []
        self.reduce_queries = []
        lookup = cache.lookup

        def timed_lookup(query, ids, k=None):
            start = time.perf_counter()
            try:
                return lookup(query, ids, k)
            finally:
                assert self.in_reduce, "cache.lookup ran outside reduce"
                self.lookups[-1].append(
                    (np.asarray(query).tobytes(), time.perf_counter() - start)
                )

        cache.lookup = timed_lookup

    def on_phase_start(self, phase, ctx):
        if phase == "reduce":
            self.in_reduce = True
            self.lookups.append([])
            self.reduce_queries.append(ctx.query.tobytes())

    def on_phase_end(self, phase, ctx, elapsed_s):
        if phase == "reduce":
            self.in_reduce = False
            self.reduce_s.append(ctx.timings["reduce"])


class TestProbeAttribution:
    def test_reduce_timing_contains_own_lookup(self, tiny_dataset, tiny_context):
        """Each query's ``reduce`` time covers exactly one cache probe:
        its own, bounding its own candidates."""
        pipeline = PipelineSpec(cache=CacheSection(method="HC-O")).build(
            dataset=tiny_dataset, context=tiny_context
        )
        spy = _ReduceProbeSpy(pipeline.engine.cache)
        pipeline.engine.hooks = (spy,)
        queries = tiny_dataset.query_log.test[:6]
        pipeline.search_many(queries)
        assert len(spy.reduce_s) == len(queries)
        for query, lookups, reduce_s in zip(
            spy.reduce_queries, spy.lookups, spy.reduce_s
        ):
            assert len(lookups) == 1
            own_query, lookup_s = lookups[0]
            assert own_query == query
            assert 0 < lookup_s <= reduce_s


class TestObservedVsPredicted:
    def test_drift_view(self, tiny_dataset, tiny_context):
        reg = MetricsRegistry()
        pipeline = PipelineSpec(cache=CacheSection(method="HC-O")).build(
            dataset=tiny_dataset, context=tiny_context, metrics=reg
        )
        for q in tiny_dataset.query_log.test[:6]:
            pipeline.search(q)
        cache = pipeline.cache
        assert isinstance(cache, ApproximateCache)
        out = observed_vs_predicted(
            reg,
            tiny_context.cost_model(),
            cache=cache,
            encoder=cache.encoder,
            qr_points=tiny_context.qr_points,
        )
        assert out["rho_hit"]["observed"] == pytest.approx(
            reg.value("engine_rho_hit")
        )
        for entry in out.values():
            assert entry["predicted"] is not None
            assert entry["drift"] == pytest.approx(
                entry["observed"] - entry["predicted"]
            )
        assert reg.value("costmodel_drift", ratio="rho_hit") == pytest.approx(
            out["rho_hit"]["drift"]
        )

    def test_missing_inputs_leave_predictions_none(self):
        from repro.core.cost_model import CostModel

        reg = MetricsRegistry()
        model = CostModel(
            dim=4, value_span=10.0, d_max=5.0,
            candidate_frequencies=np.ones(10), avg_candidates=5.0,
        )
        out = observed_vs_predicted(reg, model)
        assert out["rho_hit"]["predicted"] is None
        assert out["rho_hit"]["drift"] is None


class TestMetricsReporter:
    def test_render_formats(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(2)
        lines = []
        MetricsReporter(reg, fmt="table", sink=lines.append).report()
        assert "hits" in lines[0]
        assert "# TYPE hits counter" in MetricsReporter(reg, fmt="prom").render()
        with pytest.raises(ValueError):
            MetricsReporter(reg, fmt="xml")

    def test_write_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("hits").inc(2)
        path = MetricsReporter(reg).write_json(tmp_path / "m.json", tag="t")
        payload = json.loads(path.read_text())
        assert payload["tag"] == "t"

    def test_usable_as_periodic_sink(self):
        reg = MetricsRegistry()
        outputs = []
        hook = MetricsHook(
            reg, report_every=1,
            reporter=MetricsReporter(reg, sink=outputs.append),
        )
        from repro.engine.stats import QueryStats

        hook.observe_query(QueryStats(4, 2, 1, 0, 1, 1, 1, 1))
        assert len(outputs) == 1 and "engine_queries_total" in outputs[0]


class TestExperimentMetrics:
    def test_snapshot_attached_to_result(self, tiny_dataset, tiny_context):
        result = Experiment(
            tiny_dataset, method="HC-O", metrics=True
        ).run(context=tiny_context)
        assert result.metrics is not None
        names = {m["name"] for m in result.metrics["metrics"]}
        assert "engine_queries_total" in names
        assert "cache_hits_total" in names
        assert "observed_vs_predicted" in result.metrics
        by_name = {
            (m["name"], tuple(sorted(m["labels"].items()))): m
            for m in result.metrics["metrics"]
        }
        assert by_name[("engine_queries_total", ())]["value"] == result.num_queries

    def test_caller_registry_reused(self, tiny_dataset, tiny_context):
        reg = MetricsRegistry()
        result = Experiment(
            tiny_dataset, method="HC-O", metrics=reg
        ).run(context=tiny_context)
        assert reg.value("engine_queries_total") == result.num_queries

    def test_off_by_default(self, tiny_dataset, tiny_context):
        result = Experiment(tiny_dataset, method="HC-O").run(context=tiny_context)
        assert result.metrics is None
