"""Drift adaptation: triggers, the controller, hot swaps, shard merge.

The hot-swap differential test is the load-bearing one: swapping a
retrained cache into a live engine must not change a single result id
or distance (cache contents only move bounds and I/O), which is what
makes zero-downtime adaptation safe.
"""

import numpy as np
import pytest

from repro.artifacts.store import read_current
from repro.artifacts.snapshot import load_snapshot, save_snapshot
from repro.data.synthetic import clustered_dataset
from repro.data.workload import generate_query_log
from repro.engine import QueryEngine
from repro.index.linear_scan import LinearScanIndex
from repro.obs import MetricsRegistry, drift_comparison
from repro.storage.pointfile import PointFile
from repro.spec import (
    AdaptSection,
    CacheSection,
    DatasetSection,
    IndexSection,
    PipelineSpec,
)
from repro.workload import (
    DecayedSketchWorkload,
    DriftController,
    EveryNQueries,
    HitRatioDrop,
    SketchDistance,
    TrainSpec,
    WindowWorkload,
    attach_workload_hook,
    build_trigger,
)

K = 5
CACHE_BYTES = 24_000


def build_linear(dataset, method="HC-O", tau=5, metrics=None):
    spec = PipelineSpec(
        index=IndexSection(name="linear"),
        cache=CacheSection(method=method, tau=tau, cache_bytes=CACHE_BYTES),
        k=K,
    )
    return spec.build(dataset=dataset, metrics=metrics)


@pytest.fixture(scope="module")
def pipeline(micro_dataset):
    return build_linear(micro_dataset)


def make_controller(pipeline, capacity=64, **kwargs):
    context = pipeline.context
    return DriftController(
        WindowWorkload(capacity=capacity),
        TrainSpec(
            points=context.dataset.points,
            index=context.index,
            k=K,
            method="HC-O",
            tau=5,
            cache_bytes=CACHE_BYTES,
            domain=context.dataset.domain,
        ),
        **kwargs,
    )


class FakeStats:
    def __init__(self, hit_ratio):
        self.hit_ratio = hit_ratio


class TestTriggers:
    def test_every_n_fires_periodically(self):
        trigger = EveryNQueries(3)
        fired = []
        for _ in range(7):
            trigger.note(None)
            if trigger.should_retrain(None):
                fired.append(True)
                trigger.reset(None)
        assert len(fired) == 2

    def test_every_n_zero_never_fires(self):
        trigger = EveryNQueries(0)
        for _ in range(50):
            trigger.note(None)
        assert not trigger.should_retrain(None)

    def test_hit_ratio_drop_fires_after_collapse(self):
        trigger = HitRatioDrop(drop=0.2, window=10)
        for _ in range(10):  # baseline window at 0.9
            trigger.note(FakeStats(0.9))
        assert not trigger.should_retrain(None)
        for _ in range(10):  # collapsed window at 0.3
            trigger.note(FakeStats(0.3))
        assert trigger.should_retrain(None)
        trigger.reset(None)
        assert not trigger.should_retrain(None)
        assert trigger.baseline is None

    def test_hit_ratio_drop_tolerates_small_wobble(self):
        trigger = HitRatioDrop(drop=0.3, window=5)
        for _ in range(5):
            trigger.note(FakeStats(0.8))
        for _ in range(5):
            trigger.note(FakeStats(0.7))  # within the tolerance
        assert not trigger.should_retrain(None)

    def test_hit_ratio_validation(self):
        with pytest.raises(ValueError):
            HitRatioDrop(drop=0.0)
        with pytest.raises(ValueError):
            HitRatioDrop(window=0)

    def test_sketch_distance_fires_on_distribution_shift(self, pipeline):
        controller = make_controller(
            pipeline, trigger=SketchDistance(threshold=0.5, check_every=10)
        )
        hot_a = pipeline.context.dataset.points[:5]
        retrained = 0
        # Phase A: a stable rotating pool (freezes the reference; the
        # live distribution stays on top of it).
        for i in range(20):
            retrained += controller.observe(hot_a[i % 5])
        assert retrained == 0
        # Phase B: a disjoint pool — TV distance crosses the threshold.
        hot_b = pipeline.context.dataset.points[200:205]
        for i in range(40):
            if controller.observe(hot_b[i % 5]):
                retrained += 1
        assert retrained >= 1

    def test_sketch_distance_validation(self):
        with pytest.raises(ValueError):
            SketchDistance(threshold=0.0)
        with pytest.raises(ValueError):
            SketchDistance(check_every=0)

    def test_build_trigger_names(self):
        registry = MetricsRegistry()
        assert isinstance(build_trigger("every-n", 25), EveryNQueries)
        hit = build_trigger("hit-ratio", 0.1, registry=registry)
        assert isinstance(hit, HitRatioDrop)
        assert hit.registry is registry
        assert isinstance(build_trigger("sketch-distance", 0.4), SketchDistance)
        with pytest.raises(ValueError, match="unknown trigger"):
            build_trigger("hourly")


class TestDriftController:
    def test_spec_validation(self, pipeline):
        context = pipeline.context
        from repro.workload.train import derivation_from_context

        with pytest.raises(ValueError, match="derivation"):
            DriftController(
                WindowWorkload(),
                TrainSpec(
                    points=context.dataset.points,
                    index=context.index,
                    derivation=derivation_from_context(context),
                ),
            )
        with pytest.raises(ValueError, match="index"):
            DriftController(
                WindowWorkload(), TrainSpec(points=context.dataset.points)
            )

    def test_observe_triggers_retrain(self, pipeline):
        controller = make_controller(pipeline, trigger=EveryNQueries(10))
        queries = pipeline.context.dataset.query_log.workload
        fired = [controller.observe(q) for q in queries[:25]]
        assert sum(fired) == 2
        assert controller.retrains == 2
        assert controller.cache is not None
        assert controller.last_report.window_size > 0
        assert controller.last_report.cache_items > 0

    def test_ingest_folds_a_collected_sketch(self, pipeline):
        """Replaying a sketch preserves its distinct queries and weights."""
        controller = make_controller(pipeline, capacity=20_000)
        sketch = DecayedSketchWorkload(decay=1.0)
        uniq = np.unique(
            pipeline.context.dataset.query_log.workload, axis=0
        )[:8]
        sketch.record_batch(uniq)
        controller.ingest(sketch)
        distinct, weights = controller.model.distinct()
        np.testing.assert_array_equal(distinct, np.unique(uniq, axis=0))
        # Equal sketch weights quantize to WEIGHT_RESOLUTION each.
        assert set(weights.tolist()) == {1024}
        report = controller.retrain()
        assert report.distinct_queries == 8

    def test_publish_writes_versioned_snapshots(self, pipeline, tmp_path):
        registry = MetricsRegistry()
        controller = make_controller(
            pipeline, snapshot_root=tmp_path, metrics=registry
        )
        controller.model.record_batch(
            pipeline.context.dataset.query_log.workload[:20]
        )
        first = controller.retrain()
        second = controller.retrain()
        assert first.snapshot_path.endswith("snap-000001")
        assert second.snapshot_path.endswith("snap-000002")
        # CURRENT atomically points at the latest publish.
        assert read_current(tmp_path).name == "snap-000002"
        assert registry.value("cache_rebuild_total") == 2
        assert registry.value("snapshot_load_total", kind="cache") == 2

    def test_retrained_cache_serves_correct_answers(self, pipeline):
        """The published-and-reloaded cache returns exact k-NN results."""
        controller = make_controller(pipeline)
        dataset = pipeline.context.dataset
        controller.model.record_batch(dataset.query_log.workload[:30])
        controller.retrain()
        searcher = QueryEngine.for_index(
            pipeline.index, pipeline.point_file, controller.cache
        )
        for query in dataset.query_log.test[:4]:
            result = searcher.search(query, K)
            d = np.linalg.norm(dataset.points - query, axis=1)
            kth = np.sort(d)[K - 1]
            assert np.all(d[result.ids] <= kth + 1e-9)


class TestHotSwapDifferential:
    def test_swap_changes_no_answers(self, micro_dataset):
        """Zero bit-wrong queries during a hot swap (acceptance criterion)."""
        adaptive = build_linear(micro_dataset)
        control = build_linear(micro_dataset)
        controller = make_controller(adaptive, engine=adaptive.engine)
        # Train on a *different* (shifted) workload so the swapped cache
        # genuinely differs from the control's.
        controller.model.record_batch(micro_dataset.points[300:350])
        old_cache = adaptive.cache
        controller.retrain()
        assert adaptive.engine.cache is not old_cache
        mismatches = 0
        for query in micro_dataset.query_log.test:
            a = adaptive.search(query, K)
            b = control.search(query, K)
            true_d = np.linalg.norm(micro_dataset.points - query, axis=1)
            # The answer *set* is cache-invariant; distances are exact
            # wherever flagged, guaranteed upper bounds elsewhere (bound
            # tightness — and hence presentation order — may differ).
            ok = (
                a.outcome.complete
                and b.outcome.complete
                and np.array_equal(np.sort(a.ids), np.sort(b.ids))
                and np.allclose(a.distances[a.exact_mask],
                                true_d[a.ids[a.exact_mask]])
                and np.all(a.distances >= true_d[a.ids] - 1e-9)
            )
            mismatches += 0 if ok else 1
        assert mismatches == 0

    def test_swap_counter_increments(self, pipeline, micro_dataset):
        registry = MetricsRegistry()
        adaptive = build_linear(micro_dataset)
        controller = make_controller(
            adaptive, engine=adaptive.engine, metrics=registry
        )
        controller.model.record_batch(micro_dataset.query_log.workload[:20])
        controller.retrain()
        assert registry.value("cache_swap_total") == 1


class TestWorkloadHook:
    def test_hook_records_served_queries(self, micro_dataset):
        pipeline = build_linear(micro_dataset, method="HC-W", tau=4)
        model = WindowWorkload(capacity=100)
        hook = attach_workload_hook(pipeline.engine, model=model)
        queries = micro_dataset.query_log.test[:6]
        for q in queries:
            pipeline.search(q, K)
        assert hook.observed == 6
        np.testing.assert_array_equal(model.queries(), queries)

    def test_hook_drives_controller_retrains(self, micro_dataset):
        pipeline = build_linear(micro_dataset)
        controller = make_controller(
            pipeline, engine=pipeline.engine, trigger=EveryNQueries(4)
        )
        attach_workload_hook(pipeline.engine, controller=controller)
        for q in micro_dataset.query_log.workload[:9]:
            pipeline.search(q, K)
        assert controller.retrains == 2

    def test_hook_requires_a_target(self):
        from repro.workload.hook import WorkloadHook

        with pytest.raises(ValueError):
            WorkloadHook()


class TestShardedWorkloadCollection:
    def test_per_shard_models_merge_at_reduce_time(self):
        from repro.shard import ShardedEngine, build_shard_specs

        rng = np.random.default_rng(3)
        points = np.rint(rng.uniform(0, 100, size=(90, 4)))
        specs = build_shard_specs(
            points, 3, workload={"kind": "sketch", "decay": 1.0}
        )
        engine = ShardedEngine(specs, executor="serial")
        try:
            queries = np.rint(rng.uniform(0, 100, size=(5, 4)))
            for q in queries:
                engine.search(q, 3)
            shard_models = engine.shard_workloads()
            assert len(shard_models) == 3
            merged = engine.merged_workload()
        finally:
            engine.close()
        # Every shard sees every query, so the merged sketch holds each
        # distinct query with weight n_shards.
        assert len(merged) == len(queries)
        for weight in merged.effective_weights().values():
            assert weight == pytest.approx(3.0)

    def test_no_recipe_means_no_collection(self):
        from repro.shard import ShardedEngine, build_shard_specs

        rng = np.random.default_rng(4)
        points = np.rint(rng.uniform(0, 100, size=(40, 3)))
        engine = ShardedEngine(
            build_shard_specs(points, 2), executor="serial"
        )
        try:
            engine.search(points[0], 2)
            assert engine.merged_workload() is None
        finally:
            engine.close()


class TestAdaptSpecBuild:
    def test_spec_round_trips_adapt_section(self):
        spec = PipelineSpec(
            adapt=AdaptSection(enabled=True, every=50, model="sketch")
        )
        clone = PipelineSpec.from_json(spec.to_json())
        assert clone.adapt == spec.adapt

    def test_built_pipeline_carries_a_controller(self, micro_dataset):
        spec = PipelineSpec(
            dataset=DatasetSection(name="micro"),
            index=IndexSection(name="linear"),
            cache=CacheSection(method="HC-O", tau=5, cache_bytes=CACHE_BYTES),
            adapt=AdaptSection(enabled=True, every=5),
            k=K,
        )
        pipeline = spec.build(dataset=micro_dataset)
        assert pipeline.drift_controller is not None
        for q in micro_dataset.query_log.workload[:11]:
            pipeline.search(q, K)
        assert pipeline.drift_controller.retrains == 2

    def test_adapt_rejects_non_global_methods(self, micro_dataset):
        spec = PipelineSpec(
            dataset=DatasetSection(name="micro"),
            index=IndexSection(name="linear"),
            cache=CacheSection(method="EXACT", cache_bytes=CACHE_BYTES),
            adapt=AdaptSection(enabled=True, every=5),
            k=K,
        )
        with pytest.raises(ValueError, match="adapt"):
            spec.build(dataset=micro_dataset)

    def test_snapshot_saves_the_swapped_cache(self, tiny_dataset, tmp_path):
        """After drift hot swaps, a snapshot persists the live cache."""
        spec = PipelineSpec(
            cache=CacheSection(method="HC-O", tau=6, cache_bytes=16 << 10),
            adapt=AdaptSection(enabled=True, every=20, model="window"),
        )
        pipeline = spec.build(dataset=tiny_dataset)
        pool = {row.tobytes() for row in tiny_dataset.query_log.pool}
        off_pool = [p for p in tiny_dataset.points if p.tobytes() not in pool]
        for query in off_pool[:60]:
            pipeline.search(query)
        assert pipeline.drift_controller.retrains == 3
        assert pipeline.cache is pipeline.engine.cache
        loaded = load_snapshot(save_snapshot(tmp_path / "snap", pipeline))
        np.testing.assert_array_equal(
            loaded.cache.cached_ids(), pipeline.engine.cache.cached_ids()
        )


class TestDriftView:
    def test_drift_view_reports_observed_vs_predicted(self, micro_dataset):
        registry = MetricsRegistry()
        pipeline = build_linear(micro_dataset, metrics=registry)
        controller = make_controller(pipeline, engine=pipeline.engine)
        controller.model.record_batch(micro_dataset.query_log.workload[:30])
        controller.retrain()
        for q in micro_dataset.query_log.test[:5]:
            pipeline.search(q, K)
        view = controller.drift_view(registry)
        assert set(view) == {"rho_hit", "rho_refine"}
        assert 0.0 <= view["rho_hit"]["observed"] <= 1.0
        assert view["rho_hit"]["predicted"] is not None

    def test_drift_view_requires_a_plan(self, pipeline):
        controller = make_controller(pipeline)
        with pytest.raises(ValueError, match="no plan"):
            controller.drift_view(MetricsRegistry())

    def test_drift_comparison_summarizes_recovery(self):
        before = {
            "rho_hit": {"observed": 0.3, "predicted": 0.8, "drift": -0.5},
            "rho_refine": {"observed": 0.6, "predicted": None, "drift": None},
        }
        after = {
            "rho_hit": {"observed": 0.75, "predicted": 0.8, "drift": -0.05},
            "rho_refine": {"observed": 0.5, "predicted": None, "drift": None},
        }
        summary = drift_comparison(before, after)
        assert summary["rho_hit"]["observed_delta"] == pytest.approx(0.45)
        assert summary["rho_hit"]["drift_recovered"] == pytest.approx(0.45)
        assert summary["rho_refine"]["drift_recovered"] is None
        assert summary["rho_refine"]["observed_delta"] == pytest.approx(-0.1)


# ----------------------------------------------------------------------
# Periodic retrains from a query window (paper Section 3.5)
# ----------------------------------------------------------------------
class TestWindowRetrain:
    @pytest.fixture(scope="class")
    def world(self):
        points = clustered_dataset(800, 12, n_clusters=4, value_bits=8, seed=13)
        return points, LinearScanIndex(len(points))

    @staticmethod
    def controller(world, k=5, tau=5, cache_bytes=40_000, model=None, **kwargs):
        points, index = world
        spec = TrainSpec(
            points=points, index=index, k=k, method="HC-O", tau=tau,
            cache_bytes=cache_bytes,
        )
        if model is None:
            model = WindowWorkload()
        return DriftController(model, spec, **kwargs)

    def test_retrain_produces_working_cache(self, world):
        points, index = world
        controller = self.controller(world)
        log = generate_query_log(points, pool_size=30, workload_size=150,
                                 test_size=10, seed=1)
        for query in log.workload:
            controller.observe(query)
        report = controller.retrain()
        assert report.window_size == 150
        assert report.cache_items > 0
        # The retrained cache serves queries correctly.
        engine = QueryEngine.for_index(index, PointFile(points), controller.cache)
        result = engine.search(log.test[0], 5)
        d = np.linalg.norm(points - log.test[0], axis=1)
        kth = np.sort(d)[4]
        assert np.all(d[result.ids] <= kth + 1e-9)

    def test_retrain_period(self, world):
        points, _ = world
        controller = self.controller(
            world, k=3, tau=4, cache_bytes=20_000, trigger=EveryNQueries(25)
        )
        triggered = sum(
            controller.observe(points[i % len(points)]) for i in range(60)
        )
        assert triggered == 2
        assert controller.retrains == 2

    def test_retrain_adapts_to_shifted_workload(self, world):
        """After the query distribution moves, a retrain restores hits."""
        points, index = world
        controller = self.controller(
            world, cache_bytes=30_000, model=WindowWorkload(capacity=100)
        )
        log_a = generate_query_log(points, pool_size=20, workload_size=100,
                                   test_size=10, seed=2)
        for query in log_a.workload:
            controller.observe(query)
        controller.retrain()
        cache_a = controller.cache

        # Phase shift: a different pool of popular queries.
        log_b = generate_query_log(points, pool_size=20, workload_size=100,
                                   test_size=10, seed=99)
        for query in log_b.workload:
            controller.observe(query)
        controller.retrain()
        cache_b = controller.cache

        def hit_ratio(cache, queries):
            engine = QueryEngine.for_index(index, PointFile(points), cache)
            return float(np.mean(
                [engine.search(q, 5).stats.hit_ratio for q in queries]
            ))

        stale = hit_ratio(cache_a, log_b.test)
        fresh = hit_ratio(cache_b, log_b.test)
        assert fresh >= stale

    def test_train_spec_rejects_bad_k_and_tau(self, world):
        with pytest.raises(ValueError):
            self.controller(world, k=0, tau=4, cache_bytes=100)
        with pytest.raises(ValueError):
            self.controller(world, k=3, tau=0, cache_bytes=100)
