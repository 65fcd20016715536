"""Snapshot artifacts: store primitives, round-trip bit-identity, hot swap.

The load-bearing property (ISSUE acceptance): a snapshot-loaded pipeline
answers every query bit-identically — same ids, same distances, same
page reads — to the freshly built pipeline it was saved from, across
index families, cache methods and eviction policies.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.artifacts.errors import ArtifactError, FormatVersionError
from repro.artifacts.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    inspect_snapshot,
    load_cache_snapshot,
    load_queries,
    load_snapshot,
    save_cache_snapshot,
    save_snapshot,
    verify_snapshot,
)
from repro.artifacts.store import (
    ObjectStore,
    publish_current,
    read_current,
    read_manifest,
    write_atomic,
    write_manifest,
)
from repro.spec.build import build_pipeline
from repro.spec.sections import (
    CacheSection,
    DatasetSection,
    IndexSection,
    PipelineSpec,
)


def micro_spec(index_name, method, tau=6, cache_bytes=1 << 15, policy="hff"):
    return PipelineSpec(
        dataset=DatasetSection(name="micro"),
        index=IndexSection(name=index_name),
        cache=CacheSection(
            method=method, tau=tau, cache_bytes=cache_bytes, policy=policy
        ),
        k=5,
        seed=0,
    )


def assert_identical_answers(a, b, queries, k=5):
    """ids, distances and page reads must match query-for-query."""
    for q in queries:
        ra, rb = a.search(q, k), b.search(q, k)
        assert np.array_equal(ra.ids, rb.ids)
        assert np.array_equal(ra.distances, rb.distances)
        assert ra.stats.page_reads == rb.stats.page_reads


def telemetry_dict(pipeline):
    telemetry = getattr(pipeline.cache, "telemetry", None)
    return None if telemetry is None else dataclasses.asdict(telemetry)


# ----------------------------------------------------------------------
# Store primitives
# ----------------------------------------------------------------------
class TestObjectStore:
    def test_put_is_content_addressed_and_deduplicated(self, tmp_path):
        store = ObjectStore(tmp_path)
        arr = np.arange(64, dtype=np.int64)
        d1 = store.put_array(arr)
        d2 = store.put_array(arr.copy())
        assert d1 == d2
        assert len(list((tmp_path / "objects").iterdir())) == 1
        assert np.array_equal(store.load(d1), arr)

    def test_distinct_arrays_distinct_digests(self, tmp_path):
        store = ObjectStore(tmp_path)
        assert store.put_array(np.zeros(4)) != store.put_array(np.ones(4))

    def test_load_is_readonly_mmap(self, tmp_path):
        store = ObjectStore(tmp_path)
        digest = store.put_array(np.arange(8.0))
        loaded = store.load(digest, mmap=True)
        assert isinstance(loaded, np.memmap)
        with pytest.raises(ValueError):
            loaded[0] = 99.0

    def test_members_round_trip(self, tmp_path):
        store = ObjectStore(tmp_path)
        arrays = {"a": np.arange(3), "b": np.eye(2)}
        members = store.put_members(arrays)
        loaded = store.load_members(members, mmap=False)
        assert set(loaded) == {"a", "b"}
        assert np.array_equal(loaded["a"], arrays["a"])
        assert np.array_equal(loaded["b"], arrays["b"])

    def test_write_atomic(self, tmp_path):
        target = tmp_path / "payload.bin"
        write_atomic(target, b"hello")
        assert target.read_bytes() == b"hello"
        assert list(tmp_path.iterdir()) == [target]  # no tmp litter


class TestCurrentPointer:
    def test_publish_and_read(self, tmp_path):
        write_manifest(tmp_path / "snap-a", {"format_version": 1})
        publish_current(tmp_path, "snap-a")
        assert read_current(tmp_path) == tmp_path / "snap-a"

    def test_republish_swaps_atomically(self, tmp_path):
        for name in ("snap-a", "snap-b"):
            write_manifest(tmp_path / name, {"format_version": 1})
        publish_current(tmp_path, "snap-a")
        publish_current(tmp_path, "snap-b")
        assert read_current(tmp_path) == tmp_path / "snap-b"

    def test_publish_incomplete_snapshot_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            publish_current(tmp_path, "never-written")

    def test_read_without_pointer(self, tmp_path):
        with pytest.raises(ArtifactError):
            read_current(tmp_path)


class TestFormatVersion:
    def test_error_reports_found_expected_and_path(self):
        err = FormatVersionError(99, 1, "/x/manifest.json")
        assert err.found == 99 and err.expected == 1
        assert "found format version 99" in str(err)
        assert "expected version 1" in str(err)
        assert "/x/manifest.json" in str(err)

    def test_error_reports_missing_version(self):
        err = FormatVersionError(None, 1)
        assert "no format version" in str(err)

    def test_load_rejects_manifest_version_drift(self, tmp_path, micro_dataset):
        spec = micro_spec("linear", "EXACT")
        pipeline = build_pipeline(spec, dataset=micro_dataset)
        save_snapshot(tmp_path / "snap", pipeline)
        manifest = read_manifest(tmp_path / "snap")
        manifest["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        write_manifest(tmp_path / "snap", manifest)
        with pytest.raises(FormatVersionError) as exc_info:
            load_snapshot(tmp_path / "snap")
        assert exc_info.value.found == SNAPSHOT_FORMAT_VERSION + 1
        assert exc_info.value.expected == SNAPSHOT_FORMAT_VERSION


# ----------------------------------------------------------------------
# Round-trip bit-identity (the acceptance grid)
# ----------------------------------------------------------------------
class TestSnapshotRoundTrip:
    #: index-family × cache-method acceptance grid: two candidate-path
    #: native codecs, one deterministic-rebuild family, one tree family.
    GRID = [
        ("c2lsh", "HC-O"),
        ("c2lsh", "EXACT"),
        ("vafile", "HC-O"),
        ("vafile", "EXACT"),
        ("e2lsh", "HC-O"),
        ("e2lsh", "EXACT"),
        ("vptree", "HC-O"),
        ("vptree", "EXACT"),
    ]

    @pytest.mark.parametrize("index_name,method", GRID)
    def test_bit_identical_across_grid(
        self, tmp_path, micro_dataset, index_name, method
    ):
        spec = micro_spec(index_name, method)
        fresh = build_pipeline(spec, dataset=micro_dataset)
        queries = micro_dataset.query_log.test
        save_snapshot(tmp_path / "snap", fresh, queries=queries)
        served = load_snapshot(tmp_path / "snap")
        assert_identical_answers(fresh, served, queries)

    @pytest.mark.parametrize("method", ["NO-CACHE", "HC-D", "iHC-D", "mHC-R"])
    def test_other_methods_round_trip(self, tmp_path, micro_dataset, method):
        spec = micro_spec("c2lsh", method)
        fresh = build_pipeline(spec, dataset=micro_dataset)
        queries = micro_dataset.query_log.test[:6]
        save_snapshot(tmp_path / "snap", fresh, queries=queries)
        served = load_snapshot(tmp_path / "snap")
        assert_identical_answers(fresh, served, queries)

    def test_telemetry_round_trips_and_stays_in_lockstep(
        self, tmp_path, micro_dataset
    ):
        spec = micro_spec("c2lsh", "HC-O")
        fresh = build_pipeline(spec, dataset=micro_dataset)
        queries = micro_dataset.query_log.test
        # Warm some counters before saving: the snapshot must carry them.
        for q in queries[:4]:
            fresh.search(q, 5)
        before = telemetry_dict(fresh)
        save_snapshot(tmp_path / "snap", fresh, queries=queries)
        served = load_snapshot(tmp_path / "snap")
        assert telemetry_dict(served) == before
        for q in queries[4:]:
            fresh.search(q, 5)
            served.search(q, 5)
        assert telemetry_dict(served) == telemetry_dict(fresh)

    def test_lru_cache_round_trips_through_replay(
        self, tmp_path, micro_dataset
    ):
        """An LRU cache's eviction state survives the round trip.

        Both sides start from the same saved state and replay the same
        queries, so every touch and eviction lands identically — any
        divergence in state would surface as diverging answers.
        """
        spec = micro_spec("c2lsh", "HC-O", policy="lru", cache_bytes=1 << 13)
        fresh = build_pipeline(spec, dataset=micro_dataset)
        queries = micro_dataset.query_log.test
        for q in queries[:5]:  # mutate the LRU state before saving
            fresh.search(q, 5)
        save_snapshot(tmp_path / "snap", fresh, queries=queries)
        served = load_snapshot(tmp_path / "snap")
        assert_identical_answers(fresh, served, np.concatenate([queries] * 2))
        assert telemetry_dict(served) == telemetry_dict(fresh)

    def test_mmap_false_also_identical(self, tmp_path, micro_dataset):
        spec = micro_spec("vafile", "HC-O")
        fresh = build_pipeline(spec, dataset=micro_dataset)
        queries = micro_dataset.query_log.test[:6]
        save_snapshot(tmp_path / "snap", fresh, queries=queries)
        served = load_snapshot(tmp_path / "snap", mmap=False)
        assert_identical_answers(fresh, served, queries)

    def test_stored_queries_round_trip(self, tmp_path, micro_dataset):
        spec = micro_spec("linear", "EXACT")
        fresh = build_pipeline(spec, dataset=micro_dataset)
        queries = micro_dataset.query_log.test
        save_snapshot(tmp_path / "snap", fresh, queries=queries)
        assert np.array_equal(load_queries(tmp_path / "snap"), queries)

    def test_inspect_reports_members_and_sizes(self, tmp_path, micro_dataset):
        spec = micro_spec("c2lsh", "HC-O")
        fresh = build_pipeline(spec, dataset=micro_dataset)
        save_snapshot(
            tmp_path / "snap", fresh, queries=micro_dataset.query_log.test
        )
        report = inspect_snapshot(tmp_path / "snap")
        assert report["kind"] == "point"
        assert report["index_family"] == "c2lsh"
        assert report["has_spec"] is True
        assert "points" in report["members"]
        assert report["total_bytes"] == sum(
            m["bytes"] for m in report["members"].values()
        )
        assert report["total_bytes"] > 0


# ----------------------------------------------------------------------
# Differential verification (the CI gate)
# ----------------------------------------------------------------------
class TestVerifySnapshot:
    def test_verify_ok_on_registry_dataset(self, tmp_path, tiny_dataset,
                                           tiny_context):
        spec = PipelineSpec(
            dataset=DatasetSection(name="tiny", seed=0),
            index=IndexSection(name="c2lsh"),
            cache=CacheSection(method="HC-O", tau=8, cache_bytes=1 << 16),
            k=10,
            seed=0,
        )
        pipeline = build_pipeline(
            spec, dataset=tiny_dataset, context=tiny_context
        )
        save_snapshot(
            tmp_path / "snap", pipeline,
            queries=tiny_dataset.query_log.test,
        )
        report = verify_snapshot(tmp_path / "snap", limit=3)
        assert report["ok"] is True
        assert report["mismatches"] == []
        assert report["queries"] == 3

    def test_verify_requires_embedded_spec(self, tmp_path, micro_dataset):
        spec = micro_spec("linear", "EXACT")
        pipeline = build_pipeline(spec, dataset=micro_dataset)
        save_snapshot(
            tmp_path / "snap", pipeline,
            queries=micro_dataset.query_log.test,
        )
        manifest = read_manifest(tmp_path / "snap")
        manifest["spec"] = None
        write_manifest(tmp_path / "snap", manifest)
        with pytest.raises(ArtifactError, match="no spec"):
            verify_snapshot(tmp_path / "snap")


# ----------------------------------------------------------------------
# Cache-only snapshots and hot-swap maintenance
# ----------------------------------------------------------------------
class TestHotSwap:
    @pytest.fixture()
    def maintained_world(self, micro_dataset):
        from repro.eval.methods import WorkloadContext

        context = WorkloadContext.prepare(
            micro_dataset, index_name="c2lsh", k=5, seed=0
        )
        return micro_dataset, context

    def _controller(self, world, **kwargs):
        from repro.workload.drift import DriftController
        from repro.workload.model import WindowWorkload
        from repro.workload.train import TrainSpec

        dataset, context = world
        controller = DriftController(
            WindowWorkload(),
            TrainSpec(
                points=dataset.points, index=context.index, k=5,
                method="HC-O", tau=5, cache_bytes=1 << 14,
            ),
            **kwargs,
        )
        for q in dataset.query_log.workload[:60]:
            controller.model.record(q)
        return controller

    def test_cache_snapshot_round_trip(self, tmp_path, maintained_world):
        dataset, _ = maintained_world
        controller = self._controller(maintained_world)
        controller.retrain()
        path = save_cache_snapshot(tmp_path, "snap-000001", controller.cache)
        loaded = load_cache_snapshot(path, points=dataset.points)
        assert loaded.num_items == controller.cache.num_items
        q = dataset.query_log.test[0]
        a = controller.cache.lookup(q, np.arange(20))
        b = loaded.lookup(q, np.arange(20))
        assert np.array_equal(a[0], b[0])  # same hit set
        assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])

    def test_publish_sets_current_and_report_path(
        self, tmp_path, maintained_world
    ):
        controller = self._controller(
            maintained_world, snapshot_root=tmp_path
        )
        report = controller.retrain()
        assert report.snapshot_path is not None
        assert read_current(tmp_path) == tmp_path / "snap-000001"
        report = controller.retrain()
        assert read_current(tmp_path) == tmp_path / "snap-000002"
        assert report.snapshot_path.endswith("snap-000002")

    def test_snapshot_swap_matches_in_memory_swap(
        self, tmp_path, maintained_world
    ):
        """Serving the published mmap artifact ≡ swapping the live cache.

        The cached ordering may legitimately differ from the pre-swap
        (uncached) ordering — confirmed results report guaranteed upper
        bounds — so the invariant is snapshot-swap vs in-memory-swap,
        not cached vs uncached.
        """
        from repro.engine import QueryEngine
        from repro.storage.pointfile import PointFile

        dataset, context = maintained_world
        queries = dataset.query_log.test

        def serving_engine():
            from repro.core.cache import NoCache

            return QueryEngine.for_index(
                context.index, PointFile(dataset.points), NoCache()
            )

        snap_engine = serving_engine()
        mem_engine = serving_engine()
        snap_controller = self._controller(
            maintained_world, snapshot_root=tmp_path, engine=snap_engine
        )
        mem_controller = self._controller(
            maintained_world, engine=mem_engine
        )
        snap_controller.retrain()
        mem_controller.retrain()
        assert snap_engine.cache is snap_controller.cache  # mmap-served
        for q in queries:
            ra = snap_engine.search(q, 5)
            rb = mem_engine.search(q, 5)
            assert np.array_equal(ra.ids, rb.ids)
            assert np.array_equal(ra.distances, rb.distances)
            assert ra.stats.page_reads == rb.stats.page_reads

    def test_swap_cache_rejects_tree_engines(self, micro_dataset):
        from repro.spec.build import build_pipeline as build

        spec = micro_spec("vptree", "EXACT")
        pipeline = build(spec, dataset=micro_dataset)
        with pytest.raises(ValueError):
            pipeline.engine.swap_cache(pipeline.cache)

    def test_metrics_count_rebuilds_and_swaps(
        self, tmp_path, maintained_world
    ):
        from repro.core.cache import NoCache
        from repro.engine import QueryEngine
        from repro.obs.registry import MetricsRegistry
        from repro.storage.pointfile import PointFile

        dataset, context = maintained_world
        registry = MetricsRegistry()
        engine = QueryEngine.for_index(
            context.index, PointFile(dataset.points), NoCache()
        )
        controller = self._controller(
            maintained_world, snapshot_root=tmp_path,
            engine=engine, metrics=registry,
        )
        controller.retrain()
        snapshot = registry.snapshot()
        counters = snapshot.get("counters", snapshot)
        flat = str(counters)
        assert "cache_rebuild_total" in flat
        assert "cache_swap_total" in flat
        assert "snapshot_save_total" in flat
        assert "snapshot_load_total" in flat
