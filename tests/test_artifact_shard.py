"""Shard snapshots: mmap-backed workers vs full pickled specs.

``save_shard_snapshots`` turns per-shard specs into lightweight,
path-bearing ones; every executor hydrating them from the shared object
store must answer bit-identically to the serial engine over the original
full specs — while the pickled payload shrinks by orders of magnitude.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.artifacts.errors import ArtifactError
from repro.artifacts.sharding import (
    load_shard_member_ids,
    load_shard_spec,
    save_shard_snapshots,
)
from repro.shard.engine import ShardedEngine
from repro.shard.factory import build_shard_specs
from repro.spec import CacheSection
from repro.spec.build import cache_recipe


@pytest.fixture(scope="module")
def shard_world(request):
    micro_dataset = request.getfixturevalue("micro_dataset")
    from repro.eval.methods import WorkloadContext

    context = WorkloadContext.prepare(
        micro_dataset, index_name="c2lsh", k=5, seed=0
    )
    specs = build_shard_specs(
        micro_dataset.points, 2, index_name="c2lsh",
        cache_spec=cache_recipe(
            CacheSection(method="HC-O", tau=5, cache_bytes=1 << 14),
            "c2lsh", micro_dataset, 5, context,
        ),
        frequencies=context.frequencies,
        value_bytes=micro_dataset.value_bytes,
        metrics=False,
    )
    return micro_dataset, specs


def reference_answers(dataset, specs, k=5):
    with ShardedEngine(specs, executor="serial") as engine:
        return engine.search_many(dataset.query_log.test, k)


def assert_same_results(expected, actual):
    assert len(expected) == len(actual)
    for ra, rb in zip(expected, actual):
        assert np.array_equal(ra.ids, rb.ids)
        assert np.array_equal(ra.distances, rb.distances)
        assert ra.stats.page_reads == rb.stats.page_reads


class TestShardSnapshots:
    def test_light_specs_pickle_small(self, tmp_path, shard_world):
        _, specs = shard_world
        light = save_shard_snapshots(specs, tmp_path / "shards")
        for full, thin in zip(specs, light):
            full_bytes = len(pickle.dumps(full))
            thin_bytes = len(pickle.dumps(thin))
            assert thin_bytes < 2048
            assert thin_bytes < full_bytes // 10
            assert thin.member_ids is None and thin.points is None
            assert thin.snapshot_path == str(tmp_path / "shards")

    def test_member_ids_loadable_alone(self, tmp_path, shard_world):
        _, specs = shard_world
        save_shard_snapshots(specs, tmp_path / "shards")
        for spec in specs:
            ids = load_shard_member_ids(tmp_path / "shards", spec.shard_id)
            assert np.array_equal(np.sort(ids), np.sort(spec.member_ids))

    def test_hydrated_spec_matches_original(self, tmp_path, shard_world):
        _, specs = shard_world
        light = save_shard_snapshots(specs, tmp_path / "shards")
        for full, thin in zip(specs, light):
            hydrated = load_shard_spec(
                tmp_path / "shards", thin.shard_id, template=thin
            )
            assert np.array_equal(hydrated.member_ids, full.member_ids)
            assert np.array_equal(hydrated.points, full.points)
            assert hydrated.index_name == full.index_name
            assert hydrated.seed == full.seed

    def test_missing_shard_rejected(self, tmp_path, shard_world):
        _, specs = shard_world
        save_shard_snapshots(specs, tmp_path / "shards")
        with pytest.raises(ArtifactError):
            load_shard_spec(tmp_path / "shards", 99)

    def test_double_snapshot_rejected(self, tmp_path, shard_world):
        _, specs = shard_world
        light = save_shard_snapshots(specs, tmp_path / "a")
        with pytest.raises(ArtifactError):
            save_shard_snapshots(light, tmp_path / "b")

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_executors_bit_identical_to_full_serial(
        self, tmp_path, shard_world, executor
    ):
        dataset, specs = shard_world
        expected = reference_answers(dataset, specs)
        light = save_shard_snapshots(specs, tmp_path / "shards")
        with ShardedEngine(light, executor=executor) as engine:
            actual = engine.search_many(dataset.query_log.test, 5)
        assert_same_results(expected, actual)
