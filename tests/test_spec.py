"""The declarative ``PipelineSpec``: serialization, strictness, building.

The spec is the single construction path — every test here guards the
property that makes snapshot artifacts trustworthy: a spec round-tripped
through JSON/TOML rebuilds exactly the pipeline the original described.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cli import main
from repro.core.cache import CachePolicy
from repro.eval.methods import WorkloadContext
from repro.eval.runner import Experiment
from repro.faults import FaultyDisk
from repro.serve import server_from_spec
from repro.spec.build import build_pipeline
from repro.spec.errors import SpecError
from repro.spec.sections import (
    CacheSection,
    DatasetSection,
    IndexSection,
    PipelineSpec,
    ReplicaSection,
    ResilienceSection,
    ServeSection,
    ShardSection,
)
from repro.storage.disk import SimulatedDisk


class TestSerialization:
    def test_dict_round_trip(self):
        spec = PipelineSpec(
            dataset=DatasetSection(name="tiny", scale=0.5, seed=3),
            index=IndexSection(name="vafile", params={"bits_per_dim": 4}),
            cache=CacheSection(method="HC-D", tau=6, cache_bytes=1 << 16),
            shard=ShardSection(n_shards=2, executor="thread"),
            k=5,
            ordering="hff",
            seed=3,
        )
        assert PipelineSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = PipelineSpec(k=7, seed=11)
        assert PipelineSpec.from_json(spec.to_json()) == spec

    def test_toml_round_trip(self):
        spec = PipelineSpec(
            index=IndexSection(name="linear"),
            cache=CacheSection(method="EXACT", cache_bytes=4096),
        )
        toml = "\n".join(
            [
                "k = 10",
                'ordering = "raw"',
                "seed = 0",
                "[dataset]",
                'name = "tiny"',
                "[index]",
                'name = "linear"',
                "[cache]",
                'method = "EXACT"',
                "cache_bytes = 4096",
            ]
        )
        loaded = PipelineSpec.from_toml(toml)
        assert loaded.index.name == "linear"
        assert loaded.cache == spec.cache

    def test_save_load_file(self, tmp_path):
        spec = PipelineSpec(cache=CacheSection(tau=5))
        path = spec.save(tmp_path / "spec.json")
        assert PipelineSpec.load(path) == spec

    def test_defaults_round_trip(self):
        assert PipelineSpec.from_dict(PipelineSpec().to_dict()) == PipelineSpec()


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            PipelineSpec.from_dict({"k": 10, "frobnicate": 1})

    def test_unknown_section_key(self):
        with pytest.raises(ValueError, match="unknown key.*cache"):
            PipelineSpec.from_dict({"cache": {"method": "HC-O", "size": 1}})

    def test_cache_kernel_key_rejected(self):
        """The bound kernel is no spec field: the machine picks it."""
        with pytest.raises(ValueError, match="kernel"):
            PipelineSpec.from_dict({"cache": {"kernel": "numpy"}})

    def test_section_must_be_table(self):
        with pytest.raises(ValueError, match="table/object"):
            PipelineSpec.from_dict({"index": "c2lsh"})

    def test_spec_must_be_dict(self):
        with pytest.raises(ValueError):
            PipelineSpec.from_dict([1, 2])


class TestBuild:
    def test_unknown_method_rejected(self, tiny_dataset):
        spec = PipelineSpec(cache=CacheSection(method="NOT-A-METHOD"))
        with pytest.raises(ValueError, match="unknown method"):
            build_pipeline(spec, dataset=tiny_dataset)

    def test_point_pipeline_carries_spec(self, tiny_dataset, tiny_context):
        spec = PipelineSpec(
            cache=CacheSection(method="HC-O", tau=8, cache_bytes=1 << 16)
        )
        pipeline = build_pipeline(
            spec, dataset=tiny_dataset, context=tiny_context
        )
        assert pipeline.spec == spec
        assert pipeline.method == "HC-O"

    def test_tree_pipeline_carries_spec(self, micro_dataset):
        spec = PipelineSpec(
            dataset=DatasetSection(name="micro"),
            index=IndexSection(name="vptree"),
            cache=CacheSection(method="EXACT", cache_bytes=1 << 14),
        )
        pipeline = build_pipeline(spec, dataset=micro_dataset)
        assert pipeline.spec == spec
        q = micro_dataset.query_log.test[0]
        result = pipeline.search(q, 5)
        assert len(result.ids) == 5

    def test_round_tripped_spec_builds_identical_pipeline(
        self, tiny_dataset, tiny_context
    ):
        spec = PipelineSpec(
            cache=CacheSection(method="HC-O", tau=8, cache_bytes=1 << 16)
        )
        round_tripped = PipelineSpec.from_json(spec.to_json())
        a = build_pipeline(spec, dataset=tiny_dataset, context=tiny_context)
        b = build_pipeline(
            round_tripped, dataset=tiny_dataset, context=tiny_context
        )
        for q in tiny_dataset.query_log.test[:4]:
            ra, rb = a.search(q, 10), b.search(q, 10)
            assert np.array_equal(ra.ids, rb.ids)
            assert np.array_equal(ra.distances, rb.distances)
            assert ra.stats.page_reads == rb.stats.page_reads


class TestExperimentBridge:
    def test_to_spec_records_configuration(self, tiny_dataset):
        exp = Experiment(
            tiny_dataset, method="HC-D", k=5, tau=6,
            cache_bytes=1 << 15, index_name="vafile", seed=2,
        )
        spec = exp.to_spec()
        assert spec.cache.method == "HC-D"
        assert spec.cache.tau == 6
        assert spec.cache.cache_bytes == 1 << 15
        assert spec.index.name == "vafile"
        assert spec.k == 5
        assert spec.seed == 2

    def test_from_spec_inverts_to_spec(self, tiny_dataset):
        exp = Experiment(
            tiny_dataset, method="HC-O", k=7, tau=9,
            cache_bytes=1 << 14, index_name="c2lsh", seed=4,
        )
        back = Experiment.from_spec(exp.to_spec(), tiny_dataset)
        assert back.method == exp.method
        assert back.k == exp.k
        assert back.tau == exp.tau
        assert back.cache_bytes == exp.cache_bytes
        assert back.index_name == exp.index_name
        assert back.seed == exp.seed


#: Faults every read; with no retries, no refinement read ever lands.
DEAD_DISK = "rate=1.0,max_consecutive=50,seed=1"
FAULTY = PipelineSpec(
    cache=CacheSection(method="HC-O", cache_bytes=1024),
    resilience=ResilienceSection(
        enabled=True, max_retries=0, faults=DEAD_DISK
    ),
)


class TestFaultsReachEveryBuild:
    """``resilience.faults`` applies to unsharded and replica builds."""

    def test_spec_build_degrades(self, tiny_dataset, tiny_context):
        pipeline = FAULTY.build(dataset=tiny_dataset, context=tiny_context)
        results = pipeline.search_many(tiny_dataset.query_log.test)
        assert results
        assert not any(r.outcome.complete for r in results)

    def test_replica_pool_degrades(self, tiny_dataset, tiny_context):
        spec = dataclasses.replace(
            FAULTY,
            serve=ServeSection(enabled=True),
            replica=ReplicaSection(enabled=True, n_replicas=2),
        )
        server, handle = server_from_spec(
            spec, dataset=tiny_dataset, context=tiny_context
        )
        try:
            responses = [
                server.serve_one(q) for q in tiny_dataset.query_log.test
            ]
        finally:
            server.close()
            handle.close()
        assert responses
        assert all(r.degraded for r in responses)

    def test_cli_serve_reports_degraded(self, capsys):
        code = main([
            "serve", "--dataset", "tiny", "--method", "HC-O",
            "--cache-kb", "1", "--requests", "20",
            "--faults", DEAD_DISK, "--retries", "0",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(
            i for i, line in enumerate(lines) if line.startswith("offered_qps")
        )
        row = dict(zip(lines[at].split(), lines[at + 2].split()))
        assert int(row["degraded"]) == 20

    def test_shared_context_file_stays_fault_free(self, tiny_dataset):
        context = WorkloadContext.prepare(
            tiny_dataset, index_name="c2lsh", k=10, seed=0
        )
        faulty = FAULTY.build(dataset=tiny_dataset, context=context)
        clean = dataclasses.replace(
            FAULTY, resilience=ResilienceSection()
        ).build(dataset=tiny_dataset, context=context)
        assert isinstance(faulty.point_file.disk, FaultyDisk)
        assert type(clean.point_file.disk) is SimulatedDisk
        assert type(context.point_file.disk) is SimulatedDisk


def test_sharded_build_honours_cache_policy(tiny_dataset, tiny_context):
    """Every shard cache is LRU and starts empty; answers stay exact."""
    spec = PipelineSpec(
        index=IndexSection(name="c2lsh"),
        cache=CacheSection(
            method="HC-O", tau=8, cache_bytes=16384, policy="lru"
        ),
        shard=ShardSection(n_shards=2),
    )
    queries = tiny_dataset.query_log.test
    engine, _ = spec.build_sharded(dataset=tiny_dataset, context=tiny_context)
    with engine:
        caches = [runtime.cache for runtime in engine.executor.runtimes]
        assert [c.policy for c in caches] == [CachePolicy.LRU] * 2
        assert [c.num_items for c in caches] == [0, 0]
        results = engine.search_many(queries, spec.k)
    uncached = dataclasses.replace(
        spec, cache=CacheSection(method="NO-CACHE"), shard=ShardSection()
    ).build(dataset=tiny_dataset, context=tiny_context)
    for got, want in zip(results, uncached.search_many(queries)):
        assert np.array_equal(got.ids, want.ids)
        assert np.allclose(got.distances, want.distances)


class TestSilentlyDroppedSectionsRejected:
    """Spec sections a build cannot honour raise instead of vanishing."""

    @pytest.mark.parametrize("index_name", ["idistance", "vptree", "mtree"])
    def test_tree_index_rejects_disk_faults(self, micro_dataset, index_name):
        spec = dataclasses.replace(FAULTY, index=IndexSection(name=index_name))
        with pytest.raises(SpecError) as info:
            spec.build(dataset=micro_dataset)
        assert set(info.value.sections) == {"resilience", "index"}
        assert "Workaround" in str(info.value)

    def test_tree_index_without_faults_still_builds(self, micro_dataset):
        spec = PipelineSpec(
            index=IndexSection(name="vptree"),
            cache=CacheSection(method="HC-O", cache_bytes=4096),
            resilience=ResilienceSection(enabled=True, max_retries=0),
            k=5,
        )
        pipeline = spec.build(dataset=micro_dataset)
        assert len(pipeline.search_many(micro_dataset.query_log.test[:2])) == 2

    @pytest.mark.parametrize("ordering", ["clustered", "sortedkey"])
    def test_tree_index_rejects_ordering(self, micro_dataset, ordering):
        spec = PipelineSpec(index=IndexSection(name="vptree"), ordering=ordering)
        with pytest.raises(SpecError) as info:
            spec.build(dataset=micro_dataset)
        assert info.value.sections == ("index",)
        assert "ordering" in str(info.value) and ordering in str(info.value)
        assert "Workaround" in str(info.value)

    def test_disabled_resilience_rejects_faults(self, micro_dataset):
        spec = dataclasses.replace(
            FAULTY, resilience=ResilienceSection(enabled=False, faults="rate=1.0")
        )
        with pytest.raises(SpecError) as info:
            spec.build(dataset=micro_dataset)
        assert info.value.sections == ("resilience",)
        assert "faults" in str(info.value) and "Workaround" in str(info.value)

    @pytest.mark.parametrize("ordering", ["clustered", "sortedkey"])
    def test_sharded_build_rejects_ordering(self, tiny_dataset, ordering):
        spec = PipelineSpec(
            index=IndexSection(name="c2lsh"),
            cache=CacheSection(method="HC-O", cache_bytes=16384),
            shard=ShardSection(n_shards=2),
            ordering=ordering,
        )
        with pytest.raises(SpecError) as info:
            spec.build_sharded(dataset=tiny_dataset)
        assert info.value.sections == ("shard",)
        assert ordering in str(info.value)
