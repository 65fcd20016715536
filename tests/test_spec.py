"""The declarative ``PipelineSpec``: serialization, strictness, building.

The spec is the single construction path — every test here guards the
property that makes snapshot artifacts trustworthy: a spec round-tripped
through JSON/TOML rebuilds exactly the pipeline the original described.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.runner import Experiment
from repro.spec.build import build_pipeline
from repro.spec.sections import (
    CacheSection,
    DatasetSection,
    IndexSection,
    PipelineSpec,
    ShardSection,
)


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
