"""Declarative pipeline specifications — the single build path.

A :class:`PipelineSpec` is a frozen, serializable description of one
complete cached-search configuration: dataset, index, cache method,
resilience, sharding and metrics.  It round-trips through JSON and TOML,
and :meth:`PipelineSpec.build` is the *only* place in the codebase that
wires an index + cache + point file into a
:class:`~repro.spec.build.Pipeline` — ``Experiment``, the CLI, the
serving factory and the shard layer all describe their configuration as
a spec and build through it.

The component registry (:mod:`repro.spec.registry`) maps index family
names to builder callables and is extensible via :func:`register_index`.
"""

from repro.spec.errors import SpecError
from repro.spec.registry import (
    INDEX_REGISTRY,
    build_index,
    register_index,
)
from repro.spec.sections import (
    AdaptSection,
    CacheSection,
    DatasetSection,
    IndexSection,
    MetricsSection,
    PipelineSpec,
    ReplicaSection,
    ResilienceSection,
    ServeSection,
    ShardSection,
)

__all__ = [
    "AdaptSection",
    "CacheSection",
    "DatasetSection",
    "INDEX_REGISTRY",
    "IndexSection",
    "MetricsSection",
    "PipelineSpec",
    "ReplicaSection",
    "ResilienceSection",
    "ServeSection",
    "ShardSection",
    "SpecError",
    "build_index",
    "register_index",
]
