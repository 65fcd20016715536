"""The declarative pipeline spec and its sections.

Every section is a frozen dataclass holding only plain scalars and
dicts, so a :class:`PipelineSpec` serializes losslessly to JSON or TOML
and back.  ``from_dict`` is strict: unknown keys are an error, which is
what lets artifact loaders distinguish a spec written by a newer schema
from silent misconfiguration.

The spec deliberately knows nothing about how pipelines are built —
:meth:`PipelineSpec.build` delegates to :mod:`repro.spec.build`, the one
construction implementation in the codebase.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path


def _section_from_dict(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ValueError(f"spec section {where!r} must be a table/object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ValueError(
            f"unknown key(s) {unknown} in spec section {where!r}; "
            f"known keys: {sorted(names)}"
        )
    return cls(**data)


@dataclass(frozen=True)
class DatasetSection:
    """Which dataset to materialize (registry name or saved file).

    ``path`` takes precedence: it points at a ``save_dataset`` file and
    makes the spec reproducible without regenerating synthetic data.
    """

    name: str = "tiny"
    scale: float = 1.0
    seed: int = 0
    path: str | None = None


@dataclass(frozen=True)
class IndexSection:
    """Index family plus builder-specific parameters."""

    name: str = "c2lsh"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CacheSection:
    """Caching method configuration (paper Section 5 parameters).

    The bound kernel is not configured here: ``repro.core.kernels``
    picks it from the machine, and every kernel gives the same bits.
    """

    method: str = "HC-O"
    tau: int = 8
    cache_bytes: int = 1 << 20
    policy: str = "hff"


@dataclass(frozen=True)
class ResilienceSection:
    """Fault masking and degraded-answer configuration.

    Disabled by default; ``faults`` is a ``parse_fault_spec`` string
    (e.g. ``"rate=0.05,seed=7"``) so the whole section stays scalar.
    """

    enabled: bool = False
    max_retries: int = 2
    deadline_ms: float = 0.0
    degraded: bool = True
    faults: str | None = None


@dataclass(frozen=True)
class ShardSection:
    """Sharded-execution configuration (``n_shards == 0`` = unsharded)."""

    n_shards: int = 0
    executor: str = "serial"
    partition: str = "contiguous"
    budget_mode: str = "global-hff"


@dataclass(frozen=True)
class MetricsSection:
    """Whether builds attach a ``repro.obs`` metrics registry."""

    enabled: bool = False


@dataclass(frozen=True)
class AdaptSection:
    """Online drift adaptation (``repro.workload`` layer).

    When enabled, the built pipeline carries a ``DriftController`` fed
    by a ``WorkloadHook`` on the engine; ``trigger``/``threshold``
    select the retrain policy (``every-n`` uses ``every``;
    ``hit-ratio`` and ``sketch-distance`` use ``threshold``).
    """

    enabled: bool = False
    every: int = 0
    model: str = "window"
    capacity: int = 2048
    decay: float = 0.999
    trigger: str = "every-n"
    threshold: float = 0.0


@dataclass(frozen=True)
class ServeSection:
    """Long-lived serving front end (``repro.serve`` layer).

    When enabled, ``repro serve`` (and ``Server``-routed snapshot
    replay) applies these micro-batching, admission-control and SLA
    parameters.  ``tiers`` maps tier name -> deadline budget in
    milliseconds (0 = unlimited); the budget clock starts at admission,
    so queue wait is charged against it.
    """

    enabled: bool = False
    max_queue_depth: int = 256
    max_batch: int = 32
    max_wait_us: float = 2000.0
    default_tier: str = "default"
    tiers: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ReplicaSection:
    """Supervised replica pool for the serving layer (``repro.serve.replica``).

    ``n_replicas`` identical pipelines are built from the same spec (so
    failover is bit-identical) and supervised behind the shared
    admission queue: per-tier stall budgets, circuit-breaker quarantine
    with exponential-backoff restart, queue-front crash recovery with
    at-most-once completion, hedged dispatch past ``hedge_delay_ms``
    (0 disables), and brownout degraded answers when every replica is
    quarantined.  ``tier_stall_budget_ms`` maps tier name -> stall
    budget override in milliseconds.
    """

    enabled: bool = False
    n_replicas: int = 1
    stall_budget_ms: float = 1000.0
    hedge_delay_ms: float = 0.0
    failure_threshold: int = 1
    restart_backoff_ms: float = 50.0
    restart_max_backoff_ms: float = 2000.0
    heartbeat_interval_ms: float = 100.0
    max_redispatch: int = 3
    tier_stall_budget_ms: dict = field(default_factory=dict)


#: section attribute -> section class, in serialization order.
_SECTIONS = {
    "dataset": DatasetSection,
    "index": IndexSection,
    "cache": CacheSection,
    "resilience": ResilienceSection,
    "shard": ShardSection,
    "metrics": MetricsSection,
    "adapt": AdaptSection,
    "serve": ServeSection,
    "replica": ReplicaSection,
}


@dataclass(frozen=True)
class PipelineSpec:
    """A complete, serializable cached-search configuration.

    ``build()`` (and ``build_sharded()`` for ``shard.n_shards > 0``) is
    the single pipeline construction path; every other constructor in
    the repo adapts its arguments into one of these and delegates.
    """

    dataset: DatasetSection = field(default_factory=DatasetSection)
    index: IndexSection = field(default_factory=IndexSection)
    cache: CacheSection = field(default_factory=CacheSection)
    resilience: ResilienceSection = field(default_factory=ResilienceSection)
    shard: ShardSection = field(default_factory=ShardSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)
    adapt: AdaptSection = field(default_factory=AdaptSection)
    serve: ServeSection = field(default_factory=ServeSection)
    replica: ReplicaSection = field(default_factory=ReplicaSection)
    k: int = 10
    ordering: str = "raw"
    seed: int = 0

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain JSON/TOML-able dict (sections as nested tables)."""
        out: dict = {}
        for name in _SECTIONS:
            section = getattr(self, name)
            out[name] = {
                f.name: getattr(section, f.name)
                for f in dataclasses.fields(section)
            }
        out["k"] = self.k
        out["ordering"] = self.ordering
        out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineSpec":
        """Strict inverse of :meth:`to_dict` (unknown keys are errors)."""
        if not isinstance(data, dict):
            raise ValueError("a pipeline spec must be a table/object")
        known = set(_SECTIONS) | {"k", "ordering", "seed"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown key(s) {unknown} in pipeline spec; "
                f"known keys: {sorted(known)}"
            )
        kwargs: dict = {}
        for name, section_cls in _SECTIONS.items():
            if name in data:
                kwargs[name] = _section_from_dict(
                    section_cls, data[name], name
                )
        for scalar in ("k", "ordering", "seed"):
            if scalar in data:
                kwargs[scalar] = data[scalar]
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_toml(cls, text: str) -> "PipelineSpec":
        import tomllib

        return cls.from_dict(tomllib.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "PipelineSpec":
        """Read a spec file, dispatching on the ``.toml``/``.json`` suffix."""
        path = Path(path)
        text = path.read_text()
        if path.suffix == ".toml":
            return cls.from_toml(text)
        return cls.from_json(text)

    def save(self, path: str | Path) -> Path:
        """Write the spec as JSON (the artifact-manifest native form)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    # ------------------------------------------------------------------
    # Construction (delegates to the single build path)
    # ------------------------------------------------------------------
    def build(self, dataset=None, context=None, metrics=None, resilience=None):
        """Materialize the :class:`~repro.spec.build.Pipeline` this spec
        describes (one type for every index family).  Pass
        ``dataset``/``context`` to reuse pre-built inputs across methods.
        """
        from repro.spec.build import build_pipeline

        return build_pipeline(
            self,
            dataset=dataset,
            context=context,
            metrics=metrics,
            resilience=resilience,
        )

    def build_sharded(self, dataset=None, context=None):
        """Materialize the sharded engine for ``shard.n_shards > 0``."""
        from repro.spec.build import build_sharded

        return build_sharded(self, dataset=dataset, context=context)
