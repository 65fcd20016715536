"""The single pipeline-construction implementation.

Every caller — ``Experiment.run``, the CLI, the serving factory, the
shard layer (``cache_recipe``) and snapshot verification — describes
what it wants as a :class:`~repro.spec.PipelineSpec` and builds it
through :func:`build_pipeline` / :func:`build_sharded` here.  Keeping one
copy is what makes snapshot artifacts trustworthy: the spec embedded in
a manifest rebuilds through exactly the code that built the original.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.builders import build_equidepth
from repro.core.cache import (
    ApproximateCache,
    CachePolicy,
    ExactCache,
    LeafNodeCache,
    NoCache,
    PointCache,
)
from repro.core.encoder import IndividualHistogramEncoder
from repro.data.datasets import Dataset, load_dataset
from repro.engine.engine import QueryEngine
from repro.engine.stats import SearchResult
from repro.spec.registry import TREE_INDEX_NAMES, build_index
from repro.spec.sections import (
    DatasetSection,
    PipelineSpec,
    ResilienceSection,
)
from repro.storage.disk import DiskConfig


@dataclass
class Pipeline:
    """A ready-to-query configuration: Algorithm 1 plus how it was built.

    :meth:`PipelineSpec.build` and ``load_snapshot`` return this one type
    for every index family.  ``cache``, ``index``, ``point_file``, ``k``
    and the modeled read latencies are read from the engine (or the
    spec) on every access rather than copied, so a drift hot swap or a
    mutation is visible through them at once.
    """

    engine: QueryEngine
    method: str
    tau: int | None
    #: The ``PipelineSpec`` this pipeline was built from; embedded in
    #: snapshot manifests (None only for snapshots saved without one).
    spec: PipelineSpec | None = None
    #: The ``WorkloadContext`` the build trained its cache on (None when
    #: the build needed no workload scan, and for snapshot loads).
    context: object | None = None
    #: The ``repro.workload.DriftController`` driving online adaptation
    #: (None unless the spec's adapt section is enabled).
    drift_controller: object | None = None

    @property
    def cache(self):
        """The live cache: the point cache, or a tree's leaf cache."""
        if self.engine.is_tree:
            return self.engine.source.leaf_cache
        return self.engine.cache

    @property
    def index(self):
        return self.engine.source.index

    @property
    def point_file(self):
        """The data file (None for trees, whose leaves carry the pages)."""
        return self.engine.point_file

    @property
    def k(self) -> int:
        """The default result size."""
        return self.spec.k if self.spec is not None else PipelineSpec.k

    @property
    def _disk(self) -> DiskConfig:
        if self.point_file is None:
            return DiskConfig()
        return self.point_file.disk.config

    @property
    def read_latency_s(self) -> float:
        return self._disk.read_latency_s

    @property
    def seq_read_latency_s(self) -> float:
        return self._disk.seq_read_latency_s

    def search(self, query: np.ndarray, k: int | None = None) -> SearchResult:
        return self.engine.search(query, k or self.k)

    def search_many(
        self, queries: np.ndarray, k: int | None = None
    ) -> list[SearchResult]:
        return self.engine.search_many(queries, k or self.k)


def resolve_dataset(section: DatasetSection) -> Dataset:
    """Materialize the spec's dataset (saved file wins over registry)."""
    if section.path is not None:
        from repro.artifacts.legacy import load_dataset_file

        return load_dataset_file(section.path)
    return load_dataset(section.name, seed=section.seed, scale=section.scale)


def resolve_policy(name: str) -> CachePolicy:
    """Map a spec policy string onto the ``CachePolicy`` enum."""
    if name == "lru":
        return CachePolicy.LRU
    if name == "hff":
        return CachePolicy.HFF
    raise ValueError(f"unknown cache policy {name!r}")


def build_resilience(section: ResilienceSection):
    """``(FaultSpec | None, ResiliencePolicy | None)`` from the section."""
    if not section.enabled:
        return None, None
    from repro.faults import ResiliencePolicy, RetryPolicy, parse_fault_spec

    fault_spec = parse_fault_spec(section.faults) if section.faults else None
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_retries=max(0, section.max_retries)),
        deadline_s=section.deadline_ms / 1e3 if section.deadline_ms > 0 else None,
        degraded=section.degraded,
    )
    return fault_spec, policy


# ----------------------------------------------------------------------
# Cache construction (the one copy)
# ----------------------------------------------------------------------
def make_method_cache(
    context,
    method: str,
    tau: int = 8,
    cache_bytes: int = 1 << 20,
    policy: CachePolicy = CachePolicy.HFF,
    kernel: str | None = None,
) -> PointCache:
    """Build and (for HFF) populate the cache of a named method.

    ``kernel`` selects the bound kernel for approximate caches
    (``repro.core.kernels``); exact caches compute distances, not
    bounds, and ignore it.
    """
    kernel = None if kernel == "auto" else kernel
    dataset = context.dataset
    if method == "NO-CACHE":
        return NoCache()
    if method == "EXACT":
        cache = ExactCache(
            dataset.dim,
            cache_bytes,
            dataset.num_points,
            value_bytes=dataset.value_bytes,
            policy=policy,
        )
        if policy is CachePolicy.HFF:
            cache.populate_hff(context.frequencies, dataset.points)
        return cache
    if method == "C-VA":
        # Tune bits so the whole (word-rounded) VA-file fits in cache;
        # fall back to 1 bit/dim when even that does not fit everything.
        from repro.core.cost_model import packed_row_bytes

        bits = 1
        for candidate in range(16, 0, -1):
            if dataset.num_points * packed_row_bytes(dataset.dim, candidate) <= cache_bytes:
                bits = candidate
                break
        histograms = []
        for j in range(dataset.dim):
            domain = dataset.dimension_domain(j)
            histograms.append(build_equidepth(domain, 2**bits))
        encoder = IndividualHistogramEncoder(histograms)
        cache = ApproximateCache(
            encoder, cache_bytes, dataset.num_points, policy, kernel=kernel
        )
        order = np.argsort(-context.frequencies, kind="stable")
        cache.populate(order, dataset.points[order])
        return cache
    from repro.workload.train import (
        TrainSpec,
        derivation_from_context,
        train_cache_plan,
    )

    plan = train_cache_plan(
        None,
        TrainSpec(
            points=dataset.points,
            k=context.k,
            method=method,
            tau=tau,
            cache_bytes=cache_bytes,
            policy=policy,
            value_bytes=dataset.value_bytes,
            domain=dataset.domain,
            derivation=derivation_from_context(context),
            encoder_factory=lambda t: context.encoder(method, t),
            kernel=kernel,
        ),
    )
    return plan.cache


def cache_recipe(
    context,
    method: str,
    tau: int,
    cache_bytes: int,
    index_name: str,
    kernel: str | None = None,
) -> dict | None:
    """The picklable cache recipe of a paper method name.

    The shard layer's ``cache_spec`` form of :func:`make_method_cache`
    (and of the tree leaf cache), so sharded runs cache exactly what the
    unsharded build would.
    """
    if method == "NO-CACHE":
        return None
    kernel = None if kernel == "auto" else kernel
    if index_name in TREE_INDEX_NAMES:
        spec = {"kind": "leaf", "capacity_bytes": cache_bytes, "k": context.k}
        if method == "EXACT":
            spec["exact"] = True
        else:
            spec["encoder"] = context.encoder(method, tau)
            spec["kernel"] = kernel
        if context.dataset.query_log is not None:
            spec["populate_workload"] = context.dataset.query_log.workload
        return spec
    if method == "EXACT":
        return {"kind": "exact", "capacity_bytes": cache_bytes, "policy": "hff"}
    if method == "C-VA":
        raise ValueError(
            "C-VA tunes its encoder to the total budget and is not "
            "supported with --shards"
        )
    return {
        "kind": "approx",
        "capacity_bytes": cache_bytes,
        "policy": "hff",
        "encoder": context.encoder(method, tau),
        "kernel": kernel,
    }


# ----------------------------------------------------------------------
# Pipeline construction (the one copy)
# ----------------------------------------------------------------------
def build_pipeline(
    spec: PipelineSpec,
    dataset: Dataset | None = None,
    context=None,
    metrics=None,
    resilience=None,
) -> Pipeline:
    """Materialize the :class:`Pipeline` a :class:`PipelineSpec` describes.

    ``dataset``/``context`` override the spec's dataset section with
    pre-built objects (shared across methods in sweeps); ``metrics`` and
    ``resilience`` likewise override the spec's sections with live
    objects.
    """
    from repro.eval.methods import METHOD_NAMES

    method = spec.cache.method
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}; choices: {METHOD_NAMES}")
    if dataset is None:
        dataset = resolve_dataset(spec.dataset)
    if metrics is None and spec.metrics.enabled:
        from repro.obs.registry import MetricsRegistry

        metrics = MetricsRegistry()
    if resilience is None and spec.resilience.enabled:
        _, resilience = build_resilience(spec.resilience)
    if spec.index.name in TREE_INDEX_NAMES:
        engine, context = _build_tree_engine(spec, dataset, context, metrics)
    else:
        engine, context = _build_point_engine(
            spec, dataset, context, metrics, resilience
        )
    pipeline = Pipeline(
        engine=engine,
        method=method,
        tau=spec.cache.tau,
        spec=spec,
        context=context,
    )
    if spec.adapt.enabled and not engine.is_tree:
        pipeline.drift_controller = attach_adaptation(
            spec, context, engine, metrics=metrics
        )
    return pipeline


def _build_point_engine(spec, dataset, context, metrics, resilience):
    from repro.eval.methods import WorkloadContext

    if context is None:
        context = WorkloadContext.prepare(
            dataset,
            index_name=spec.index.name,
            index_params=spec.index.params,
            ordering=spec.ordering,
            k=spec.k,
            seed=spec.seed,
        )
    cache = make_method_cache(
        context,
        spec.cache.method,
        tau=spec.cache.tau,
        cache_bytes=spec.cache.cache_bytes,
        policy=resolve_policy(spec.cache.policy),
        kernel=spec.cache.kernel,
    )
    engine = QueryEngine.for_index(
        context.index,
        context.point_file,
        cache,
        metrics=metrics,
        resilience=resilience,
    )
    return engine, context


def attach_adaptation(spec, context, engine, metrics=None):
    """Wire the spec's adapt section onto a live engine.

    Builds the workload model and retrain trigger the section describes,
    hooks query observation into the engine, and returns the
    :class:`~repro.workload.DriftController` that hot-swaps retrained
    caches.  Retrains rebuild the histogram from the *live* F' (the
    context's memoized encoders are offline artifacts), so only the
    global HC methods — whose builders the training core owns — adapt.
    """
    from repro.workload.drift import DriftController, build_trigger
    from repro.workload.hook import attach_workload_hook
    from repro.workload.model import build_workload_model
    from repro.workload.train import _GLOBAL_BUILDERS, TrainSpec

    adapt = spec.adapt
    method = spec.cache.method
    if method not in _GLOBAL_BUILDERS:
        raise ValueError(
            f"adaptation supports the global HC methods "
            f"{sorted(_GLOBAL_BUILDERS)}, not {method!r}"
        )
    if adapt.model == "window":
        recipe = {"kind": "window", "capacity": adapt.capacity}
    else:
        recipe = {
            "kind": "sketch",
            "decay": adapt.decay,
            "max_entries": adapt.capacity,
        }
    model = build_workload_model(recipe)
    threshold = adapt.every if adapt.trigger == "every-n" else adapt.threshold
    trigger = build_trigger(adapt.trigger, threshold, registry=metrics)
    controller = DriftController(
        model,
        TrainSpec(
            points=context.dataset.points,
            index=context.index,
            k=context.k,
            method=method,
            tau=spec.cache.tau,
            cache_bytes=spec.cache.cache_bytes,
            policy=resolve_policy(spec.cache.policy),
            value_bytes=context.dataset.value_bytes,
            domain=context.dataset.domain,
            kernel=None if spec.cache.kernel == "auto" else spec.cache.kernel,
        ),
        engine=engine,
        trigger=trigger,
        metrics=metrics,
    )
    attach_workload_hook(engine, controller=controller)
    return controller


def _build_tree_engine(spec, dataset, context, metrics):
    from repro.eval.methods import WorkloadContext

    method = spec.cache.method
    index = build_index(
        spec.index.name,
        dataset.points,
        seed=spec.seed,
        value_bytes=dataset.value_bytes,
        params=spec.index.params,
    )
    if method == "NO-CACHE":
        return QueryEngine.for_tree(index, None, metrics=metrics), context
    if method == "EXACT":
        cache = LeafNodeCache(
            None,
            spec.cache.cache_bytes,
            exact=True,
            value_bytes=dataset.value_bytes,
        )
    else:
        if context is None:
            context = WorkloadContext.prepare(
                dataset,
                index_name="linear",
                ordering="raw",
                k=spec.k,
                seed=spec.seed,
            )
        encoder = context.encoder(method, spec.cache.tau)
        cache = LeafNodeCache(
            encoder,
            spec.cache.cache_bytes,
            kernel=None if spec.cache.kernel == "auto" else spec.cache.kernel,
        )
    if dataset.query_log is not None:
        freqs = index.leaf_access_frequencies(
            dataset.query_log.workload, spec.k
        )
        cache.populate_by_frequency(freqs, index.leaf_contents)
    return QueryEngine.for_tree(index, cache, metrics=metrics), context


def build_sharded(spec: PipelineSpec, dataset: Dataset | None = None, context=None):
    """Materialize the sharded engine for ``shard.n_shards > 0``.

    Returns ``(engine, specs)`` — the coordinator plus the picklable
    per-shard build specs it was constructed from.
    """
    from repro.eval.methods import WorkloadContext
    from repro.shard.factory import make_sharded_engine, specs_from_method

    if spec.shard.n_shards <= 0:
        raise ValueError("build_sharded needs shard.n_shards > 0")
    if dataset is None:
        dataset = resolve_dataset(spec.dataset)
    if context is None:
        ctx_index = (
            "linear" if spec.index.name in TREE_INDEX_NAMES else spec.index.name
        )
        context = WorkloadContext.prepare(
            dataset,
            index_name=ctx_index,
            ordering=spec.ordering,
            k=spec.k,
            seed=spec.seed,
        )
    fault_spec, policy = build_resilience(spec.resilience)
    specs = specs_from_method(
        dataset,
        context,
        method=spec.cache.method,
        tau=spec.cache.tau,
        cache_bytes=spec.cache.cache_bytes,
        n_shards=spec.shard.n_shards,
        index_name=spec.index.name,
        partition=spec.shard.partition,
        budget_mode=spec.shard.budget_mode,
        seed=spec.seed,
        metrics=spec.metrics.enabled,
        faults=fault_spec,
        resilience=policy,
        kernel=spec.cache.kernel,
    )
    engine_kwargs = {}
    if policy is not None:
        engine_kwargs["degraded"] = policy.degraded
        engine_kwargs["deadline_s"] = policy.deadline_s
    engine = make_sharded_engine(
        specs, executor=spec.shard.executor, **engine_kwargs
    )
    return engine, specs
