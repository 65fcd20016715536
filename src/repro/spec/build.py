"""The single pipeline-construction implementation.

Every caller — ``Experiment.run``, the CLI, the serving factory and
snapshot verification — describes what it wants as a
:class:`~repro.spec.PipelineSpec` and builds it through
:func:`build_pipeline` / :func:`build_sharded` here.  Both builds share
one construction path: :func:`cache_recipe` maps the cache section to a
recipe, :func:`build_cache` constructs it (in every shard too) and
:func:`build_disk` makes each data file's disk, faulty or not.  Keeping
one copy is what makes snapshot artifacts trustworthy: the spec embedded
in a manifest rebuilds through exactly the code that built the original.
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
    hff_order,
)
from repro.core.encoder import IndividualHistogramEncoder
from repro.data.datasets import Dataset, load_dataset
from repro.engine.engine import QueryEngine
from repro.engine.stats import SearchResult
from repro.faults.disk import FaultyDisk
from repro.spec.errors import SpecError
from repro.spec.registry import TREE_INDEX_NAMES, build_index
from repro.spec.sections import (
    CacheSection,
    DatasetSection,
    PipelineSpec,
    ResilienceSection,
)
from repro.storage.disk import DiskConfig, SimulatedDisk
from repro.storage.pointfile import PointFile


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
        if section.faults:
            raise SpecError(
                f"spec section [resilience] names faults ({section.faults!r}) "
                "but is disabled, so no fault would be injected. Workaround: "
                "set resilience.enabled = true, or drop resilience.faults.",
                sections=("resilience",),
            )
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
# Cache and disk construction (the one copy)
# ----------------------------------------------------------------------
def cache_recipe(
    cache: CacheSection,
    index_name: str,
    dataset: Dataset,
    k: int,
    context=None,
) -> dict | None:
    """The picklable cache recipe of a cache section on an index family.

    The one mapping from a :class:`CacheSection` to what
    :func:`build_cache` constructs, for the unsharded build and (split
    per shard by ``repro.shard.factory.build_shard_specs``) the sharded
    one.  ``context`` is the :class:`~repro.eval.methods.WorkloadContext`
    supplying the trained encoders and the HFF candidate frequencies;
    only a tree's EXACT leaf cache needs none.  Returns None for
    NO-CACHE.
    """
    method = cache.method
    if method == "NO-CACHE":
        return None
    if index_name in TREE_INDEX_NAMES:
        recipe = {"kind": "leaf", "capacity_bytes": cache.cache_bytes, "k": k}
        if method == "EXACT":
            recipe["exact"] = True
        else:
            recipe["encoder"] = context.encoder(method, cache.tau)
        if dataset.query_log is not None:
            recipe["populate_workload"] = dataset.query_log.workload
        return recipe
    if method == "EXACT":
        recipe = {"kind": "exact"}
    elif method == "C-VA":
        # Tune bits so the whole (word-rounded) VA-file fits in cache;
        # fall back to 1 bit/dim when even that does not fit everything.
        from repro.core.cost_model import packed_row_bytes

        bits = 1
        for candidate in range(16, 0, -1):
            row_bytes = packed_row_bytes(dataset.dim, candidate)
            if dataset.num_points * row_bytes <= cache.cache_bytes:
                bits = candidate
                break
        encoder = IndividualHistogramEncoder(
            [
                build_equidepth(dataset.dimension_domain(j), 2**bits)
                for j in range(dataset.dim)
            ]
        )
        recipe = {"kind": "approx", "encoder": encoder}
    else:
        encoder = context.encoder(method, cache.tau)
        recipe = {"kind": "approx", "encoder": encoder}
    recipe["capacity_bytes"] = cache.cache_bytes
    recipe["policy"] = cache.policy
    # C-VA holds the whole VA-file whatever the admission policy.
    if cache.policy == "hff" or method == "C-VA":
        recipe["populate_gids"] = hff_order(context.frequencies)
    return recipe


def build_cache(
    recipe: dict | None,
    points: np.ndarray,
    value_bytes: int = 4,
    member_ids: np.ndarray | None = None,
    index=None,
):
    """Construct and populate the cache a recipe describes.

    The only code that builds an ``ExactCache``, ``ApproximateCache`` or
    ``LeafNodeCache`` from a recipe: the unsharded build, every shard
    runtime and the workload trainer all call it.

    Args:
        recipe: a :func:`cache_recipe` dict (or a shard's split of one);
            None or kind ``none`` means no cache.
        points: the rows the cache's ids address.
        value_bytes: stored bytes per coordinate.
        member_ids: the global id of each row of ``points`` (a shard's
            members), mapping the recipe's global ``populate_gids``
            onto rows; None when ids are row numbers.
        index: the tree a ``leaf`` recipe populates from; a tree takes
            no other kind.

    Returns:
        The populated cache: ``NoCache`` for an uncached point index,
        None for an uncached tree.
    """
    kind = "none" if recipe is None else recipe.get("kind", "none")
    if kind == "none":
        return NoCache() if index is None else None
    if (kind == "leaf") != (index is not None):
        raise ValueError("tree indexes take a 'leaf' (or 'none') cache recipe")
    capacity = int(recipe["capacity_bytes"])
    if kind == "leaf":
        cache = LeafNodeCache(
            recipe.get("encoder"),
            capacity,
            exact=bool(recipe.get("exact", False)),
            value_bytes=value_bytes,
        )
        workload = recipe.get("populate_workload")
        if workload is not None and len(workload):
            freqs = index.leaf_access_frequencies(
                workload, int(recipe.get("k", 10))
            )
            cache.populate_by_frequency(freqs, index.leaf_contents)
        return cache
    policy = resolve_policy(recipe.get("policy", "hff"))
    if kind == "exact":
        cache = ExactCache(
            points.shape[1],
            capacity,
            len(points),
            value_bytes=value_bytes,
            policy=policy,
        )
    elif kind == "approx":
        cache = ApproximateCache(
            recipe["encoder"],
            capacity,
            len(points),
            policy=policy,
        )
    else:
        raise ValueError(f"unknown cache kind {kind!r}")
    populate_gids = recipe.get("populate_gids")
    if populate_gids is not None and len(populate_gids):
        rows = np.asarray(populate_gids, dtype=np.int64)
        if member_ids is not None:
            rows = np.searchsorted(member_ids, rows)
        rows = rows[: cache.max_items]
        cache.populate(rows, points[rows])
    return cache


def build_disk(config: DiskConfig, faults=None, metrics=None):
    """A data file's simulated disk, behind a ``FaultyDisk`` when
    ``faults`` (a :class:`~repro.faults.FaultSpec`) is active.

    The one disk constructor: the workload context's shared file, the
    unsharded engine's private faulty file and every shard's file.
    """
    disk = SimulatedDisk(config)
    if faults is not None and faults.active:
        disk = FaultyDisk(disk, faults, registry=metrics)
    return disk


def prepare_context(spec: PipelineSpec, dataset: Dataset):
    """The :class:`~repro.eval.methods.WorkloadContext` a spec trains on.

    Tree caches train their encoders on a linear scan's workload; the
    context's own data file is then never read.
    """
    from repro.eval.methods import WorkloadContext

    if spec.index.name in TREE_INDEX_NAMES:
        return WorkloadContext.prepare(
            dataset, index_name="linear", k=spec.k, seed=spec.seed
        )
    return WorkloadContext.prepare(
        dataset,
        index_name=spec.index.name,
        index_params=spec.index.params,
        ordering=spec.ordering,
        k=spec.k,
        seed=spec.seed,
    )


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
    pre-built objects (shared across methods in sweeps); ``metrics``
    likewise overrides the metrics section with a live registry, and
    ``resilience`` (a live ``ResiliencePolicy``) the policy the
    resilience section describes — its faults apply either way.
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
    faults, policy = build_resilience(spec.resilience)
    if resilience is None:
        resilience = policy
    if spec.index.name in TREE_INDEX_NAMES:
        if spec.ordering != "raw":
            raise SpecError(
                f"spec ordering {spec.ordering!r} is not supported with the "
                f"tree index {spec.index.name!r}: it keeps its leaves in "
                "memory and has no data file to lay out. Workaround: set "
                "ordering = \"raw\", or pick a candidate-set index (linear, "
                "vafile, c2lsh, ...).",
                sections=("index",),
            )
        if faults is not None and faults.active:
            raise SpecError(
                f"spec section [resilience] injects disk faults "
                f"({spec.resilience.faults!r}), but the tree index "
                f"{spec.index.name!r} reads its leaves from memory and has "
                "no data file to fault. Workaround: drop resilience.faults, "
                "or pick a candidate-set index (linear, vafile, c2lsh, ...).",
                sections=("resilience", "index"),
            )
        engine, context = _build_tree_engine(spec, dataset, context, metrics)
    else:
        if context is None:
            context = prepare_context(spec, dataset)
        engine = _build_point_engine(spec, context, metrics, resilience, faults)
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


def _build_point_engine(spec, context, metrics, resilience, faults):
    dataset = context.dataset
    recipe = cache_recipe(spec.cache, spec.index.name, dataset, spec.k, context)
    cache = build_cache(recipe, dataset.points, dataset.value_bytes)
    point_file = context.point_file
    if faults is not None and faults.active:
        # The context's file is shared (replicas, compare sweeps), so the
        # faulty disk goes on a private file over the same layout.
        point_file = PointFile(
            point_file.points,
            disk=build_disk(point_file.disk.config, faults, metrics),
            order=point_file._order,
            value_bytes=point_file.value_bytes,
        )
    return QueryEngine.for_index(
        context.index,
        point_file,
        cache,
        metrics=metrics,
        resilience=resilience,
    )


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
        ),
        engine=engine,
        trigger=trigger,
        metrics=metrics,
    )
    attach_workload_hook(engine, controller=controller)
    return controller


def _build_tree_engine(spec, dataset, context, metrics):
    index = build_index(
        spec.index.name,
        dataset.points,
        seed=spec.seed,
        value_bytes=dataset.value_bytes,
        params=spec.index.params,
    )
    if context is None and spec.cache.method not in ("NO-CACHE", "EXACT"):
        context = prepare_context(spec, dataset)
    recipe = cache_recipe(spec.cache, spec.index.name, dataset, spec.k, context)
    cache = build_cache(recipe, dataset.points, dataset.value_bytes, index=index)
    return QueryEngine.for_tree(index, cache, metrics=metrics), context


def build_sharded(spec: PipelineSpec, dataset: Dataset | None = None, context=None):
    """Materialize the sharded engine for ``shard.n_shards > 0``.

    Returns ``(engine, specs)`` — the coordinator plus the picklable
    per-shard build specs it was constructed from.  The shards cache
    the per-shard split of the unsharded build's :func:`cache_recipe`.
    """
    from repro.shard.engine import ShardedEngine
    from repro.shard.factory import build_shard_specs

    if spec.shard.n_shards <= 0:
        raise ValueError("build_sharded needs shard.n_shards > 0")
    if spec.cache.method == "C-VA":
        raise ValueError(
            "C-VA tunes its encoder to the total budget and is not "
            "supported with --shards"
        )
    if spec.ordering != "raw":
        raise SpecError(
            f"spec ordering {spec.ordering!r} is not supported with "
            "[shard]: each shard lays its data file out in raw id order. "
            "Workaround: set ordering = \"raw\" or shard.n_shards = 0.",
            sections=("shard",),
        )
    if dataset is None:
        dataset = resolve_dataset(spec.dataset)
    if context is None:
        context = prepare_context(spec, dataset)
    faults, policy = build_resilience(spec.resilience)
    specs = build_shard_specs(
        dataset.points,
        spec.shard.n_shards,
        index_name=spec.index.name,
        index_params=spec.index.params,
        cache_spec=cache_recipe(
            spec.cache, spec.index.name, dataset, spec.k, context
        ),
        frequencies=context.frequencies,
        partition=spec.shard.partition,
        budget_mode=spec.shard.budget_mode,
        value_bytes=dataset.value_bytes,
        seed=spec.seed,
        metrics=spec.metrics.enabled,
        faults=faults,
        resilience=policy,
    )
    engine = ShardedEngine(
        specs,
        executor=spec.shard.executor,
        degraded=policy is not None and policy.degraded,
        deadline_s=None if policy is None else policy.deadline_s,
    )
    return engine, specs
