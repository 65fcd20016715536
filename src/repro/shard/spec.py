"""Picklable shard build specs and the runtime constructed from them.

A :class:`ShardSpec` fully describes one shard — its member ids, points,
index recipe, cache recipe and disk parameters — using only picklable
values, so the same spec builds the same shard whether it lives in the
coordinator process (serial/thread executors) or in a worker process
(process executor).  All three executors construct shards through
:func:`build_shard_runtime`, which is what makes sharded execution
executor-invariant *by construction*.

The runtime speaks the coordinator's two-round protocol:

1. :meth:`ShardRuntime.probe_batch` — generate candidates and probe the
   shard cache for bounds (global ids out);
2. :meth:`ShardRuntime.refine_batch` — run optimal multi-step refinement
   over the shard's share of the globally reduced survivors, seeded with
   the *global* confirmed set so the stopping threshold and heap
   tie-breaking match the unsharded engine exactly.

Tree shards answer whole queries instead (:meth:`ShardRuntime.search_batch`),
because generation and refinement interleave inside the leaf stream.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.multistep import multistep_knn
from repro.engine.engine import QueryEngine
from repro.engine.stats import QueryStats
from repro.faults.plan import FaultSpec
from repro.faults.policy import ResiliencePolicy, protected_fetcher
from repro.spec.registry import (
    INDEX_REGISTRY,
    TREE_INDEX_NAMES as REGISTRY_TREE_INDEX_NAMES,
)
from repro.spec.build import build_cache, build_disk
from repro.spec.registry import build_index as registry_build_index
from repro.storage.disk import DiskConfig
from repro.storage.pointfile import PointFile


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to build one shard, with picklable values only.

    Attributes:
        shard_id: position of this shard (0-based, stable).
        member_ids: sorted ascending *global* point ids owned by the
            shard.  Sorted membership makes the global<->local mapping
            monotone, preserving relative id order for tie-breaking.
        points: ``(len(member_ids), d)`` rows aligned with ``member_ids``.
        index_name: a key of the shared component registry
            (``repro.spec.registry.INDEX_REGISTRY``) or a ``module:attr``
            reference to a builder callable (used by tests to inject
            custom indexes into process workers).
        index_params: builder-specific parameters (picklable dict).
        cache_spec: cache recipe (built by
            :func:`repro.spec.build.build_cache`), or None for no cache.
            Candidate-path kinds: ``none``, ``exact``, ``approx`` (with
            ``encoder``), each with ``capacity_bytes``, ``policy``
            (``hff``/``lru``) and optional ``populate_gids`` — global
            ids, already restricted to this shard, preloaded in order.
            Tree kind: ``leaf`` with ``capacity_bytes``, ``exact``,
            ``encoder`` and optional ``populate_workload`` queries.
        disk: simulated-disk parameters of the shard's point file.
        value_bytes: stored bytes per coordinate.
        seed: RNG seed forwarded to index builders.
        metrics: build a per-shard ``MetricsRegistry`` when True.
        faults: optional :class:`~repro.faults.FaultSpec` — the shard's
            simulated disk is wrapped in a
            :class:`~repro.faults.FaultyDisk` built from it, so process
            workers reconstruct the exact same fault schedule the
            coordinator would (the spec is frozen and picklable).
        resilience: optional :class:`~repro.faults.ResiliencePolicy`
            forwarded to the shard's ``QueryEngine`` and applied to the
            shard-local refinement fetches; each runtime builds its own
            private breaker/retry state from it.
        workload: optional workload-model recipe (see
            :func:`repro.workload.build_workload_model`, e.g.
            ``{"kind": "sketch", "decay": 0.999}``).  When set, the
            runtime records every probed/searched query into a
            shard-local model; the coordinator collects the per-worker
            models with ``collect_workload`` and merges them at reduce
            time (``ShardedEngine.merged_workload``).
        snapshot_path: optional shard-snapshot root written by
            ``repro.artifacts.sharding.save_shard_snapshots``.  When set,
            ``member_ids``/``points`` (and the cache recipe's arrays) may
            be None — the worker hydrates them from the snapshot via
            ``np.load(mmap_mode="r")``, so a pickled spec is a few hundred
            bytes and every worker process shares one physical copy of
            the arrays through the page cache.
    """

    shard_id: int
    member_ids: np.ndarray | None = None
    points: np.ndarray | None = None
    index_name: str = "linear"
    index_params: dict = field(default_factory=dict)
    cache_spec: dict | None = None
    disk: DiskConfig = field(default_factory=DiskConfig)
    value_bytes: int = 4
    seed: int = 0
    metrics: bool = True
    faults: FaultSpec | None = None
    resilience: ResiliencePolicy | None = None
    workload: dict | None = None
    snapshot_path: str | None = None

    def __post_init__(self) -> None:
        if self.member_ids is None or self.points is None:
            if self.snapshot_path is None:
                raise ValueError(
                    "member_ids/points may only be omitted when "
                    "snapshot_path names a shard snapshot to hydrate from"
                )
            return
        member_ids = np.asarray(self.member_ids, dtype=np.int64)
        points = np.asarray(self.points, dtype=np.float64)
        if member_ids.ndim != 1 or len(member_ids) == 0:
            raise ValueError("member_ids must be a non-empty 1-D array")
        if np.any(np.diff(member_ids) <= 0):
            raise ValueError("member_ids must be strictly increasing")
        if points.ndim != 2 or len(points) != len(member_ids):
            raise ValueError("points must align with member_ids")
        object.__setattr__(self, "member_ids", member_ids)
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class RefineTask:
    """One query's refinement work order for one shard.

    ``remaining_gids``/``remaining_lb`` are the shard's slice of the
    globally reduced survivors (global ids, global lb order preserved);
    ``seed_ids``/``seed_ubs`` carry the *full* global confirmed set so
    the shard's stopping threshold equals the unsharded engine's.
    ``own_pruned``/``own_confirmed`` are the shard's share of the global
    reduction counts, for per-shard stats.  ``skip_refine`` marks the
    global early exit (``>= k`` confirmed results: no shard refines).
    """

    query: np.ndarray
    k: int
    remaining_gids: np.ndarray
    remaining_lb: np.ndarray
    seed_ids: np.ndarray
    seed_ubs: np.ndarray
    own_pruned: int
    own_confirmed: int
    skip_refine: bool


# ----------------------------------------------------------------------
# Index builders
# ----------------------------------------------------------------------
TREE_INDEX_NAMES = REGISTRY_TREE_INDEX_NAMES


def build_index(spec: ShardSpec):
    """Build the shard's index from its spec.

    Known family names route through the shared component registry
    (:data:`repro.spec.registry.INDEX_REGISTRY`) — the same builders the
    unsharded pipeline uses, which is part of what makes sharded
    execution executor-invariant.  ``index_name`` may also be a
    ``module:attr`` reference resolving to a callable ``spec -> index``
    — importable by name, so process workers can construct indexes the
    registry does not know about.
    """
    if spec.index_name in INDEX_REGISTRY:
        return registry_build_index(
            spec.index_name,
            spec.points,
            seed=spec.seed,
            value_bytes=spec.value_bytes,
            params=spec.index_params,
        )
    if ":" not in spec.index_name:
        raise ValueError(
            f"unknown index {spec.index_name!r}; choices: "
            f"{sorted(INDEX_REGISTRY)} or a module:attr reference"
        )
    module_name, attr = spec.index_name.split(":", 1)
    builder = getattr(importlib.import_module(module_name), attr)
    return builder(spec)


# ----------------------------------------------------------------------
# The runtime
# ----------------------------------------------------------------------
class ShardRuntime:
    """One shard's engine plus the coordinator-facing protocol methods."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.member_ids = spec.member_ids
        self.points = spec.points
        #: local tombstone bitmap — rows deleted through ``mutate_batch``
        #: stop being candidates but keep their (local and global) ids.
        self.live_local = np.ones(len(spec.member_ids), dtype=bool)
        index = build_index(spec)
        self.index = index
        self.is_tree = hasattr(index, "leaf_stream") and hasattr(
            index, "leaf_contents"
        )
        metrics = None
        if spec.metrics:
            from repro.obs.registry import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self.cache = build_cache(
            spec.cache_spec,
            spec.points,
            spec.value_bytes,
            member_ids=spec.member_ids,
            index=index if self.is_tree else None,
        )
        if self.is_tree:
            self.point_file = None
            self.engine = QueryEngine.for_tree(
                index, self.cache, metrics=metrics
            )
        else:
            self.point_file = PointFile(
                spec.points,
                disk=build_disk(spec.disk, spec.faults, metrics),
                value_bytes=spec.value_bytes,
            )
            self.engine = QueryEngine.for_index(
                index,
                self.point_file,
                self.cache,
                metrics=metrics,
                resilience=spec.resilience,
            )
        workload_model = None
        if spec.workload is not None:
            from repro.workload.model import build_workload_model

            workload_model = build_workload_model(spec.workload)
        self.engine.set_live_mask(self.live_local)
        self.workload_model = workload_model
        #: query index -> (ctx, own cache hits, own candidate count),
        #: carried from probe_batch to the matching refine_batch.
        self._pending: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    def to_local(self, global_ids: np.ndarray) -> np.ndarray:
        """Map global point ids (must be members) to local row indices."""
        return np.searchsorted(
            self.member_ids, np.asarray(global_ids, dtype=np.int64)
        )

    def _fetch_global(self, global_ids: np.ndarray, tracker):
        return self.point_file.fetch(self.to_local(global_ids), tracker)

    # ------------------------------------------------------------------
    def probe_batch(self, queries: np.ndarray, k: int) -> list[tuple]:
        """Round 1: per query, candidate generation + cache bounds.

        Returns, per query, ``(global_ids, hit_mask, lb, ub)``.  The
        per-query contexts stay pending until ``refine_batch`` closes
        them (so ``Tgen``/``Trefine`` land on one context per query).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if self.workload_model is not None:
            self.workload_model.record_batch(queries)
        self._pending.clear()
        out = []
        for qi, query in enumerate(queries):
            ctx = self.engine.make_context()
            with ctx.phase("generate"):
                local = self.engine.generate.run(
                    query, k, ctx, live=self.engine._combined_filter(None)
                )
            # probe_batch bypasses engine.search, so the tombstone mask
            # is applied here — the same reduction-boundary point the
            # unsharded engine masks at.
            local = self.engine._mask_candidates(local, None)
            if local.size:
                with ctx.phase("probe"):
                    hits, lb, ub = self.engine.cache.lookup(query, local)
            else:
                hits = np.zeros(0, dtype=bool)
                lb = np.zeros(0, dtype=np.float64)
                ub = np.zeros(0, dtype=np.float64)
            self._pending[qi] = (ctx, int(hits.sum()), int(local.size))
            out.append((self.member_ids[local], hits, lb, ub))
        return out

    def refine_batch(self, tasks: list[RefineTask]) -> list[tuple]:
        """Round 2: multi-step refinement of this shard's survivors.

        Returns, per query, ``(exact_global_ids, exact_distances,
        QueryStats)`` where the ids/distances are the shard's refinement
        survivors carrying exact distances (global confirmed seeds are
        stripped — the coordinator merges them exactly once).
        """
        # Faults the shard's retries cannot mask propagate: the executor
        # reports the shard failed and the coordinator degrades.
        fetcher = protected_fetcher(self._fetch_global, self.engine.resilience)
        out = []
        for qi, task in enumerate(tasks):
            ctx, own_hits, own_candidates = self._pending.pop(
                qi, (self.engine.make_context(), 0, 0)
            )
            exact_gids = np.empty(0, dtype=np.int64)
            exact_dists = np.empty(0, dtype=np.float64)
            fetched = 0
            if not task.skip_refine and task.remaining_gids.size:
                with ctx.phase("refine"):
                    refinement = multistep_knn(
                        task.query,
                        task.remaining_gids,
                        task.remaining_lb,
                        task.k,
                        fetcher=fetcher,
                        confirmed_ids=task.seed_ids,
                        confirmed_ubs=task.seed_ubs,
                        tracker=ctx.refine_tracker,
                    )
                    if refinement.num_fetched:
                        local = self.to_local(refinement.fetched_ids)
                        self.cache.admit(local, self.points[local])
                keep = refinement.exact_mask
                exact_gids = refinement.ids[keep]
                exact_dists = refinement.distances[keep]
                fetched = refinement.num_fetched
            stats = QueryStats(
                num_candidates=own_candidates,
                cache_hits=own_hits,
                pruned=task.own_pruned,
                confirmed=task.own_confirmed,
                c_refine=int(task.remaining_gids.size),
                refined_fetches=fetched,
                refine_page_reads=ctx.refine_page_reads,
                gen_page_reads=ctx.gen_page_reads,
            )
            self.engine._observe(stats)
            out.append((exact_gids, exact_dists, stats))
        return out

    def search_batch(self, queries: np.ndarray, k: int) -> list[tuple]:
        """Tree path: whole-query searches, answers in global ids."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if self.workload_model is not None:
            self.workload_model.record_batch(queries)
        out = []
        for query in queries:
            result = self.engine.search(query, k)
            out.append(
                (self.member_ids[result.ids], result.distances, result.stats)
            )
        return out

    # ------------------------------------------------------------------
    def mutate_batch(
        self,
        insert_gids: np.ndarray | None = None,
        insert_points: np.ndarray | None = None,
        delete_gids: np.ndarray | None = None,
    ) -> dict:
        """Apply routed mutations to this shard (coordinator protocol).

        Inserts extend the member set (their global ids must exceed every
        existing member, keeping ``member_ids`` strictly increasing for
        ``to_local``'s searchsorted); deletes flip the local tombstone
        bitmap and free their cache slots.  Either way the engine's live
        mask is refreshed so the very next probe round masks at the
        reduction boundary.
        """
        inserted = deleted = 0
        if insert_gids is not None and len(insert_gids):
            gids = np.asarray(insert_gids, dtype=np.int64)
            rows = np.atleast_2d(np.asarray(insert_points, dtype=np.float64))
            if len(gids) != len(rows):
                raise ValueError("insert ids and points must align")
            if gids.min() <= int(self.member_ids[-1]):
                raise ValueError(
                    "inserted global ids must exceed existing member ids"
                )
            if not hasattr(self.index, "insert_many"):
                raise TypeError(
                    f"index {type(self.index).__name__} has no native insert"
                )
            self.index.insert_many(rows)
            self.member_ids = np.concatenate([self.member_ids, gids])
            self.points = np.vstack([self.points, rows])
            self.live_local = np.concatenate(
                [self.live_local, np.ones(len(gids), dtype=bool)]
            )
            if self.point_file is not None:
                self.point_file.append(rows)
            if self.cache is not None and hasattr(self.cache, "extend_ids"):
                self.cache.extend_ids(len(self.member_ids))
            if self.is_tree and self.cache is not None:
                # Tree inserts may relayout leaves; cached slices are stale.
                self.cache.clear()
            inserted = len(gids)
        if delete_gids is not None and len(delete_gids):
            gids = np.asarray(delete_gids, dtype=np.int64)
            pos = np.searchsorted(self.member_ids, gids)
            safe = np.minimum(pos, len(self.member_ids) - 1)
            mine = self.member_ids[safe] == gids
            local = pos[mine]
            was_live = local[self.live_local[local]]
            self.live_local[local] = False
            if was_live.size:
                if self.point_file is not None:
                    self.point_file.tombstone(was_live)
                if self.cache is not None and hasattr(self.cache, "invalidate"):
                    self.cache.invalidate(was_live)
            deleted = int(was_live.size)
        self.engine.set_live_mask(self.live_local)
        return {"inserted": inserted, "deleted": deleted}

    # ------------------------------------------------------------------
    def collect_metrics(self):
        """The shard's metrics registry (None when metrics are off)."""
        return self.metrics

    def collect_workload(self):
        """The shard's workload model (None when recording is off)."""
        return self.workload_model

    def collect_telemetry(self):
        """The shard cache's telemetry record (None for uncached trees)."""
        if self.cache is None:
            return None
        return self.cache.telemetry

    def ping(self) -> int:
        """Liveness probe; returns the shard id."""
        return int(self.spec.shard_id)


def build_shard_runtime(spec: ShardSpec) -> ShardRuntime:
    """Construct a shard's runtime — the single path all executors use.

    Snapshot-backed specs (``member_ids is None``) are hydrated first:
    the worker memory-maps the shard's arrays from ``snapshot_path``
    instead of unpickling them, so all executors — and all worker
    processes — serve one physical copy of the shard data.
    """
    if spec.member_ids is None or spec.points is None:
        # Lazy import: artifacts.sharding imports ShardSpec from here.
        from repro.artifacts.sharding import load_shard_spec

        spec = load_shard_spec(spec.snapshot_path, spec.shard_id, template=spec)
    return ShardRuntime(spec)
