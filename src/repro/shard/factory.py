"""Shard specs from one global cache recipe.

:func:`build_shard_specs` partitions the points, splits the global
cache recipe's budget, restricts the global HFF cache content to each
shard, and emits picklable :class:`ShardSpec`\\ s.  The global recipe is
the unsharded build's own (:func:`repro.spec.build.cache_recipe`, which
:func:`repro.spec.build.build_sharded` passes here), so the sharded run
caches exactly what the unsharded build would.

Cache-budget semantics (see :mod:`repro.shard.budget`): the default
``global-hff`` mode performs a *content* split — each shard's capacity
is sized to hold exactly its members of the unsharded cache, which is
what makes sharded bounds (and hence results) byte-identical.  The
``proportional`` and ``workload`` modes split the byte budget instead
(workload weights = each shard's candidate-frequency mass, the cost
model's ``rho_hit`` driver) and let every shard fill greedily from its
own most frequent points.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitpack import BitPackedMatrix
from repro.core.cache import hff_order
from repro.shard.budget import global_hff_members, split_cache_budget
from repro.shard.partition import partition_ids
from repro.shard.spec import ShardSpec
from repro.storage.disk import DiskConfig


def approx_item_bytes(encoder) -> int:
    """Bytes one encoded point occupies in an ``ApproximateCache``."""
    return BitPackedMatrix(0, encoder.n_fields, encoder.bits).row_bytes


def _shard_cache_specs(
    groups: list[np.ndarray],
    shard_of: np.ndarray,
    cache_spec: dict | None,
    frequencies: np.ndarray | None,
    dim: int,
    value_bytes: int,
    budget_mode: str,
) -> list[dict | None]:
    """Per-shard cache recipes from one global recipe."""
    if cache_spec is None or cache_spec.get("kind", "none") == "none":
        return [None] * len(groups)
    # The global preload (global ids) is re-derived per shard below.
    cache_spec = {k: v for k, v in cache_spec.items() if k != "populate_gids"}
    kind = cache_spec["kind"]
    policy = cache_spec.get("policy", "hff")
    total_bytes = int(cache_spec["capacity_bytes"])
    if kind == "leaf":
        budgets = split_cache_budget(
            total_bytes, [len(g) for g in groups], mode="proportional"
        )
        return [
            {**cache_spec, "capacity_bytes": budgets[s]}
            for s in range(len(groups))
        ]
    if kind == "exact":
        item_bytes = dim * value_bytes
    elif kind == "approx":
        item_bytes = approx_item_bytes(cache_spec["encoder"])
    else:
        raise ValueError(f"unknown cache kind {kind!r}")

    if policy == "hff" and budget_mode == "global-hff":
        if frequencies is None:
            raise ValueError("global-hff budget split needs frequencies")
        members = global_hff_members(frequencies, total_bytes, item_bytes)
        owners = shard_of[members]
        out = []
        for s in range(len(groups)):
            own = members[owners == s]  # global population order kept
            out.append(
                {
                    **cache_spec,
                    "capacity_bytes": int(len(own)) * item_bytes,
                    "populate_gids": own,
                }
            )
        return out

    if budget_mode == "workload":
        if frequencies is None:
            raise ValueError("workload budget split needs frequencies")
        weights = np.array(
            [float(frequencies[g].sum()) for g in groups], dtype=np.float64
        )
        budgets = split_cache_budget(
            total_bytes, [len(g) for g in groups], mode="workload",
            weights=weights,
        )
    else:
        budgets = split_cache_budget(
            total_bytes, [len(g) for g in groups], mode="proportional"
        )
    out = []
    for s, group in enumerate(groups):
        spec = {**cache_spec, "capacity_bytes": budgets[s]}
        if policy == "hff" and frequencies is not None:
            order = hff_order(frequencies)
            spec["populate_gids"] = order[np.isin(order, group)]
        out.append(spec)
    return out


def build_shard_specs(
    points: np.ndarray,
    n_shards: int,
    index_name: str = "linear",
    index_params: dict | None = None,
    cache_spec: dict | None = None,
    frequencies: np.ndarray | None = None,
    partition: str = "contiguous",
    budget_mode: str = "global-hff",
    disk: DiskConfig | None = None,
    value_bytes: int = 4,
    seed: int = 0,
    metrics: bool = True,
    faults=None,
    resilience=None,
    workload: dict | None = None,
) -> list[ShardSpec]:
    """Partition ``points`` into picklable shard build specs.

    Args:
        points: the full ``(n, d)`` dataset.
        n_shards: number of shards.
        index_name: per-shard index family (a ``ShardSpec.index_name``).
        index_params: shared index parameters.  For ``c2lsh`` a
            ``base_radius`` calibrated on the *full* dataset is inserted
            automatically, so every shard hashes with identical family
            geometry.
        cache_spec: the *global* cache recipe (same shape as
            ``ShardSpec.cache_spec`` but with the total capacity);
            split per shard according to ``budget_mode``.
        frequencies: per-point candidate frequencies of the workload
            (required for HFF population and the workload budget split).
        partition: a :data:`~repro.shard.partition.PARTITION_STRATEGIES`
            member.
        budget_mode: ``global-hff`` (content split, byte-identical
            bounds), ``proportional`` or ``workload``.
        faults: optional :class:`~repro.faults.FaultSpec` applied to
            every shard's simulated disk (each shard builds its own
            schedule from the same frozen spec).
        resilience: optional :class:`~repro.faults.ResiliencePolicy`
            forwarded to every shard's engine.
        workload: optional workload-model recipe
            (``ShardSpec.workload``); every shard then records served
            queries for reduce-time merging.
    """
    points = np.asarray(points, dtype=np.float64)
    index_params = dict(index_params or {})
    if index_name == "c2lsh" and "base_radius" not in index_params:
        from repro.lsh.c2lsh import calibrate_base_radius

        index_params["base_radius"] = calibrate_base_radius(
            points, seed=seed
        )
    groups = partition_ids(
        len(points), n_shards, strategy=partition, points=points, seed=seed
    )
    shard_of = np.empty(len(points), dtype=np.int64)
    for s, group in enumerate(groups):
        shard_of[group] = s
    cache_specs = _shard_cache_specs(
        groups,
        shard_of,
        cache_spec,
        frequencies,
        points.shape[1],
        value_bytes,
        budget_mode,
    )
    return [
        ShardSpec(
            shard_id=s,
            member_ids=group,
            points=points[group],
            index_name=index_name,
            index_params=index_params,
            cache_spec=cache_specs[s],
            disk=disk or DiskConfig(),
            value_bytes=value_bytes,
            seed=seed,
            metrics=metrics,
            faults=faults,
            resilience=resilience,
            workload=workload,
        )
        for s, group in enumerate(groups)
    ]
