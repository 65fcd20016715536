"""Cache-budget splitting across shards.

Three splits, trading fidelity against simplicity:

* ``proportional`` — bytes proportional to shard cardinality (largest
  remainder, so the shares sum exactly to the total);
* ``workload`` — bytes proportional to each shard's candidate-frequency
  mass (the cost model's ``rho_hit`` driver): shards that attract more
  of the workload get more cache;
* ``global_hff_members`` — the *content* split: compute which items the
  unsharded HFF cache would hold, then give each shard exactly its
  members of that set.  This is the split the differential harness uses
  — shard caches become the literal restriction of the global cache, so
  every candidate sees byte-identical bounds and the sharded pipeline
  reproduces the unsharded engine bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.cache import hff_order

BUDGET_MODES = ("proportional", "workload", "global-hff")


def _largest_remainder(total: int, weights: np.ndarray) -> list[int]:
    """Integer shares of ``total`` proportional to ``weights``; sums exactly."""
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    mass = float(weights.sum())
    if mass == 0:
        weights = np.ones_like(weights)
        mass = float(weights.sum())
    exact = total * weights / mass
    shares = np.floor(exact).astype(np.int64)
    shortfall = int(total - shares.sum())
    if shortfall:
        # Hand leftover bytes to the largest fractional parts; ties go to
        # the lower shard id (argsort is stable on the negated key).
        order = np.argsort(-(exact - shares), kind="stable")
        shares[order[:shortfall]] += 1
    return [int(s) for s in shares]


def split_cache_budget(
    total_bytes: int,
    shard_sizes: list[int] | np.ndarray,
    mode: str = "proportional",
    weights: np.ndarray | None = None,
) -> list[int]:
    """Per-shard cache budgets in bytes, summing exactly to ``total_bytes``.

    Args:
        total_bytes: the unsharded cache budget ``CS``.
        shard_sizes: points per shard.
        mode: ``proportional`` or ``workload``.
        weights: per-shard workload mass (required for ``workload``);
            e.g. the sum of candidate frequencies over each shard's
            members.
    """
    if total_bytes < 0:
        raise ValueError("total_bytes must be non-negative")
    sizes = np.asarray(shard_sizes, dtype=np.int64)
    if mode == "proportional":
        return _largest_remainder(total_bytes, sizes)
    if mode == "workload":
        if weights is None:
            raise ValueError("workload split needs per-shard weights")
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != len(sizes):
            raise ValueError("weights must align with shard_sizes")
        return _largest_remainder(total_bytes, weights)
    raise ValueError(
        f"unknown budget mode {mode!r}; choices: proportional, workload"
    )


def global_hff_members(
    frequencies: np.ndarray, capacity_bytes: int, item_bytes: int
) -> np.ndarray:
    """Ids the unsharded HFF cache holds, in population order.

    Args:
        frequencies: per-point candidate frequency of the workload.
        capacity_bytes: the unsharded cache budget.
        item_bytes: bytes one cached item occupies (``row_bytes`` of the
            packed code store, or ``dim * value_bytes`` for EXACT).
    """
    if item_bytes <= 0:
        raise ValueError("item_bytes must be positive")
    n = len(np.asarray(frequencies))
    max_items = min(capacity_bytes // item_bytes, n)
    return hff_order(frequencies)[:max_items]
