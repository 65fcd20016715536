"""Unified per-query accounting for both cached-search paths.

Historically the candidate-set pipeline and the
tree-leaf pipeline (``repro.index.treesearch``) reported incompatible
records.  The engine unifies them: ``QueryStats`` carries the Algorithm-1
counters used by every experiment in the paper plus *optional* tree-path
counters (``None`` on the candidate-set path).  ``SearchResult`` is the
single answer type of the engine; tree answers carry exact distances and
an all-true ``exact_mask``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QueryStats:
    """Per-query accounting used by every experiment in the paper.

    Attributes:
        num_candidates: ``|C(q)|`` from the index (deduplicated); on the
            tree path, the number of points whose distance or bound was
            computed.
        cache_hits: candidates found in the cache.
        pruned: candidates eliminated by early pruning.
        confirmed: candidates detected as true results without I/O.
        c_refine: candidates entering the refinement phase (Eqn. 1).
        refined_fetches: points actually fetched by multi-step refinement
            (leaves fetched, on the tree path).
        refine_page_reads: disk pages read during refinement.
        gen_page_reads: disk pages read during candidate generation.
        leaves_streamed: tree path only — leaves whose ``mindist`` was
            examined.
        leaf_fetches: tree path only — leaves read from disk.
        cached_leaf_hits: tree path only — leaves answered from the
            leaf-node cache.
        deferred_fetches: tree path only — cached leaves read later after
            their bounds failed to settle the query.
        points_seen: tree path only — points whose distance (or bound)
            was computed.
    """

    num_candidates: int
    cache_hits: int
    pruned: int
    confirmed: int
    c_refine: int
    refined_fetches: int
    refine_page_reads: int
    gen_page_reads: int
    leaves_streamed: int | None = None
    leaf_fetches: int | None = None
    cached_leaf_hits: int | None = None
    deferred_fetches: int | None = None
    points_seen: int | None = None

    @property
    def hit_ratio(self) -> float:
        """``rho_hit``: cache hits over candidates."""
        if self.num_candidates == 0:
            return 0.0
        return self.cache_hits / self.num_candidates

    @property
    def prune_ratio(self) -> float:
        """``rho_prune``: pruned-or-confirmed hits over cache hits."""
        if self.cache_hits == 0:
            return 0.0
        return (self.pruned + self.confirmed) / self.cache_hits

    @property
    def page_reads(self) -> int:
        return self.refine_page_reads + self.gen_page_reads

    @property
    def is_tree_query(self) -> bool:
        """True when the stats came from the tree-leaf pipeline."""
        return self.leaves_streamed is not None


@dataclass(frozen=True)
class QueryOutcome:
    """Completeness record of one answered query.

    The common case is the :data:`COMPLETE` singleton.  When resilience
    machinery degrades a query to a cache-only answer (breaker open,
    deadline expired, I/O retries exhausted) or a sharded batch loses
    workers, the outcome says so and carries the bound-derived quality
    certificate.

    Attributes:
        complete: True when the answer is exactly what the fault-free
            engine would have returned.
        reason: why the answer is partial — ``"breaker_open"``,
            ``"deadline"``, ``"io_failure"`` or ``"shard_failure"``
            (None when complete).
        max_bound_error: largest ``ub - lb`` gap over the reported
            results; 0.0 for exact answers, ``inf`` when an uncached
            candidate (no bounds at all) had to fill a slot.  This is the
            paper's τ-bit rectangle machinery reused as an error
            certificate: every reported distance ``d`` satisfies
            ``true distance in [d - max_bound_error, d]``.
        shards_failed / shards_total: sharded execution only — how many
            shards contributed nothing to this answer.
    """

    complete: bool = True
    reason: str | None = None
    max_bound_error: float = 0.0
    shards_failed: int = 0
    shards_total: int = 0


#: Shared outcome for the overwhelmingly common fault-free case.
COMPLETE = QueryOutcome()


@dataclass(frozen=True)
class SearchResult:
    """kNN answer plus accounting.

    ``ids`` are the result identifiers (the paper returns ids only);
    ``distances`` hold exact distances except for Phase-2-confirmed results,
    where a guaranteed upper bound is reported (``exact_mask`` tells which).
    ``outcome`` records completeness: degraded (cache-only) and
    partial-shard answers carry ``outcome.complete == False``.
    """

    ids: np.ndarray
    distances: np.ndarray
    exact_mask: np.ndarray
    stats: QueryStats
    outcome: QueryOutcome = COMPLETE


def unify_tree_stats(tree_stats) -> QueryStats:
    """Map a ``TreeQueryStats`` record onto the unified ``QueryStats``.

    The candidate-set counters that have no tree equivalent stay at zero
    (``cache_hits`` counts *leaves*, not points, so it lives in the
    dedicated ``cached_leaf_hits`` field instead of skewing the point-level
    hit ratio).
    """
    return QueryStats(
        num_candidates=tree_stats.points_seen,
        cache_hits=0,
        pruned=0,
        confirmed=0,
        c_refine=0,
        refined_fetches=tree_stats.leaf_fetches,
        refine_page_reads=tree_stats.page_reads,
        gen_page_reads=0,
        leaves_streamed=tree_stats.leaves_streamed,
        leaf_fetches=tree_stats.leaf_fetches,
        cached_leaf_hits=tree_stats.cached_leaf_hits,
        deferred_fetches=tree_stats.deferred_fetches,
        points_seen=tree_stats.points_seen,
    )
