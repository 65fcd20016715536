"""Cached kNN joins (the paper's first future-work operation).

A kNN join answers, for every point of a query set ``Q``, its k nearest
neighbors in the data set ``P``.  Joins are the best case for the
paper's cache: the "workload" is the join's own query batch, so
candidate frequency is structural rather than historical, and a single
approximate cache is amortized over thousands of lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.engine import QueryEngine
from repro.engine.stats import QueryStats


@dataclass(frozen=True)
class JoinResult:
    """Outcome of a kNN join.

    Attributes:
        ids: ``(|Q|, k)`` neighbor ids per query point (-1 pads short
            rows when the candidate set runs out).
        distances: matching distance estimates (exact except for
            Phase-2-confirmed members, which carry guaranteed upper
            bounds).
        total_page_reads: refinement page reads summed over the join.
        total_gen_reads: candidate-generation page reads.
        per_query: the individual ``QueryStats``.
    """

    ids: np.ndarray
    distances: np.ndarray
    total_page_reads: int
    total_gen_reads: int
    per_query: tuple[QueryStats, ...]

    @property
    def avg_page_reads(self) -> float:
        if not self.per_query:
            return 0.0
        return self.total_page_reads / len(self.per_query)


def knn_join(
    queries: np.ndarray, searcher: QueryEngine, k: int
) -> JoinResult:
    """Join every query point with its k nearest data points.

    Args:
        queries: ``(m, d)`` query set ``Q``.
        searcher: a ready Algorithm-1 engine (index + cache + file);
            results are identical to the uncached index's answers.
        k: neighbors per query point.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    ids = np.full((len(queries), k), -1, dtype=np.int64)
    dists = np.full((len(queries), k), np.inf, dtype=np.float64)
    stats: list[QueryStats] = []
    refine_reads = 0
    gen_reads = 0
    # The join *is* a query batch: the engine probes the cache once for
    # the union of candidates and decodes each cached code exactly once.
    for i, result in enumerate(searcher.search_many(queries, k)):
        found = min(len(result.ids), k)
        ids[i, :found] = result.ids[:found]
        dists[i, :found] = result.distances[:found]
        stats.append(result.stats)
        refine_reads += result.stats.refine_page_reads
        gen_reads += result.stats.gen_page_reads
    return JoinResult(
        ids=ids,
        distances=dists,
        total_page_reads=refine_reads,
        total_gen_reads=gen_reads,
        per_query=tuple(stats),
    )


def knn_self_join(
    searcher: QueryEngine, k: int, exclude_self: bool = True
) -> JoinResult:
    """kNN self-join of the data set behind ``searcher``.

    Each point is joined with its k nearest *other* points (pass
    ``exclude_self=False`` to keep the point itself, which is always its
    own nearest neighbor).
    """
    points = searcher.point_file.points
    inner_k = k + 1 if exclude_self else k
    result = knn_join(points, searcher, inner_k)
    if not exclude_self:
        return result
    ids = np.full((len(points), k), -1, dtype=np.int64)
    dists = np.full((len(points), k), np.inf, dtype=np.float64)
    for i in range(len(points)):
        row_ids = result.ids[i]
        row_dists = result.distances[i]
        keep = row_ids != i
        ids[i, : min(k, keep.sum())] = row_ids[keep][:k]
        dists[i, : min(k, keep.sum())] = row_dists[keep][:k]
    return JoinResult(
        ids=ids,
        distances=dists,
        total_page_reads=result.total_page_reads,
        total_gen_reads=result.total_gen_reads,
        per_query=result.per_query,
    )
