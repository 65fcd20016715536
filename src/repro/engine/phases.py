"""Explicit phase objects of the Algorithm-1 pipeline.

The engine composes three phases per query:

1. :class:`GeneratePhase` — ask the candidate source for ``C(q)``
   (charges index I/O to the context's generation tracker);
2. :class:`ReducePhase` — cache bounds, ``lb_k``/``ub_k`` thresholds,
   early pruning and true-result detection (no I/O unless the eager
   miss-fetch variant of footnote 6 is enabled);
3. :class:`RefinePhase` — optimal multi-step kNN over the survivors
   (fetches points from the data file, admits them to the cache).

Each phase is a plain object with a ``run`` method so instrumentation
hooks and tests can target them individually.
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import exact_distances
from repro.core.cache import PointCache
from repro.core.multistep import multistep_knn
from repro.core.reduction import ReductionOutcome, reduce_candidates
from repro.engine.context import ExecutionContext
from repro.engine.sources import CandidateSource
from repro.storage.pointfile import PointFile

class GeneratePhase:
    """Phase 1: candidate generation through the source."""

    def __init__(self, source: CandidateSource) -> None:
        self.source = source

    def run(
        self,
        query: np.ndarray,
        k: int,
        ctx: ExecutionContext,
        live: np.ndarray | None = None,
    ) -> np.ndarray:
        return self.source.generate(query, k, ctx, live=live)


class ReducePhase:
    """Phase 2: cache lookup + candidate reduction.

    With ``eager_miss_fetch`` (footnote 6 of the paper) cache misses are
    fetched *before* reduction so their exact distances tighten
    ``lb_k``/``ub_k``; the fetched points are admitted to the cache (a
    dynamic cache warms exactly as fast as under the lazy path — misses
    are fetched eventually either way).
    """

    def __init__(self, cache: PointCache, eager_miss_fetch: bool = False) -> None:
        self.cache = cache
        self.eager_miss_fetch = eager_miss_fetch

    def run(
        self,
        query: np.ndarray,
        candidate_ids: np.ndarray,
        k: int,
        ctx: ExecutionContext,
        fetcher,
    ) -> ReductionOutcome:
        """Reduce one query's candidates.

        The cache bounds exactly these candidates for this query, and
        may skip the rest of a candidate's bounds once it is sure to be
        pruned (``lookup(..., k)``): the reduction is the same.

        Args:
            fetcher: the refine I/O call, ``fetch(ids, tracker)``, used
                by the eager miss fetch (the engine passes
                :func:`~repro.faults.policy.protected_fetcher`'s result).
        """
        hits, lb, ub = self.cache.lookup(query, candidate_ids, k)
        if self.eager_miss_fetch and not hits.all():
            # Eager fetches are charged to the refinement tracker: the
            # same pages are read by Phase 3 anyway, and sharing one
            # tracker guarantees no page is ever double-charged.
            miss_ids = candidate_ids[~hits]
            points = fetcher(miss_ids, ctx.refine_tracker)
            dist = exact_distances(query, points)
            lb = lb.copy()
            ub = ub.copy()
            lb[~hits] = dist
            ub[~hits] = dist
            self.cache.admit(miss_ids, points)
        return reduce_candidates(candidate_ids, hits, lb, ub, k)


class RefinePhase:
    """Phase 3: optimal multi-step refinement over the survivors."""

    def __init__(self, cache: PointCache, point_file: PointFile) -> None:
        self.cache = cache
        self.point_file = point_file

    def run(
        self,
        query: np.ndarray,
        outcome: ReductionOutcome,
        k: int,
        ctx: ExecutionContext,
        fetcher,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Resolve the final top-k; returns (ids, distances, exact, fetched).

        Algorithm 1 line 14: when Phase 2 already confirmed k results,
        refinement is skipped entirely (``|R| >= k``).

        Args:
            fetcher: the refine I/O call, ``fetch(ids, tracker)``, made
                once per multi-step round.
        """
        if len(outcome.confirmed_ids) >= k:
            order = np.lexsort((outcome.confirmed_ids, outcome.confirmed_ub))[:k]
            return (
                outcome.confirmed_ids[order],
                outcome.confirmed_ub[order],
                np.zeros(len(order), dtype=bool),
                0,
            )
        refinement = multistep_knn(
            query,
            outcome.remaining_ids,
            outcome.remaining_lb,
            k,
            fetcher=fetcher,
            confirmed_ids=outcome.confirmed_ids,
            confirmed_ubs=outcome.confirmed_ub,
            tracker=ctx.refine_tracker,
        )
        if refinement.num_fetched:
            self.cache.admit(
                refinement.fetched_ids,
                self.point_file.points[refinement.fetched_ids],
            )
        return (
            refinement.ids,
            refinement.distances,
            refinement.exact_mask,
            refinement.num_fetched,
        )
