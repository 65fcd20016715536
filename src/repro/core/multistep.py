"""Phase 3: optimal multi-step kNN refinement (paper Section 2.3).

Implements the optimal multi-step algorithm of Seidl & Kriegel (SIGMOD'98)
as generalized by Kriegel et al. (SSTD'07) to lower *and* upper bounds:
candidates are fetched from disk in ascending lower-bound order; fetching
stops as soon as the next lower bound exceeds the k-th best distance known
so far.  Candidates confirmed by Phase 2 participate through their upper
bounds (they are guaranteed results and tighten the stopping threshold
without being fetched).

The stopping rule is evaluated in rounds rather than one candidate at a
time.  A fetched distance is never below its lower bound, so the k-th
best distance can never drop below ``floor``, the k-th smallest of the
current estimates and the next k unfetched lower bounds.  Every unfetched
candidate with ``lb <= floor`` would therefore be fetched by the
one-at-a-time rule too, and a round fetches that whole run with one
fetcher call.  The candidates fetched, their order and the result are
those of the one-at-a-time rule; only the number of fetcher calls drops.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.bounds import exact_distances
from repro.storage.iostats import QueryIOTracker

#: Signature of the disk access used by refinement: ids -> (m, d) points.
Fetcher = Callable[[np.ndarray, QueryIOTracker | None], np.ndarray]


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of the refinement phase.

    Attributes:
        ids: final result ids (``<= k`` of them, best first).
        distances: exact distance where the point was fetched, otherwise
            the (conservative) upper bound of a confirmed candidate.
        exact_mask: True where ``distances`` is an exact distance.
        fetched_ids: candidates actually read from disk, in fetch order.
    """

    ids: np.ndarray
    distances: np.ndarray
    exact_mask: np.ndarray
    fetched_ids: np.ndarray

    @property
    def num_fetched(self) -> int:
        return len(self.fetched_ids)


def multistep_knn(
    query: np.ndarray,
    candidate_ids: np.ndarray,
    lower_bounds: np.ndarray,
    k: int,
    fetcher: Fetcher,
    confirmed_ids: np.ndarray | None = None,
    confirmed_ubs: np.ndarray | None = None,
    tracker: QueryIOTracker | None = None,
) -> RefinementResult:
    """Fetch-minimal kNN over candidates with known lower bounds.

    Args:
        query: ``(d,)`` query point.
        candidate_ids: remaining candidates (any order).
        lower_bounds: their lower bounds (0 for cache misses).
        k: result size.
        fetcher: disk access callable (typically ``PointFile.fetch``).
        confirmed_ids / confirmed_ubs: Phase-2 true results and their upper
            bounds; counted toward ``k`` without fetching.
        tracker: per-query I/O tracker passed through to the fetcher.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    query = np.asarray(query, dtype=np.float64)
    candidate_ids = np.atleast_1d(np.asarray(candidate_ids, dtype=np.int64))
    lower_bounds = np.atleast_1d(np.asarray(lower_bounds, dtype=np.float64))
    if len(candidate_ids) != len(lower_bounds):
        raise ValueError("candidate_ids and lower_bounds must align")
    confirmed_ids = (
        np.empty(0, dtype=np.int64)
        if confirmed_ids is None
        else np.atleast_1d(np.asarray(confirmed_ids, dtype=np.int64))
    )
    confirmed_ubs = (
        np.empty(0, dtype=np.float64)
        if confirmed_ubs is None
        else np.atleast_1d(np.asarray(confirmed_ubs, dtype=np.float64))
    )
    if len(confirmed_ids) != len(confirmed_ubs):
        raise ValueError("confirmed ids and bounds must align")

    order = np.argsort(lower_bounds, kind="stable")
    sorted_ids = candidate_ids[order]
    sorted_lb = lower_bounds[order]

    # Max-heap (negated) of the k best distance estimates seen so far.
    # Confirmed candidates enter with their upper bounds; fetched ones with
    # exact distances.  entry = (-estimate, id, exact?)
    best: list[tuple[float, int, bool]] = []
    for cid, cub in zip(confirmed_ids.tolist(), confirmed_ubs.tolist()):
        heapq.heappush(best, (-float(cub), cid, False))

    def threshold() -> float:
        if len(best) < k:
            return float("inf")
        return -best[0][0]

    n = len(sorted_ids)
    start = 0
    while start < n and not sorted_lb[start] > threshold():
        # The threshold never drops below ``floor``: fetch every candidate
        # whose lower bound cannot exceed it in one call (at least one).
        pool = np.concatenate(
            [[-neg for neg, _, _ in best], sorted_lb[start : start + k]]
        )
        floor = np.partition(pool, k - 1)[k - 1] if len(pool) >= k else np.inf
        stop = max(
            start + 1, int(np.searchsorted(sorted_lb, floor, side="right"))
        )
        run = sorted_ids[start:stop]
        dists = exact_distances(query, fetcher(run, tracker))
        for cid, dist in zip(run.tolist(), dists.tolist()):
            heapq.heappush(best, (-dist, cid, True))
            if len(best) > k:
                heapq.heappop(best)
        start = stop

    results = sorted(((-neg, cid, exact) for neg, cid, exact in best))
    # Confirmed candidates are guaranteed results; they can never be
    # displaced because at most k-1 of them exist and their upper bounds
    # undercut every competing lower bound (Phase-2 invariant).
    ids = np.asarray([cid for _, cid, _ in results[:k]], dtype=np.int64)
    dists = np.asarray([d for d, _, _ in results[:k]], dtype=np.float64)
    exact_mask = np.asarray([e for _, _, e in results[:k]], dtype=bool)
    return RefinementResult(
        ids=ids,
        distances=dists,
        exact_mask=exact_mask,
        fetched_ids=sorted_ids[:start],
    )
