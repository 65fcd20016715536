"""Scenario: batch analytics — kNN self-join and density clustering.

The paper's conclusion points at kNN joins and density-based clustering
as the next beneficiaries of histogram caching.  Both issue thousands of
similarity lookups against the same dataset, so one approximate cache is
amortized across the whole batch.

This example runs a kNN self-join (near-duplicate detection) and a
cache-accelerated exact DBSCAN over a simulated feature corpus, and
compares I/O with and without the cache.

Run:  python examples/similarity_join.py
"""

from __future__ import annotations

import numpy as np

from repro.core.builders import build_knn_optimal
from repro.core.cache import ApproximateCache, NoCache
from repro.core.encoder import GlobalHistogramEncoder
from repro.core.frequency import compute_qr, fprime_global
from repro.engine import QueryEngine
from repro.data.synthetic import clustered_dataset
from repro.extensions.clustering import dbscan
from repro.extensions.join import knn_self_join
from repro.index.linear_scan import LinearScanIndex
from repro.storage.pointfile import PointFile

SEED = 9
K = 5
TAU = 7


def main() -> None:
    points = clustered_dataset(1000, 32, n_clusters=6, value_bits=10, seed=SEED)
    print(f"corpus: {points.shape[0]} points, d={points.shape[1]}")

    # The join IS the workload: tune F' on a sample of the join queries.
    from repro.core.domain import ValueDomain

    domain = ValueDomain.from_points(points)
    sample = points[:: max(1, len(points) // 200)]
    qr = compute_qr(points, sample, K)
    fprime = fprime_global(domain, points, qr)
    hist = build_knn_optimal(domain, fprime, 2**TAU)
    encoder = GlobalHistogramEncoder(hist, points.shape[1])

    cache = ApproximateCache(encoder, len(points) * 40, len(points))
    cache.populate(np.arange(len(points)), points)
    index = LinearScanIndex(len(points))

    print("\n-- kNN self-join (near-duplicate detection) --")
    cached_join = knn_self_join(
        QueryEngine.for_index(index, PointFile(points), cache), K
    )
    plain_join = knn_self_join(
        QueryEngine.for_index(index, PointFile(points), NoCache()), K
    )
    assert np.array_equal(
        np.sort(cached_join.ids, axis=1), np.sort(plain_join.ids, axis=1)
    )
    print(f"  page reads without cache: {plain_join.total_page_reads}")
    print(f"  page reads with HC-O cache: {cached_join.total_page_reads} "
          f"({cached_join.total_page_reads / plain_join.total_page_reads:.0%})")
    # A quick use of the join output: the tightest near-duplicate pair.
    best = np.unravel_index(np.argmin(cached_join.distances), cached_join.distances.shape)
    print(f"  closest pair: point {best[0]} and point "
          f"{cached_join.ids[best]} at distance {cached_join.distances[best]:.1f}")

    print("\n-- exact DBSCAN over cached range queries --")
    eps = float(np.median(cached_join.distances[:, -1]))
    cached_run = dbscan(points, eps, min_pts=K, cache=cache,
                        point_file=PointFile(points))
    plain_run = dbscan(points, eps, min_pts=K, cache=NoCache(),
                       point_file=PointFile(points))
    assert np.array_equal(cached_run.labels, plain_run.labels)
    sizes = np.bincount(cached_run.labels[cached_run.labels >= 0])
    print(f"  eps={eps:.1f}: {cached_run.n_clusters} clusters, "
          f"sizes {sorted(sizes.tolist(), reverse=True)[:6]}, "
          f"{np.sum(cached_run.labels < 0)} noise points")
    print(f"  page reads without cache: {plain_run.page_reads}")
    print(f"  page reads with cache:    {cached_run.page_reads} "
          f"({cached_run.decided_without_io} candidates decided bound-only)")


if __name__ == "__main__":
    main()
