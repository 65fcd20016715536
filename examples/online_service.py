"""Scenario: an online kNN service with layered caches and nightly rebuilds.

Composes three mechanisms this package provides:

1. a **result cache** for exact repeated queries (free hits),
2. the paper's **HC-O point cache** for everything else,
3. the Section-3.5 **maintenance loop**: a sliding window of served
   queries feeds a periodic rebuild, so the cache tracks the workload as
   its popularity distribution drifts.

Run:  python examples/online_service.py
"""

from __future__ import annotations

import numpy as np

from repro import load_dataset
from repro.core.resultcache import ResultCache, ResultCachedSearch
from repro.data.workload import generate_query_log
from repro.engine import QueryEngine
from repro.lsh.c2lsh import C2LSHIndex
from repro.storage.pointfile import PointFile
from repro.workload import DriftController, TrainSpec, WindowWorkload

SEED = 21
K = 10
TAU = 8


def serve_phase(label, queries, controller, index, point_file, result_cache):
    """Serve a batch of queries through result cache -> point cache."""
    engine = QueryEngine.for_index(index, point_file, controller.cache)
    wrapped = ResultCachedSearch(engine, result_cache)
    reads = []
    for query in queries:
        result = wrapped.search(query, K)
        reads.append(result.stats.refine_page_reads)
        controller.observe(query)
    print(
        f"  {label:18s} avg refine pages/query = {np.mean(reads):6.1f}  "
        f"(result-cache hits so far: {result_cache.stats().hits})"
    )
    return float(np.mean(reads))


def main() -> None:
    dataset = load_dataset("nus-wide-sim", seed=SEED, scale=0.15)
    index = C2LSHIndex(dataset.points, seed=SEED)
    point_file = PointFile(dataset.points, value_bytes=dataset.value_bytes)
    cache_bytes = dataset.file_bytes // 10
    print(f"corpus {dataset.num_points} x {dataset.dim}; "
          f"cache budget {cache_bytes >> 10} KB\n")

    controller = DriftController(
        WindowWorkload(capacity=400),
        TrainSpec(
            points=dataset.points, index=index, k=K, method="HC-O", tau=TAU,
            cache_bytes=cache_bytes,
        ),
    )
    result_cache = ResultCache(cache_bytes // 8, dataset.dim)

    # Day 1: warm up on the historical log, build the first cache.
    for query in dataset.query_log.workload[:400]:
        controller.observe(query)
    report = controller.retrain()
    print(f"initial rebuild: {report.cache_items} cached points, "
          f"{report.histogram_buckets} histogram buckets")
    day1 = serve_phase("day 1 traffic", dataset.query_log.test,
                       controller, index, point_file, result_cache)

    # Day 2: the popular queries drift to a new pool.
    drifted = generate_query_log(
        dataset.points, pool_size=60, workload_size=400, test_size=40,
        zipf_s=1.2, seed=SEED + 100,
    )
    stale = serve_phase("day 2 (stale cache)", drifted.test,
                        controller, index, point_file,
                        ResultCache(cache_bytes // 8, dataset.dim))
    for query in drifted.workload:
        controller.observe(query)
    controller.retrain()
    fresh = serve_phase("day 2 (rebuilt)", drifted.test,
                        controller, index, point_file,
                        ResultCache(cache_bytes // 8, dataset.dim))

    print(f"\nrebuild recovered "
          f"{(stale - fresh) / max(stale, 1e-9):.0%} of the drift-induced I/O"
          f" (day-1 baseline {day1:.1f} pages/query)")


if __name__ == "__main__":
    main()
