"""Ablation: point caching vs query-result caching.

The paper argues (Section 1 / related work) that metric query-result
caches are not applicable to LSH's id-lookup pattern; more fundamentally,
a result cache only helps *identical* repeated queries, while a point
cache helps every query whose candidates overlap past workload.  We
quantify this on a Zipf log where a fraction of test queries repeats the
workload exactly and the rest are fresh.
Expected shape: the result cache wins on repeated queries only; the
point cache (HC-O) wins overall and on fresh queries.
"""

import numpy as np

from common import (
    DEFAULT_K,
    DEFAULT_TAU,
    cache_bytes_for,
    emit,
    get_context,
    get_dataset,
)
from repro.core.cache import NoCache
from repro.core.resultcache import ResultCache, ResultCachedSearch
from repro.engine import QueryEngine
from repro.spec import CacheSection
from repro.spec.build import build_cache, cache_recipe

DATASET = "nus-wide-sim"


def run_experiment():
    dataset = get_dataset(DATASET)
    context = get_context(DATASET)
    cache_bytes = cache_bytes_for(dataset)

    # Point cache (HC-O).
    point_cache = build_cache(
        cache_recipe(
            CacheSection(method="HC-O", tau=DEFAULT_TAU, cache_bytes=cache_bytes),
            "c2lsh", dataset, context.k, context,
        ),
        dataset.points,
    )
    pc_search = QueryEngine.for_index(context.index, context.point_file, point_cache)

    # Result cache warmed on the workload (same budget).
    rc = ResultCache(cache_bytes, dataset.dim)
    rc_search = ResultCachedSearch(
        QueryEngine.for_index(context.index, context.point_file, NoCache()), rc
    )
    rng = np.random.default_rng(3)
    # Warm the result cache on every distinct workload query.
    for q in np.unique(dataset.query_log.workload, axis=0):
        rc_search.search(q, DEFAULT_K)

    # Test mix: repeated queries (from the log) vs fresh neighbors.
    repeated = dataset.query_log.test
    fresh = dataset.query_log.test + rng.normal(
        scale=0.5, size=dataset.query_log.test.shape
    )

    def avg_io(searcher, queries):
        return float(np.mean(
            [searcher.search(q, DEFAULT_K).stats.refine_page_reads for q in queries]
        ))

    rows = [
        ["repeated queries", round(avg_io(pc_search, repeated), 1),
         round(avg_io(rc_search, repeated), 1)],
        ["fresh queries", round(avg_io(pc_search, fresh), 1),
         round(avg_io(rc_search, fresh), 1)],
    ]
    return rows


def test_abl_resultcache(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(
        "abl_resultcache",
        "Ablation — point cache (HC-O) vs query-result cache (nus-wide-sim)",
        ["query mix", "HC-O point cache io", "result cache io"],
        rows,
    )
    repeated, fresh = rows
    # Repeats that appeared in the workload are free for the result cache,
    # so its repeated-mix I/O must sit far below its fresh-mix I/O...
    assert repeated[2] < 0.5 * fresh[2]
    # ...but on fresh queries it collapses toward no-cache while the
    # point cache keeps its benefit — and the point cache wins overall.
    assert fresh[1] < 0.5 * fresh[2]
    assert repeated[1] + fresh[1] < repeated[2] + fresh[2]


if __name__ == "__main__":
    print(run_experiment())
