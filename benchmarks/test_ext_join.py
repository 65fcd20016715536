"""Extension benchmark: cached kNN join (the paper's future work).

Joins the test-query pool of nus-wide-sim against the dataset under
three caches.  Expected shape: HC-O join I/O < EXACT join I/O <
NO-CACHE join I/O, with identical join results.
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
from repro.engine import QueryEngine
from repro.spec.build import make_method_cache
from repro.extensions.join import knn_join

DATASET = "nus-wide-sim"
N_JOIN_QUERIES = 120


def run_experiment():
    dataset = get_dataset(DATASET)
    context = get_context(DATASET)
    rng = np.random.default_rng(5)
    queries = dataset.points[
        rng.choice(dataset.num_points, size=N_JOIN_QUERIES, replace=False)
    ]
    rows = []
    results = {}
    for method in ("NO-CACHE", "EXACT", "HC-O"):
        cache = make_method_cache(
            context, method, tau=DEFAULT_TAU, cache_bytes=cache_bytes_for(dataset)
        )
        searcher = QueryEngine.for_index(context.index, context.point_file, cache)
        join = knn_join(queries, searcher, DEFAULT_K)
        rows.append(
            [method, join.total_page_reads, round(join.avg_page_reads, 1)]
        )
        results[method] = join
    return rows, results


def test_ext_join(benchmark):
    rows, results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(
        "ext_join",
        f"Extension — kNN join of {N_JOIN_QUERIES} queries (nus-wide-sim)",
        ["method", "total refine pages", "pages/query"],
        rows,
    )
    by = {row[0]: row[1] for row in rows}
    assert by["HC-O"] < by["EXACT"] < by["NO-CACHE"]
    # Join answers are identical across caches (sorted per row).
    a = np.sort(results["NO-CACHE"].ids, axis=1)
    b = np.sort(results["HC-O"].ids, axis=1)
    ties_ok = np.mean(np.all(a == b, axis=1))
    assert ties_ok > 0.9  # rows may differ only on exact distance ties


if __name__ == "__main__":
    print(run_experiment()[0])
