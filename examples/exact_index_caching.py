"""Scenario: speeding up *exact* kNN indexes with the leaf-node cache.

Section 3.6.1 of the paper: the caching idea is not LSH-specific.  For
tree indexes (iDistance, VP-tree) the cache item becomes a leaf node
holding approximate representations of all its points; the tree search
consults the cache before fetching a leaf and defers fetches that the
bounds prove unnecessary.  Results stay exact.

Run:  python examples/exact_index_caching.py
"""

from __future__ import annotations

import numpy as np

from repro import load_dataset
from repro.index.linear_scan import exact_knn
from repro.spec import CacheSection, IndexSection, PipelineSpec

SEED = 5
K = 10
TAU = 6


def main() -> None:
    dataset = load_dataset("nus-wide-sim", seed=SEED, scale=0.15)
    cache_bytes = dataset.file_bytes // 3
    print(
        f"dataset: {dataset.num_points} points, d={dataset.dim}; "
        f"leaf cache budget {cache_bytes >> 10} KB"
    )

    for index_name in ("idistance", "vptree"):
        print(f"\n=== {index_name} ===")
        pipelines = {
            method: PipelineSpec(
                index=IndexSection(name=index_name),
                cache=CacheSection(
                    method=method, tau=TAU, cache_bytes=cache_bytes
                ),
                k=K,
                seed=SEED,
            ).build(dataset=dataset)
            for method in ("NO-CACHE", "EXACT", "HC-O")
        }
        for method, pipeline in pipelines.items():
            pages, leaf_fetches, deferred = [], [], []
            for query in dataset.query_log.test:
                result = pipeline.search(query, K)
                pages.append(result.stats.page_reads)
                leaf_fetches.append(result.stats.leaf_fetches)
                deferred.append(result.stats.deferred_fetches)
                # Exactness: identical to brute force (ties tolerated).
                truth, dists = exact_knn(dataset.points, query, K)
                kth = dists[-1]
                d = np.linalg.norm(dataset.points[result.ids] - query, axis=1)
                assert np.all(d <= kth + 1e-9)
            print(
                f"  {method:9s} pages/query={np.mean(pages):7.1f}  "
                f"leaf fetches={np.mean(leaf_fetches):7.1f}  "
                f"deferred={np.mean(deferred):5.1f}"
            )
        base = pipelines["NO-CACHE"]
        hco = pipelines["HC-O"]
        p_base = np.mean([base.search(q, K).stats.page_reads
                          for q in dataset.query_log.test])
        p_hco = np.mean([hco.search(q, K).stats.page_reads
                         for q in dataset.query_log.test])
        print(f"  HC-O leaf caching saves {1 - p_hco / p_base:.0%} of page reads")


if __name__ == "__main__":
    main()
