"""Quickstart: accelerate kNN candidate refinement with a histogram cache.

Builds a small simulated image-feature dataset, a C2LSH index over it,
and an HC-O (optimal kNN histogram) cache, then answers queries and shows
the I/O saved against the uncached and exact-cache baselines.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import PipelineSpec, load_dataset
from repro.eval.methods import WorkloadContext
from repro.spec import CacheSection

SEED = 7
K = 10
TAU = 8  # code length: each coordinate stored in 8 bits


def main() -> None:
    # 1. A dataset with a Zipf-skewed query log (stand-in for NUS-WIDE).
    dataset = load_dataset("nus-wide-sim", seed=SEED, scale=0.1)
    print(
        f"dataset: {dataset.num_points} points, d={dataset.dim}, "
        f"file {dataset.file_bytes >> 10} KB, "
        f"workload {len(dataset.query_log.workload)} queries"
    )

    # 2. Prepare the shared context once: builds the C2LSH index, runs the
    #    workload, and collects candidate frequencies + the F' array.
    context = WorkloadContext.prepare(dataset, index_name="c2lsh", k=K, seed=SEED)
    cache_bytes = dataset.file_bytes // 3  # the paper's ~30% budget

    # 3. Assemble pipelines: no cache, exact cache, HC-O histogram cache.
    pipelines = {
        name: PipelineSpec(
            cache=CacheSection(method=name, tau=TAU, cache_bytes=cache_bytes),
            k=K,
        ).build(dataset=dataset, context=context)
        for name in ("NO-CACHE", "EXACT", "HC-O")
    }

    # 4. Answer the test queries and compare I/O.
    print(f"\n{'method':9s} {'hit':>5s} {'prune':>6s} {'Crefine':>8s} {'pages':>6s}")
    reference = None
    for name, pipeline in pipelines.items():
        reads, crefine, hits, prunes = [], [], [], []
        for query in dataset.query_log.test:
            result = pipeline.search(query, K)
            reads.append(result.stats.refine_page_reads)
            crefine.append(result.stats.c_refine)
            hits.append(result.stats.hit_ratio)
            prunes.append(result.stats.prune_ratio)
            if name == "NO-CACHE":
                pass
        print(
            f"{name:9s} {np.mean(hits):5.2f} {np.mean(prunes):6.2f} "
            f"{np.mean(crefine):8.1f} {np.mean(reads):6.1f}"
        )

    # 5. Results are identical with and without the cache.
    q = dataset.query_log.test[0]
    ids_cached = set(pipelines["HC-O"].search(q, K).ids.tolist())
    ids_plain = set(pipelines["NO-CACHE"].search(q, K).ids.tolist())
    assert ids_cached == ids_plain
    print("\ncached result ids match the uncached search:", sorted(ids_cached))


if __name__ == "__main__":
    main()
