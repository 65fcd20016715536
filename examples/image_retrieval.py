"""Scenario: a disk-bound image-retrieval service with a RAM budget.

The paper's motivating workload: a multimedia search engine answers kNN
queries over millions of GIST descriptors stored on disk; a query log
shows strong temporal locality.  This example sizes the cache like an
operator would:

1. generate a 960-d feature corpus and a Zipf query log,
2. use the Section-4 cost model to pick the code length tau* for the RAM
   budget,
3. deploy an HC-O cache at tau* and report latency percentiles against
   the EXACT cache under the same budget.

Run:  python examples/image_retrieval.py
"""

from __future__ import annotations

import numpy as np

from repro import load_dataset
from repro.core.cost_model import optimal_tau
from repro.eval.methods import WorkloadContext
from repro.spec import CacheSection, PipelineSpec

SEED = 3
K = 10
RAM_FRACTION = 0.25


def percentile_report(label: str, times_ms: list[float]) -> None:
    arr = np.asarray(times_ms)
    print(
        f"{label:8s} p50={np.percentile(arr, 50):8.1f} ms   "
        f"p90={np.percentile(arr, 90):8.1f} ms   "
        f"p99={np.percentile(arr, 99):8.1f} ms"
    )


def main() -> None:
    dataset = load_dataset("sogou-sim", seed=SEED, scale=0.25)
    print(
        f"corpus: {dataset.num_points} GIST-like descriptors, d={dataset.dim}, "
        f"{dataset.file_bytes >> 20} MB on disk"
    )
    context = WorkloadContext.prepare(dataset, index_name="c2lsh", k=K, seed=SEED)
    ram_budget = int(dataset.file_bytes * RAM_FRACTION)
    print(f"RAM budget: {ram_budget >> 20} MB ({RAM_FRACTION:.0%} of the file)")

    # Cost-model tuning (Section 4.2): pick tau for this budget.
    model = context.cost_model()
    tau_star = optimal_tau(model, ram_budget, tau_range=(4, 14))
    print(f"cost model selects tau* = {tau_star} "
          f"(estimated refine I/O {model.estimate_io_equiwidth(ram_budget, tau_star):.0f} pages/query)")

    latency = {}
    for method in ("EXACT", "HC-O"):
        pipeline = PipelineSpec(
            cache=CacheSection(
                method=method, tau=tau_star, cache_bytes=ram_budget
            ),
            k=K,
        ).build(dataset=dataset, context=context)
        per_query_ms = []
        for query in dataset.query_log.test:
            stats = pipeline.search(query, K).stats
            modeled = (
                stats.refine_page_reads * pipeline.read_latency_s
                + stats.gen_page_reads * pipeline.seq_read_latency_s
            )
            per_query_ms.append(modeled * 1000)
        latency[method] = per_query_ms

    print("\nmodeled query latency:")
    for method, times in latency.items():
        percentile_report(method, times)
    speedup = np.mean(latency["EXACT"]) / max(np.mean(latency["HC-O"]), 1e-9)
    print(f"\nHC-O mean speedup over EXACT caching: {speedup:.1f}x")


if __name__ == "__main__":
    main()
