"""Ablation: how much of the caching win depends on workload skew?

The paper's premise (Figures 2, 8) is that query logs are Zipf-skewed.
We sweep the Zipf parameter of the simulated log: at s=0 (uniform log)
the HFF cache has no popular candidates to hoard and the hit ratio
collapses; as s grows, the cache win grows.  Expected shape: refinement
I/O of HC-O decreases (and hit ratio increases) with s.
"""

import numpy as np

from common import DEFAULT_K, DEFAULT_TAU, cache_bytes_for, emit, get_dataset
from repro.data.workload import generate_query_log
from repro.eval.methods import WorkloadContext
from repro.eval.runner import summarize
from repro.spec import CacheSection, PipelineSpec

ZIPF_VALUES = (0.0, 0.6, 1.1, 1.6)


def run_experiment():
    base = get_dataset("nus-wide-sim")
    rows = []
    series = []
    for s in ZIPF_VALUES:
        log = generate_query_log(
            base.points, pool_size=400, workload_size=1500, test_size=40,
            zipf_s=s, seed=11,
        )
        dataset = base.with_query_log(log)
        context = WorkloadContext.prepare(dataset, k=DEFAULT_K, seed=0)
        pipeline = PipelineSpec(
            cache=CacheSection(
                method="HC-O", tau=DEFAULT_TAU, cache_bytes=cache_bytes_for(dataset)
            ),
            k=DEFAULT_K,
        ).build(dataset=dataset, context=context)
        stats = [pipeline.search(q, DEFAULT_K).stats for q in log.test]
        result = summarize(
            stats, "HC-O", DEFAULT_TAU, 0, DEFAULT_K,
            pipeline.read_latency_s, pipeline.seq_read_latency_s,
        )
        rows.append(
            [s, round(result.hit_ratio, 3), round(result.avg_refine_io, 1),
             round(result.refine_time_s, 4)]
        )
        series.append((result.hit_ratio, result.avg_refine_io))
    return rows, series


def test_abl_zipf(benchmark):
    rows, series = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(
        "abl_zipf",
        "Ablation — HC-O benefit vs workload skew (nus-wide-sim)",
        ["zipf_s", "hit_ratio", "avg refine I/O", "t_refine_s"],
        rows,
    )
    hits = [h for h, _ in series]
    ios = [io for _, io in series]
    assert hits[-1] >= hits[0], "skew should raise the hit ratio"
    assert ios[-1] <= ios[0] * 1.05, "skew should not raise refinement I/O"


if __name__ == "__main__":
    print(run_experiment()[0])
