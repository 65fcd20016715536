"""Figure 8: caching policy (HFF vs LRU) under EXACT caching, SOGOU.

Paper: the static highest-frequency-first policy beats LRU across result
sizes k, because the Zipf workload makes historical frequency an
excellent predictor.  Expected shape: HFF refinement time <= LRU for
every k.
"""

from common import cache_bytes_for, emit, get_context, get_dataset
from repro.core.cache import CachePolicy
from repro.eval.runner import summarize
from repro.spec import CacheSection, PipelineSpec

K_VALUES = (1, 20, 40, 60, 80, 100)
WARM_QUERIES = 300


def _measure(policy: CachePolicy, k: int):
    dataset = get_dataset("sogou-sim")
    context = get_context("sogou-sim", k=k)
    cache = CacheSection(
        method="EXACT",
        cache_bytes=cache_bytes_for(dataset),
        policy="lru" if policy is CachePolicy.LRU else "hff",
    )
    pipeline = PipelineSpec(cache=cache, k=k).build(
        dataset=dataset, context=context
    )
    if policy is CachePolicy.LRU:
        for query in dataset.query_log.workload[:WARM_QUERIES]:
            pipeline.search(query, k)
    stats = [pipeline.search(q, k).stats for q in dataset.query_log.test]
    return summarize(
        stats, "EXACT", 0, pipeline.cache.capacity_bytes, k,
        pipeline.read_latency_s, pipeline.seq_read_latency_s,
    )


def run_experiment():
    rows = []
    for k in K_VALUES:
        hff = _measure(CachePolicy.HFF, k)
        lru = _measure(CachePolicy.LRU, k)
        rows.append(
            [k, round(hff.refine_time_s, 4), round(lru.refine_time_s, 4),
             round(hff.hit_ratio, 3), round(lru.hit_ratio, 3)]
        )
    return rows


def test_fig08_policy(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(
        "fig08_policy",
        "Figure 8 — HFF vs LRU (EXACT caching, sogou-sim, modeled seconds)",
        ["k", "t_refine HFF", "t_refine LRU", "hit HFF", "hit LRU"],
        rows,
    )
    wins = sum(1 for row in rows if row[1] <= row[2] * 1.05)
    assert wins >= len(rows) - 1, "HFF should beat (or match) LRU almost always"


if __name__ == "__main__":
    print(run_experiment())
